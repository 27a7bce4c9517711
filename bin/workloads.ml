(* The grid workloads of `sweep` and `mc`, shared by the in-process
   driver, the farm coordinator and the farm-worker subprocess.

   A workload is typed by its point value. The farm ships it to workers
   as a codec blob; every side resolves it to the same [point] closure
   and encodes point values with Runner.Codec, the encoding Run.grid
   journals, so farm and in-process runs hold the same bytes. *)

type _ t =
  | Ratio : {
      spec : Pll_lib.Design.spec;
      ratios : float array;
    }
      -> Pll_lib.Analysis.ratio_point t
  | Mc : {
      spec : Pll_lib.Design.spec;
      cfg : Experiments.Exp_nonideal.mc_config;
      points : int;
    }
      -> Experiments.Exp_nonideal.mc_row t

type any = Any : 'a t -> any

let to_blob w = Runner.Codec.encode (Any w)

let size (type a) (w : a t) =
  match w with
  | Ratio { ratios; _ } -> Array.length ratios
  | Mc { points; _ } -> points

(* [point w] maps a global grid index to its value. *)
let point : type a. a t -> int -> a = function
  | Ratio { spec; ratios } -> (
      fun i ->
        match Pll_lib.Analysis.ratio_sweep spec [ ratios.(i) ] with
        | [ row ] -> row
        | _ -> assert false)
  | Mc { spec; cfg; _ } ->
      Experiments.Exp_nonideal.mc_point
        (Experiments.Exp_nonideal.mc_env ~spec cfg)

(* A farm worker's task: the blob's point function, encoded. *)
let task blob =
  let (Any w) = Runner.Codec.decode_exn ~file:"<blob>" blob in
  let f = point w in
  fun i -> Runner.Codec.encode (f i)
