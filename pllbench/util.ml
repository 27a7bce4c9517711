(* Helpers shared by the benchmark workloads: order statistics with the
   "ten samples beyond" percentile rule, the seeded Poisson arrival
   schedule of the open-loop generator, in-memory span tracing with
   per-layer self time, JSON output, /proc readers, scratch files and
   the output-check collector. *)

(* ---------------------------------------------------------------- *)
(* order statistics                                                 *)

module Stat = struct
  let sorted xs =
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    a

  (* nearest-rank quantile of an ascending array: the smallest sample
     with at least [p·n] samples at or below it *)
  let quantile_sorted a p =
    let n = Array.length a in
    if n = 0 then Float.nan
    else
      let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) k))

  let quantile xs p = quantile_sorted (sorted xs) p
  let median xs = quantile xs 0.5

  (* samples strictly beyond the nearest-rank [p]-quantile of [n] *)
  let beyond ~n p =
    n - int_of_float (Float.ceil (p *. float_of_int n))

  (* A percentile is reportable only with at least [min_beyond]
     samples beyond it (ten by default): p99 needs n >= 1000. *)
  let reportable ?(min_beyond = 10) ~n p = beyond ~n p >= min_beyond

  (* Latencies (ms) of a run made of rounds: each round's samples are
     reduced to a p50, a p99 (a round holds at least 1000 samples, so
     its p99 has ten beyond it), a completion rate per second (for a
     closed loop) and a count, and the run reports the median of each
     over rounds, which a host stall confined to one round cannot move. *)
  type round = { p50 : float; p99 : float; rate : float; n : int }

  let round xs =
    let sum = List.fold_left ( +. ) 0.0 xs and n = List.length xs in
    let a = sorted xs in
    { p50 = quantile_sorted a 0.5; p99 = quantile_sorted a 0.99; rate = 1e3 *. float_of_int n /. sum; n }

  let round_summary rounds =
    let per f = median (List.map f rounds) in
    (per (fun r -> r.p50), per (fun r -> r.p99), per (fun r -> r.rate))

  let samples rounds = List.fold_left (fun n r -> n + r.n) 0 rounds

end

(* ---------------------------------------------------------------- *)
(* open-loop arrival schedule                                       *)

module Sched = struct
  (* Due times (seconds from the start of the phase) of the first [n]
     arrivals of a Poisson process at [rate] per second. The schedule
     depends only on [seed], [rate] and [n]. *)
  let poisson ~seed ~rate ~n =
    if rate <= 0.0 then invalid_arg "Sched.poisson: rate must be positive";
    let rng = Random.State.make [| 0x5eed; seed |] in
    let t = ref 0.0 in
    Array.init n (fun _ ->
        (* 1 - U lies in (0, 1], so the log is finite *)
        let u = 1.0 -. Random.State.float rng 1.0 in
        t := !t -. (log u /. rate);
        !t)
end

(* ---------------------------------------------------------------- *)
(* span tracing                                                     *)

module Trace = struct
  type span = {
    id : int;
    parent : int;  (** 0 = root *)
    name : string;
    layer : string;
    req : int;  (** request id; spans of one request share it *)
    t0 : float;
    t1 : float;
  }

  let enabled = ref false
  let lock = Mutex.create ()
  let next_id = ref 0
  let recorded : span list ref = ref []

  (* nesting for spans opened by the main thread; other threads pass
     [~parent] explicitly and never touch the stack *)
  let stack : int list ref = ref []

  let reset () =
    Mutex.protect lock (fun () ->
        recorded := [];
        next_id := 0);
    stack := []

  let fresh_id () =
    Mutex.protect lock (fun () ->
        incr next_id;
        !next_id)

  let current () = match !stack with id :: _ -> id | [] -> 0

  let record s = Mutex.protect lock (fun () -> recorded := s :: !recorded)

  (* [with_span ?parent ?req ~layer name f] — run [f], recording a
     span around it when tracing is on. Without [parent] the span nests
     under the main thread's innermost open span. *)
  let with_span ?parent ?(req = 0) ~layer name f =
    if not !enabled then f ()
    else
      let id = fresh_id () in
      let nested = parent = None in
      let parent = match parent with Some p -> p | None -> current () in
      if nested then stack := id :: !stack;
      let t0 = Unix.gettimeofday () in
      let finish () =
        let t1 = Unix.gettimeofday () in
        if nested then stack := List.tl !stack;
        record { id; parent; name; layer; req; t0; t1 }
      in
      Fun.protect ~finally:finish f

  let spans () = Mutex.protect lock (fun () -> List.rev !recorded)

  (* total length of the union of intervals, each clipped to [lo, hi] *)
  let covered ~lo ~hi intervals =
    let clipped =
      List.filter_map
        (fun (a, b) ->
          let a = Float.max a lo and b = Float.min b hi in
          if b > a then Some (a, b) else None)
        intervals
    in
    let sorted = List.sort compare clipped in
    let total, last =
      List.fold_left
        (fun (total, cur) (a, b) ->
          match cur with
          | None -> (total, Some (a, b))
          | Some (ca, cb) ->
              if a <= cb then (total, Some (ca, Float.max cb b))
              else (total +. (cb -. ca), Some (a, b)))
        (0.0, None) sorted
    in
    match last with Some (a, b) -> total +. (b -. a) | None -> total

  (* A span's self time is its duration minus the part of it covered
     by its direct children (overlapping children count once). *)
  let self_time spans =
    let children = Hashtbl.create 64 in
    List.iter
      (fun s -> Hashtbl.add children s.parent (s.t0, s.t1))
      spans;
    List.map
      (fun s ->
        let kids = Hashtbl.find_all children s.id in
        (s, s.t1 -. s.t0 -. covered ~lo:s.t0 ~hi:s.t1 kids))
      spans

  (* self time summed per layer, in first-seen layer order *)
  let self_by_layer spans =
    let tbl = Hashtbl.create 16 and order = ref [] in
    List.iter
      (fun (s, dt) ->
        match Hashtbl.find_opt tbl s.layer with
        | Some v -> Hashtbl.replace tbl s.layer (v +. dt)
        | None ->
            order := s.layer :: !order;
            Hashtbl.add tbl s.layer dt)
      (self_time spans);
    List.rev_map (fun l -> (l, Hashtbl.find tbl l)) !order
end

(* ---------------------------------------------------------------- *)
(* timing                                                           *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (now () -. t0, v)

(* ---------------------------------------------------------------- *)
(* JSON                                                             *)

module Json = struct
  let str s =
    let b = Buffer.create (String.length s + 2) in
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"';
    Buffer.contents b

  (* every digit of the measurement; JSON has no NaN or infinity *)
  let num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"
  let int = string_of_int
  let bool = string_of_bool

  let obj fields =
    "{"
    ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields)
    ^ "}"

  let arr items = "[" ^ String.concat ", " items ^ "]"
end

(* ---------------------------------------------------------------- *)
(* /proc readers                                                    *)

(* peak resident set (VmHWM of /proc/<pid>/status) in MB; NaN, which
   fails the run, when it cannot be read *)
let peak_rss_mb pid =
  match In_channel.with_open_text (Printf.sprintf "/proc/%s/status" pid) In_channel.input_all with
  | exception Sys_error _ -> Float.nan
  | text ->
      let field line =
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
            match String.split_on_char ' ' (String.trim v) with
            | kb :: _ -> Option.map (fun kb -> kb /. 1024.0) (float_of_string_opt kb)
            | [] -> None)
        | _ -> None
      in
      Option.value ~default:Float.nan (List.find_map field (String.split_on_char '\n' text))

(* CPUs this process may run on (what nproc prints) *)
let nproc () =
  let path = "/proc/self/status" in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> Domain.recommended_domain_count ()
  | text -> (
      let line =
        List.find_opt
          (String.starts_with ~prefix:"Cpus_allowed_list:")
          (String.split_on_char '\n' text)
      in
      match line with
      | None -> Domain.recommended_domain_count ()
      | Some l ->
          let v = String.trim (List.nth (String.split_on_char ':' l) 1) in
          List.fold_left
            (fun acc part ->
              match String.split_on_char '-' part with
              | [ a ] when int_of_string_opt a <> None -> acc + 1
              | [ a; b ] -> (
                  match (int_of_string_opt a, int_of_string_opt b) with
                  | Some a, Some b -> acc + (b - a + 1)
                  | _ -> acc)
              | _ -> acc)
            0
            (String.split_on_char ',' v))

(* ---------------------------------------------------------------- *)
(* scratch files                                                    *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

(* per-process scratch space inside the source tree; removed at exit *)
let scratch_root () = Printf.sprintf ".pllbench_tmp/%d" (Unix.getpid ())
let scratch name = Filename.concat (scratch_root ()) name

let mkdir_p path =
  let rec go p =
    if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o700
    end
  in
  go path

(* ---------------------------------------------------------------- *)
(* what a workload run returns                                      *)

type outcome = {
  e2e : (string * float) list;  (** end-to-end metrics, untraced meaning *)
  layer : (string * float) list;  (** per-layer metrics (traced runs) *)
  attempted : int;
  failed : int;
  check_failures : string list;  (** empty when every output check passed *)
  info : (string * string) list;  (** extra JSON fields for the record *)
}

(* Output checks run outside the timed regions; a failure is recorded,
   not raised, so the run still reports what it measured. *)
module Check = struct
  let failures : string list ref = ref []
  let fail msg = failures := msg :: !failures
  let that ok msg = if not ok then fail msg

  let close ?(tol = 1e-9) what a b =
    let scale = Float.max 1.0 (Float.max (Float.abs a) (Float.abs b)) in
    if not (Float.abs (a -. b) <= tol *. scale) then
      fail (Printf.sprintf "%s: %.17g vs %.17g" what a b)

  let take () =
    let f = List.rev !failures in
    failures := [];
    f
end

let note fmt = Printf.eprintf (fmt ^^ "\n%!")

(* [Stat.round] with the percentile rule checked *)
let latency_round xs =
  let n = List.length xs in
  Check.that (Stat.reportable ~n 0.99)
    (Printf.sprintf "a round of %d latency samples cannot report p99" n);
  Stat.round xs

(* The unit of a metric, from its name: the first dot-separated segment
   that carries a unit suffix ("serve.engine_ms.bode" is in ms,
   "self_s.core" in s); names without one are counts. *)
let unit_of name =
  let unit_of_segment seg =
    let ends s = String.ends_with ~suffix:s seg in
    if seg = "max_rate_rps" then Some "req/s"
    else if ends "pts_per_s" || seg = "points_per_s" then Some "pts/s"
    else if ends "_ratio" || seg = "ok_frac" || seg = "grid_share" then Some "ratio"
    else if ends "_pct" then Some "%"
    else if ends "_mb" then Some "MB"
    else if ends "_ms" then Some "ms"
    else if ends "_us" || ends "_us_per_pt" then Some "us"
    else if ends "_ns" then Some "ns"
    else if ends "_s" then Some "s"
    else if ends "words" || ends "words_per_pt" then Some "words"
    else if ends "bytes" || ends "bytes_per_pt" then Some "B"
    else if ends "speedup" || ends "speedup_vs_1_domain" then Some "x"
    else None
  in
  Option.value ~default:"count"
    (List.find_map unit_of_segment (String.split_on_char '.' name))
