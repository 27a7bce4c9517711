(* htm_analysis — the only workload that enters lib/core.

   Each round interleaves four phases so that drift on a shared host
   lands on every phase alike:
   - set-up: create a default-size pool and make the first plan;
   - grid: fresh seeded designs of three structure classes through
     [Analysis.closed_loop_metrics_htm ~points:800] on the pool; the
     class counts give each class a comparable share of the time;
   - query: a closed loop of single-point [Htm.to_matrix] /
     [Htm.element] / [Htm.apply_to_tone] calls on a small design pool
     drawn with repeats, so a future plan cache has something to hit;
   - recover: grids run with plan NaNs injected at random points, which
     the plan layer recovers from through the dense oracle.

   Classes: [ti] (time-invariant VCO, sampling PFD: the rank-one path
   with the exact λ), [isf] (VCO with ISF harmonics: banded products)
   and [mix] (mixing PFD: dense LU feedback). *)

open Util
module A = Pll_lib.Analysis
module Htm = Htm_core.Htm
module Cx = Numeric.Cx

type cls = Ti | Isf | Mix

let cls_name = function Ti -> "ti" | Isf -> "isf" | Mix -> "mix"
let classes = [ Ti; Isf; Mix ]
let grid_points = 800

(* One round's grid batch. The counts equalise the class shares of
   grid time on a 2-core host (ti designs are ~30x cheaper than mix
   ones at the same n_harm); the measured shares are reported as
   core.grid_share.<class>. *)
let grid_batch =
  List.concat_map (fun n -> [ (Ti, n); (Ti, n); (Ti, n); (Ti, n); (Ti, n) ]) [ 8; 20; 40; 80 ]
  @ List.concat_map (fun n -> [ (Isf, n) ]) [ 8; 20; 20; 40; 80 ]
  @ [ (Mix, 8); (Mix, 20) ]

(* The query pool, repeated across the whole run. Its designs are the
   same for every seed (the seed draws the query sequence), so a seed
   cannot move the pool's cost. *)
let query_pool = [ (Ti, 20); (Ti, 40); (Isf, 8); (Isf, 20); (Mix, 8); (Mix, 20) ]
let queries_per_round = 3000
let recover_batch = [ (Isf, 20); (Isf, 40); (Mix, 8) ]
let inject_spec = "grid-plan-nan:~0.02"

let design rng cls =
  let u lo hi = lo +. Random.State.float rng (hi -. lo) in
  let spec =
    {
      Pll_lib.Design.default_spec with
      fref = 1e6 *. u 0.8 1.25;
      ratio = u 0.03 0.2;
      phase_margin_deg = u 45.0 65.0;
    }
  in
  let base = Pll_lib.Design.synthesize spec in
  let make ?pfd vco =
    Pll_lib.Pll.make ~fref:spec.fref ~n_div:spec.n_div
      ~filter:base.Pll_lib.Pll.filter ~vco ?pfd ()
  in
  match cls with
  | Ti -> base
  | Isf ->
      make
        (Pll_lib.Vco.with_isf ~kvco:spec.kvco ~n_div:spec.n_div ~fref:spec.fref
           ~harmonics:
             [ Cx.of_float (u 0.05 0.4); Cx.make (u (-0.1) 0.1) (u (-0.1) 0.1) ])
  | Mix -> make ~pfd:(Pll_lib.Pfd.mixing ~gain:(u 0.5 2.0)) base.Pll_lib.Pll.vco

let ctx_of n_harm p = Htm.ctx ~n_harm ~omega0:(Pll_lib.Pll.omega0 p)

let metrics_fields (m : A.closed_loop_metrics) =
  [
    ("dc_mag", m.dc_mag);
    ("peak_mag", m.peak_mag);
    ("peak_freq", m.peak_freq);
    ("bandwidth_3db", Option.value ~default:(-1.0) m.bandwidth_3db);
  ]

(* Magnitudes agree to [tol]; the peak and -3 dB frequencies come from
   a refinement search on a flat maximum, where a rounding-level change
   in |H00| moves the argument by ~1e-8 relative, so they get 1e-6. *)
let check_metrics ~tol what a b =
  List.iter2
    (fun (k, x) (_, y) ->
      let tol = if k = "peak_freq" || k = "bandwidth_3db" then Float.max tol 1e-6 else tol in
      Check.close ~tol (what ^ "." ^ k) x y)
    (metrics_fields a) (metrics_fields b)

let max_abs_diff a b =
  let d = ref 0.0 and s = ref 1.0 in
  for i = 0 to Numeric.Cmat.rows a - 1 do
    for k = 0 to Numeric.Cmat.cols a - 1 do
      let x = Numeric.Cmat.get a i k and y = Numeric.Cmat.get b i k in
      d := Float.max !d (Cx.abs (Cx.sub x y));
      s := Float.max !s (Cx.abs y)
    done
  done;
  !d /. !s

(* sampled points of the plan and of Htm.to_matrix against the dense
   oracle, on the truncated tree (no exact-λ substitution) *)
let check_dense rng (cls, n_harm) p =
  let ctx = ctx_of n_harm p in
  let tree = Pll_lib.Pll.closed_loop_htm p in
  let plan = Htm_core.Plan.make ctx tree in
  let w0 = Pll_lib.Pll.omega0 p in
  for _ = 1 to 2 do
    let s = Cx.jomega (w0 *. (10.0 ** (-3.0 +. Random.State.float rng 2.69))) in
    let dense = Htm.to_matrix_dense ctx tree s in
    let what = Printf.sprintf "%s n_harm %d" (cls_name cls) n_harm in
    let dp = max_abs_diff (Htm_core.Plan.to_cmat plan s) dense in
    Check.that (dp <= 1e-9) (Printf.sprintf "%s: plan vs dense %.3g" what dp);
    let dt = max_abs_diff (Htm.to_matrix ctx tree s) dense in
    Check.that (dt <= 1e-9) (Printf.sprintf "%s: to_matrix vs dense %.3g" what dt)
  done

type query = { q_cls : cls; ctx : Htm.ctx; tree : Htm.t; w0 : float }
type op = To_matrix | Element | Tone

let op_name = function
  | To_matrix -> "to_matrix"
  | Element -> "element"
  | Tone -> "apply_to_tone"

(* one query: returns a value the check can recompute from the dense
   oracle *)
let run_query q op ~n ~m w =
  let s = Cx.jomega w in
  match op with
  | To_matrix -> `Mat (Htm.to_matrix q.ctx q.tree s)
  | Element -> `Elt (Htm.element q.ctx q.tree ~n ~m s)
  | Tone -> `Vec (Htm.apply_to_tone q.ctx q.tree ~m w)

let check_query q op ~n ~m w result =
  let dense = Htm.to_matrix_dense q.ctx q.tree (Cx.jomega w) in
  let idx h = Htm.index_of_harmonic q.ctx h in
  let what = Printf.sprintf "query %s/%s" (cls_name q.q_cls) (op_name op) in
  let scale = ref 1.0 in
  for i = 0 to Numeric.Cmat.rows dense - 1 do
    scale := Float.max !scale (Cx.abs (Numeric.Cmat.get dense i (idx m)))
  done;
  let close a b =
    let d = Cx.abs (Cx.sub a b) /. !scale in
    Check.that (d <= 1e-9) (Printf.sprintf "%s: %.3g off the dense oracle" what d)
  in
  match result with
  | `Mat mat ->
      let d = max_abs_diff mat dense in
      Check.that (d <= 1e-9) (Printf.sprintf "%s: %.3g off the dense oracle" what d)
  | `Elt e -> close e (Numeric.Cmat.get dense (idx n) (idx m))
  | `Vec v ->
      for i = 0 to Numeric.Cvec.dim v - 1 do
        close (Numeric.Cvec.get v i) (Numeric.Cmat.get dense i (idx m))
      done

let run ~seed ~seconds ~traced =
  let rng = Random.State.make [| 0x47a1; seed |] in
  let pool = Parallel.Pool.create () in
  let pool_size = Parallel.Pool.size pool in
  let pool_rng = Random.State.make [| 0x47a1 |] in
  let queries =
    Array.of_list
      (List.map
         (fun (cls, n_harm) ->
           let p = design pool_rng cls in
           {
             q_cls = cls;
             ctx = ctx_of n_harm p;
             tree = Pll_lib.Pll.closed_loop_htm p;
             w0 = Pll_lib.Pll.omega0 p;
           })
         query_pool)
  in
  let setup = ref [] and rates = ref [] and recovers = ref [] in
  let lat_rounds = ref [] in
  let lat_by_op = Hashtbl.create 3 in
  let qwords = ref [] in
  let class_time = Hashtbl.create 3 in
  let attempted = ref 0 in
  let fallbacks = ref 0 and grid_pts_total = ref 0 in
  let busy = ref 0.0 and wall = ref 0.0 in
  let round = ref 0 in
  (* round 1 warms the heap and the caches and is not recorded *)
  let record r x = if !round > 1 then r := x :: !r in
  let t_end = now () +. seconds in
  while !round < 3 || now () < t_end do
    incr round;
    Trace.with_span ~layer:"bench" "htm.round" (fun () ->
        (* set-up: default-size pool plus the first plan *)
        let p0 = design rng Ti in
        let dt, fresh =
          time (fun () ->
              Trace.with_span ~layer:"parallel" "Pool.create+Plan.make"
                (fun () ->
                  let fresh = Parallel.Pool.create () in
                  ignore (Pll_lib.Pll.closed_loop_plan (ctx_of 20 p0) p0);
                  fresh))
        in
        Parallel.Pool.shutdown fresh;
        record setup dt;
        (* grid *)
        let designs = List.map (fun (c, n) -> ((c, n), design rng c)) grid_batch in
        Parallel.Pool.reset_stats pool;
        let r0 = Robust.Stats.snapshot () in
        let results = ref [] in
        let gdt, () =
          time (fun () ->
              List.iter
                (fun ((cls, n_harm), p) ->
                  incr attempted;
                  let dt, m =
                    time (fun () ->
                        Trace.with_span ~layer:"pll"
                          ("closed_loop_metrics_htm." ^ cls_name cls)
                          (fun () ->
                            A.closed_loop_metrics_htm ~n_harm ~points:grid_points
                              ~pool p))
                  in
                  let prev = Option.value ~default:0.0 (Hashtbl.find_opt class_time cls) in
                  Hashtbl.replace class_time cls (prev +. dt);
                  results := ((cls, n_harm), p, m) :: !results)
                designs)
        in
        let r1 = Robust.Stats.snapshot () in
        fallbacks := !fallbacks + r1.dense_fallbacks - r0.dense_fallbacks;
        grid_pts_total := !grid_pts_total + (grid_points * List.length designs);
        let st = Parallel.Pool.stats pool in
        busy := !busy +. st.busy_seconds;
        wall := !wall +. st.wall_seconds;
        record rates (float_of_int (grid_points * List.length designs) /. gdt);
        (* query: closed loop, one caller *)
        let checks = ref [] and round_lat = ref [] in
        for k = 1 to queries_per_round do
          let qi = Random.State.int rng (Array.length queries) in
          let q = queries.(qi) in
          let op =
            match Random.State.int rng 3 with 0 -> To_matrix | 1 -> Element | _ -> Tone
          in
          let n = Random.State.int rng 5 - 2 and m = Random.State.int rng 5 - 2 in
          let w = q.w0 *. (10.0 ** (-3.0 +. Random.State.float rng 2.69)) in
          incr attempted;
          let w0 = if traced then Gc.minor_words () else 0.0 in
          let dt, r =
            time (fun () ->
                Trace.with_span ~req:k ~layer:"core" ("Htm." ^ op_name op)
                  (fun () -> run_query q op ~n ~m w))
          in
          if traced then qwords := (Gc.minor_words () -. w0) :: !qwords;
          round_lat := (dt *. 1e3) :: !round_lat;
          if traced && !round > 1 then
            Hashtbl.replace lat_by_op op
              (dt :: Option.value ~default:[] (Hashtbl.find_opt lat_by_op op));
          if k mod 500 = 0 then checks := (q, op, n, m, w, r) :: !checks
        done;
        record lat_rounds (latency_round !round_lat);
        (* recover: injected plan faults, healed by the dense oracle *)
        let rdesigns = List.map (fun (c, n) -> ((c, n), design rng c)) recover_batch in
        Robust.Inject.configure ~seed:1 inject_spec;
        let rdt, recovered =
          Fun.protect ~finally:Robust.Inject.disarm (fun () ->
              time (fun () ->
                  List.map
                    (fun ((_, n_harm), p) ->
                      incr attempted;
                      Trace.with_span ~layer:"robust" "recover.closed_loop_metrics_htm"
                        (fun () ->
                          A.closed_loop_metrics_htm ~n_harm ~points:grid_points ~pool p))
                    rdesigns))
        in
        record recovers rdt;
        (* output checks, outside every timed region *)
        List.iter
          (fun ((cls, n_harm), p, m) ->
            if cls = Ti then
              check_metrics ~tol:1e-9
                (Printf.sprintf "ti n_harm %d vs closed form" n_harm)
                m (A.closed_loop_metrics ~points:grid_points ~pool p);
            if !round = 1 then check_dense rng (cls, n_harm) p)
          !results;
        List.iter (fun (q, op, n, m, w, r) -> check_query q op ~n ~m w r) !checks;
        List.iter2
          (fun ((cls, n_harm), p) m ->
            check_metrics ~tol:1e-7
              (Printf.sprintf "recovered %s n_harm %d" (cls_name cls) n_harm)
              m (A.closed_loop_metrics_htm ~n_harm ~points:grid_points ~pool p))
          rdesigns recovered)
  done;
  let p50, p99, rate = Stat.round_summary !lat_rounds in
  List.iter
    (fun cls ->
      note "htm grid time %s: %.3f s" (cls_name cls)
        (Option.value ~default:0.0 (Hashtbl.find_opt class_time cls)))
    classes;
  let layer =
    if not traced then []
    else begin
      let total_class = Hashtbl.fold (fun _ v acc -> acc +. v) class_time 0.0 in
      let op_us op =
        Stat.median (Option.value ~default:[] (Hashtbl.find_opt lat_by_op op)) *. 1e6
      in
      (* per-class plan costs at n_harm 20, one lane, and allocation in
         a 1-domain pass (Gc.minor_words counts the calling domain
         only, so the pass must not leave it) *)
      let pool1 = Parallel.Pool.create ~domains:1 () in
      let per_class =
        List.concat_map
          (fun cls ->
            let p = design rng cls in
            let ctx = ctx_of 20 p in
            let make_s =
              Stat.median
                (List.init 5 (fun _ ->
                     fst
                       (time (fun () ->
                            Trace.with_span ~layer:"core" "Pll.closed_loop_plan"
                              (fun () -> Pll_lib.Pll.closed_loop_plan ctx p)))))
            in
            let plan = Pll_lib.Pll.closed_loop_plan ctx p in
            let w0 = Pll_lib.Pll.omega0 p in
            let ws = Numeric.Optimize.logspace (w0 *. 1e-5) (w0 *. 0.4999) grid_points in
            let pt_s =
              Stat.median
                (List.init 3 (fun _ ->
                     fst
                       (time (fun () ->
                            Trace.with_span ~layer:"core" "Plan.baseband"
                              (fun () ->
                                Array.iter
                                  (fun w -> ignore (Htm_core.Plan.baseband plan (Cx.jomega w)))
                                  ws)))))
              /. float_of_int grid_points
            in
            let words0 = Gc.minor_words () in
            ignore (A.closed_loop_metrics_htm ~n_harm:20 ~points:grid_points ~pool:pool1 p);
            let words = (Gc.minor_words () -. words0) /. float_of_int grid_points in
            let c = cls_name cls in
            [
              ("core.plan_make_us." ^ c, make_s *. 1e6);
              ("core.plan_pt_us." ^ c, pt_s *. 1e6);
              ("core.alloc_words_per_pt." ^ c, words);
              ( "core.grid_share." ^ c,
                Option.value ~default:0.0 (Hashtbl.find_opt class_time cls) /. total_class );
            ])
          classes
      in
      (* the same grid batch on one domain and on the default pool *)
      let batch = List.map (fun (c, n) -> (n, design rng c)) grid_batch in
      let run_batch pool =
        fst
          (time (fun () ->
               List.iter
                 (fun (n_harm, p) ->
                   ignore (A.closed_loop_metrics_htm ~n_harm ~points:grid_points ~pool p))
                 batch))
      in
      let t1 =
        Trace.with_span ~layer:"parallel" "grid batch, 1 domain" (fun () -> run_batch pool1)
      in
      let tn =
        Trace.with_span ~layer:"parallel" "grid batch, default pool" (fun () ->
            run_batch pool)
      in
      Parallel.Pool.shutdown pool1;
      per_class
      @ [
          ("core.to_matrix_us", op_us To_matrix);
          ("core.element_us", op_us Element);
          ("core.apply_to_tone_us", op_us Tone);
          ("core.query_alloc_words", Stat.median !qwords);
          ( "robust.dense_fallbacks_per_kpt",
            float_of_int !fallbacks /. (float_of_int !grid_pts_total /. 1000.0) );
          ("parallel.lane_speedup", !busy /. !wall);
          ("parallel.speedup_vs_1_domain", t1 /. tn);
        ]
    end
  in
  Parallel.Pool.shutdown pool;
  {
    e2e =
      [
        ("setup_s", Stat.median !setup);
        ("points_per_s", Stat.median !rates);
        ("latency_p50_ms", p50);
        ("latency_p99_ms", p99);
        ("max_rate_rps", rate);
        ("recover_s", Stat.median !recovers);
        ("peak_rss_mb", peak_rss_mb "self");
      ];
    layer;
    attempted = !attempted;
    failed = 0;
    check_failures = Check.take ();
    info =
      [
        ("pool_domains", Json.int pool_size);
        ("rounds", Json.int !round);
        ("latency_samples", Json.int (Stat.samples !lat_rounds));
        ("latency_rounds", Json.int (List.length !lat_rounds));
        ("grid_points", Json.int !grid_pts_total);
      ];
  }
