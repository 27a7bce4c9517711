(* Rung benchmarks below Plan.eval, and the per-figure Bechamel suite.

   `dune exec bench/main.exe -- MODE`, with MODE one of

     kernels  single-point HTM queries (time-invariant and mixing-PFD
              loops): the dense oracle, the compile rung (Plan.make),
              Htm.to_matrix and Htm.element on a tree the plan memo
              holds, and the same queries cold, on a fresh tree per
              call (the memo misses: compile plus query); compiled
              plans' Plan.baseband: the mixing-PFD loop's, and the
              exact-λ loops' with λ alone (time-invariant and ISF VCO),
              at n_harm 10/20/40/80; and the same baseband point of
              each loop when its plan faults at every point (the
              fallback rows);
     grid     1000-point log grids: Htm queries per point, held by the
              memo and cold, against one compiled plan queried per
              point (Plan.eval), n_harm 8/20/80;
     bench    the Bechamel suite, one kernel per paper figure.

   Every evaluation runs guarded, as in production; kernels exits 1 if
   a guard fell back to the dense oracle while it timed a row other
   than a fallback row, since that would bill the oracle to the plan's
   rows. kernels and grid each write one record to the current
   directory, BENCH_<mode>.json:

     {"host": {nproc, recommended_domain_count, ocaml_version, git_rev},
      "rows": [{layer, workload, n_harm, ns_per_pt, bytes_per_pt}]}

   A layer is the API rung timed (`to_matrix`, `plan.baseband`, ...), a
   workload the loop it runs on (ti: sampling PFD and time-invariant
   VCO; isf: the same behind an ISF VCO; mix: mixing PFD). Ratios
   between rows (speedups, allocation ratios) are printed, not stored. The paper's figures are printed by
   `pllscope fig <id>`; the end-to-end and per-layer metrics above these
   rungs are pllbench's (BENCHMARK.json). *)

open Bechamel
open Toolkit

let spec = Pll_lib.Design.default_spec
let pll = Pll_lib.Design.synthesize spec
let w0 = Pll_lib.Pll.omega0 pll

(* -- one row type, one timer, one allocation counter, one writer -- *)

type row = {
  layer : string;
  workload : string;
  n_harm : int option;  (** [None] for a rung that does not truncate *)
  ns_per_pt : float;
  bytes_per_pt : float;
}

(* ns per call of [f]: the best of 3 batches, each repeated until it
   runs at least 50 ms, after one warm-up call and a full major
   collection, so a row does not pay for the garbage of the rows before
   it and rows whose calls reach the major heap compare run to run *)
let time_ns f =
  ignore (f ());
  Gc.full_major ();
  let reps = ref 1 in
  let batch () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to !reps do
      ignore (f ())
    done;
    Unix.gettimeofday () -. t0
  in
  let dt = ref (batch ()) in
  while !dt < 0.05 && !reps < 1_000_000 do
    reps := !reps * 4;
    dt := batch ()
  done;
  let best = ref !dt in
  for _ = 2 to 3 do
    best := Float.min !best (batch ())
  done;
  !best /. float_of_int !reps *. 1e9

(* bytes allocated per call of [f]; the allocation counters trail the
   minor heap until it is collected, so both readings follow a minor
   collection *)
let bytes_per_call ?(reps = 10) f =
  ignore (f ());
  Gc.minor ();
  let b0 = Gc.allocated_bytes () in
  for _ = 1 to reps do
    ignore (f ())
  done;
  Gc.minor ();
  (Gc.allocated_bytes () -. b0) /. float_of_int reps

(* a row for [f], which evaluates [points] points per call *)
let measure ?(points = 1) ?reps ~layer ~workload ?n_harm f =
  let per = float_of_int points in
  let r =
    {
      layer;
      workload;
      n_harm;
      ns_per_pt = time_ns f /. per;
      bytes_per_pt = bytes_per_call ?reps f /. per;
    }
  in
  Format.printf "  %-20s %-4s n_harm %3s %13.1f ns/pt %13.1f B/pt@." layer workload
    (match n_harm with Some n -> string_of_int n | None -> "-")
    r.ns_per_pt r.bytes_per_pt;
  r

let ratio what num den =
  Format.printf "    %s: %.2fx time, %.2fx allocation@." what
    (num.ns_per_pt /. den.ns_per_pt)
    (num.bytes_per_pt /. Float.max 1.0 den.bytes_per_pt)

let git_rev () =
  if not (Sys.file_exists ".git") then "none"
  else
    match Unix.open_process_args_in "git" [| "git"; "rev-parse"; "HEAD" |] with
    | exception Unix.Unix_error _ -> "none"
    | ic ->
        let rev = try String.trim (input_line ic) with End_of_file -> "none" in
        ignore (Unix.close_process_in ic);
        rev

let write_record file rows =
  let module Json = Util.Json in
  let row r =
    Json.obj
      [
        ("layer", Json.str r.layer);
        ("workload", Json.str r.workload);
        ("n_harm", match r.n_harm with Some n -> Json.int n | None -> "null");
        ("ns_per_pt", Json.num r.ns_per_pt);
        ("bytes_per_pt", Json.num r.bytes_per_pt);
      ]
  in
  let host =
    Json.obj
      [
        ("nproc", Json.int (Util.nproc ()));
        ("recommended_domain_count", Json.int (Domain.recommended_domain_count ()));
        ("ocaml_version", Json.str Sys.ocaml_version);
        ("git_rev", Json.str (git_rev ()));
      ]
  in
  Runner.Atomic_file.write_string file
    (Json.obj [ ("host", host); ("rows", Json.arr (List.map row rows)) ] ^ "\n");
  Format.printf "wrote %s@." file

let s = Numeric.Cx.jomega (0.2 *. w0)
let cl = Pll_lib.Pll.closed_loop_htm pll

(* the same loop under a new root node: a tree the plan memo has never
   seen, at the cost of one allocation *)
let cold = function
  | Htm_core.Htm_expr.Feedback g -> Htm_core.Htm.feedback g
  | _ -> invalid_arg "Main.cold: not a closed loop"

(* -- kernels: one-point realization at s = j·0.2ω₀ ----------------- *)

let kernel_bench () =
  Format.printf
    "@.== HTM kernels: dense oracle, compile, memo-held and cold queries, compiled exact λ ==@.";
  let one_point workload loop ~baseband n_harm =
    let ctx = Htm_core.Htm.ctx ~n_harm ~omega0:w0 in
    let m layer f = measure ~layer ~workload ~n_harm f in
    let dense = m "to_matrix_dense" (fun () -> Htm_core.Htm.to_matrix_dense ctx loop s) in
    let make = m "plan.make" (fun () -> Htm_core.Plan.make ctx loop) in
    let held = m "to_matrix" (fun () -> Htm_core.Htm.to_matrix ctx loop s) in
    let held_cold = m "to_matrix.cold" (fun () -> Htm_core.Htm.to_matrix ctx (cold loop) s) in
    let elt = m "element" (fun () -> Htm_core.Htm.element ctx loop ~n:0 ~m:0 s) in
    let elt_cold =
      m "element.cold" (fun () -> Htm_core.Htm.element ctx (cold loop) ~n:0 ~m:0 s)
    in
    ratio "dense / to_matrix" dense held;
    ratio "to_matrix.cold / to_matrix (memo miss / hit)" held_cold held;
    ratio "element.cold / element (memo miss / hit)" elt_cold elt;
    ratio "plan.make / element" make elt;
    (* a banded loop's baseband eliminates for its one entry *)
    let h00 =
      if baseband then
        [ m "baseband" (fun () -> Htm_core.Htm.baseband ctx loop (0.2 *. w0)) ]
      else []
    in
    [ dense; make; held; held_cold; elt; elt_cold ] @ h00
  in
  let ti = List.concat_map (one_point "ti" cl ~baseband:false) [ 10; 20; 40; 80 ] in
  let mix_pll =
    Pll_lib.Pll.make ~fref:spec.fref ~n_div:spec.n_div ~filter:pll.Pll_lib.Pll.filter
      ~vco:pll.Pll_lib.Pll.vco ~pfd:(Pll_lib.Pfd.mixing ~gain:1.0) ()
  in
  let mix =
    List.concat_map
      (one_point "mix" (Pll_lib.Pll.closed_loop_htm mix_pll) ~baseband:true)
      [ 10; 20; 40; 80 ]
  in
  (* Plan.baseband on a plan compiled outside the timed call *)
  let planned workload p =
    List.map
      (fun n_harm ->
        let plan = Pll_lib.Pll.closed_loop_plan (Htm_core.Htm.ctx ~n_harm ~omega0:w0) p in
        measure ~layer:"plan.baseband" ~workload ~n_harm (fun () ->
            Htm_core.Plan.baseband plan s))
      [ 10; 20; 40; 80 ]
  in
  (* a mixing loop's baseband point realizes every row of its banded
     open loop, then eliminates for the one entry *)
  let mix_planned = planned "mix" mix_pll in
  (* In a compiled plan an exact-λ baseband point is λ(s) plus the leaf
     rows that feed row 0 — two behind a time-invariant VCO, ±K behind
     an ISF VCO with K harmonics — whatever n_harm is. *)
  let exact_lambda workload p =
    let lam = Pll_lib.Pll.lambda_fn p Pll_lib.Pll.Exact in
    measure ~layer:"lambda" ~workload (fun () -> lam s) :: planned workload p
  in
  let isf_pll =
    Pll_lib.Pll.make ~fref:spec.fref ~n_div:spec.n_div ~filter:pll.Pll_lib.Pll.filter
      ~vco:
        (Pll_lib.Vco.with_isf ~kvco:spec.kvco ~n_div:spec.n_div ~fref:spec.fref
           ~harmonics:[ Numeric.Cx.of_float 0.3; Numeric.Cx.make 0.05 (-0.04) ])
      ()
  in
  let exact_ti = exact_lambda "ti" pll in
  let exact_isf = exact_lambda "isf" isf_pll in
  (* read before the fallback rows, which fall back on purpose *)
  let fallbacks = (Robust.Stats.snapshot ()).Robust.Stats.dense_fallbacks in
  (* A point whose plan faults: Plan.baseband with grid-plan-nan firing
     at every point, armed around these rows only. What it costs is the
     plan's evaluation plus the demanded part of the dense oracle: one
     row of the open loop behind a sampling PFD, one column of the
     closed loop behind a mixing PFD. *)
  let fallback workload p =
    List.map
      (fun n_harm ->
        let plan = Pll_lib.Pll.closed_loop_plan (Htm_core.Htm.ctx ~n_harm ~omega0:w0) p in
        Robust.Inject.configure "grid-plan-nan:*";
        Fun.protect ~finally:Robust.Inject.disarm (fun () ->
            measure ~layer:"fallback" ~workload ~n_harm (fun () ->
                Htm_core.Plan.baseband plan s)))
      [ 10; 20; 40; 80 ]
  in
  let faulted =
    List.concat_map
      (fun (w, p) -> fallback w p)
      [ ("ti", pll); ("isf", isf_pll); ("mix", mix_pll) ]
  in
  write_record "BENCH_kernels.json"
    (ti @ mix @ mix_planned @ exact_ti @ exact_isf @ faulted);
  if fallbacks > 0 then begin
    Format.eprintf "kernels: %d dense fallback(s) during the benchmark@." fallbacks;
    exit 1
  end

(* -- grid: 1000-point log grids, Htm queries per point vs one plan - *)

let grid_bench () =
  Format.printf "@.== HTM grid: one compiled plan vs Htm queries per point, memo-held and cold ==@.";
  let points = 1000 in
  let ss =
    Array.map Numeric.Cx.jomega (Numeric.Optimize.logspace (w0 *. 1e-4) (w0 *. 0.49) points)
  in
  let rows =
    List.concat_map
      (fun n_harm ->
        let ctx = Htm_core.Htm.ctx ~n_harm ~omega0:w0 in
        let plan = Htm_core.Plan.make ctx cl in
        let i0 = Htm_core.Htm.index_of_harmonic ctx 0 in
        (* both paths run guarded, as in production sweeps; one call
           is a whole grid, so the allocation reading takes one *)
        let grid layer f = measure ~points ~reps:1 ~layer ~workload:"ti" ~n_harm f in
        let to_matrix =
          grid "to_matrix" (fun () ->
              Array.iter
                (fun s -> ignore (Numeric.Cmat.get (Htm_core.Htm.to_matrix ctx cl s) i0 i0))
                ss)
        in
        let to_matrix_cold =
          grid "to_matrix.cold" (fun () ->
              Array.iter
                (fun s -> ignore (Numeric.Cmat.get (Htm_core.Htm.to_matrix ctx (cold cl) s) i0 i0))
                ss)
        in
        let element =
          grid "element" (fun () ->
              Array.iter (fun s -> ignore (Htm_core.Htm.element ctx cl ~n:0 ~m:0 s)) ss)
        in
        let element_cold =
          grid "element.cold" (fun () ->
              Array.iter (fun s -> ignore (Htm_core.Htm.element ctx (cold cl) ~n:0 ~m:0 s)) ss)
        in
        let planned =
          grid "plan.eval" (fun () ->
              Array.iter
                (fun s -> ignore (Htm_core.Smat.get (Htm_core.Plan.eval plan s) i0 i0))
                ss)
        in
        ratio "to_matrix / plan.eval" to_matrix planned;
        ratio "to_matrix.cold / to_matrix (memo miss / hit)" to_matrix_cold to_matrix;
        ratio "element / plan.eval" element planned;
        ratio "element.cold / element (memo miss / hit)" element_cold element;
        [ to_matrix; to_matrix_cold; element; element_cold; planned ])
      [ 8; 20; 80 ]
  in
  write_record "BENCH_grid.json" rows

(* -- the Bechamel suite: one test per figure's kernel -------------- *)

let bench_tests =
  let ctx = Htm_core.Htm.ctx ~n_harm:20 ~omega0:w0 in
  let h00 truncation = Pll_lib.Pll.h00_fn pll truncation in
  let exact = h00 Pll_lib.Pll.Exact and truncated = h00 (Pll_lib.Pll.Truncated 500) in
  let lam = Pll_lib.Pll.lambda_fn pll Pll_lib.Pll.Exact in
  let sim = Sim.Behavioral.default_config pll in
  let t name f = Test.make ~name (Staged.stage f) in
  [
    t "fig2: conversion map (rank-one closed form, N=20)" (fun () ->
        ignore (Pll_lib.Pll.closed_loop_rank_one ctx pll s));
    t "fig2: conversion map (generic LU feedback, N=20)" (fun () ->
        ignore (Htm_core.Htm.to_matrix ctx cl s));
    t "fig4: pulse-vs-impulse sweep (8 widths, expm steps)" (fun () ->
        ignore (Experiments.Exp_fig4.compute ~spec ()));
    t "fig5: open-loop Bode sweep (33 points)" (fun () ->
        ignore (Experiments.Exp_fig5.compute ~spec ()));
    t "fig6: closed-form H00 point (exact lambda)" (fun () ->
        ignore (exact (Numeric.Cx.jomega (0.13 *. w0))));
    t "fig6: truncated-lambda H00 point (500 terms)" (fun () ->
        ignore (truncated (Numeric.Cx.jomega (0.13 *. w0))));
    (* the "minutes" side of the paper's runtime comparison *)
    t "fig6: time-marching H00 point (short window)" (fun () ->
        ignore
          (Sim.Extract.measure_h00 pll ~harmonic:3 ~window_periods:16 ~warmup_periods:32
             ~steps_per_period:48 ()));
    t "fig7: effective-loop margin analysis (one ratio)" (fun () ->
        ignore (Pll_lib.Analysis.effective_report pll));
    t "xchk: exact discrete model construction (expm)" (fun () ->
        ignore (Pll_lib.Zmodel.of_pll pll));
    t "kernel: lambda(s) exact (coth lattice sums)" (fun () ->
        ignore (lam (Numeric.Cx.jomega (0.3 *. w0))));
    t "kernel: behavioral simulation (10 periods)" (fun () ->
        ignore
          (Sim.Behavioral.run sim Sim.Behavioral.quiet ~t_end:(10.0 *. Pll_lib.Pll.period pll)));
  ]

(* the per-run OLS estimate of each kernel *)
let run_benchmarks () =
  Format.printf "@.== Bechamel micro-benchmarks (one per figure) ==@.";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"pllscope" bench_tests) in
  let results = Analyze.merge ols instances (List.map (fun i -> Analyze.all ols i raw) instances) in
  Hashtbl.iter
    (fun _instance tbl ->
      Hashtbl.fold (fun name result acc -> (name, result) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      |> List.iter (fun (name, result) ->
             match Analyze.OLS.estimates result with
             | Some [ est ] -> Format.printf "%-60s %12.1f ns/run@." name est
             | _ -> Format.printf "%-60s (no estimate)@." name))
    results

let () =
  match Sys.argv with
  | [| _; "kernels" |] -> kernel_bench ()
  | [| _; "grid" |] -> grid_bench ()
  | [| _; "bench" |] -> run_benchmarks ()
  | _ ->
      prerr_endline "usage: main.exe kernels|grid|bench";
      exit 1
