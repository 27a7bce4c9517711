(* Benchmark + reproduction harness.

   Running `dune exec bench/main.exe` does two things:

   1. regenerates every evaluation artifact of the paper (Figs. 2, 4, 5,
      6, 7, the runtime claim, and our cross-validation experiment),
      printing the rows each figure plots;
   2. runs a Bechamel micro-benchmark suite with one [Test.make] per
      figure, timing the computational kernel behind it.

   Pass an experiment id (2|4|5|6|7|perf|xchk|ablation|isf|nonideal|pfd|noise|fractional) to print only that
   experiment; pass `bench` to run only the micro-benchmarks. *)

open Bechamel
open Toolkit

let spec = Pll_lib.Design.default_spec
let pll = Pll_lib.Design.synthesize spec
let w0 = Pll_lib.Pll.omega0 pll

(* one Bechamel test per table/figure: the kernel that produces it *)

let bench_fig2 =
  (* FIG2 kernel: realize the closed-loop conversion map *)
  let ctx = Htm_core.Htm.ctx ~n_harm:20 ~omega0:w0 in
  Test.make ~name:"fig2: conversion map (rank-one closed form, N=20)"
    (Staged.stage (fun () ->
         ignore
           (Pll_lib.Pll.closed_loop_rank_one ctx pll
              (Numeric.Cx.jomega (0.2 *. w0)))))

let bench_fig2_generic =
  let ctx = Htm_core.Htm.ctx ~n_harm:20 ~omega0:w0 in
  let cl = Pll_lib.Pll.closed_loop_htm pll in
  Test.make ~name:"fig2: conversion map (generic LU feedback, N=20)"
    (Staged.stage (fun () ->
         ignore (Htm_core.Htm.to_matrix ctx cl (Numeric.Cx.jomega (0.2 *. w0)))))

let bench_fig4 =
  Test.make ~name:"fig4: pulse-vs-impulse sweep (8 widths, expm steps)"
    (Staged.stage (fun () -> ignore (Experiments.Exp_fig4.compute ~spec ())))

let bench_fig5 =
  Test.make ~name:"fig5: open-loop Bode sweep (33 points)"
    (Staged.stage (fun () -> ignore (Experiments.Exp_fig5.compute ~spec ())))

let bench_fig6_closed_form =
  (* FIG6 kernel (solid lines): one closed-form |H00| evaluation *)
  let h00 = Pll_lib.Pll.h00_fn pll Pll_lib.Pll.Exact in
  Test.make ~name:"fig6: closed-form H00 point (exact lambda)"
    (Staged.stage (fun () -> ignore (h00 (Numeric.Cx.jomega (0.13 *. w0)))))

let bench_fig6_truncated =
  let h00 = Pll_lib.Pll.h00_fn pll (Pll_lib.Pll.Truncated 500) in
  Test.make ~name:"fig6: truncated-lambda H00 point (500 terms)"
    (Staged.stage (fun () -> ignore (h00 (Numeric.Cx.jomega (0.13 *. w0)))))

let bench_fig6_simulation =
  (* FIG6 kernel (marks): one time-marching measurement; this is the
     "minutes" side of the paper's runtime comparison *)
  Test.make ~name:"fig6: time-marching H00 point (short window)"
    (Staged.stage (fun () ->
         ignore
           (Sim.Extract.measure_h00 pll ~harmonic:3 ~window_periods:16
              ~warmup_periods:32 ~steps_per_period:48 ())))

let bench_fig7 =
  (* FIG7 kernel: one ratio point = margin analysis of lambda *)
  Test.make ~name:"fig7: effective-loop margin analysis (one ratio)"
    (Staged.stage (fun () -> ignore (Pll_lib.Analysis.effective_report pll)))

let bench_xchk_zmodel =
  Test.make ~name:"xchk: exact discrete model construction (expm)"
    (Staged.stage (fun () -> ignore (Pll_lib.Zmodel.of_pll pll)))

let bench_lambda_exact =
  let lam = Pll_lib.Pll.lambda_fn pll Pll_lib.Pll.Exact in
  Test.make ~name:"kernel: lambda(s) exact (coth lattice sums)"
    (Staged.stage (fun () -> ignore (lam (Numeric.Cx.jomega (0.3 *. w0)))))

(* -- parallel sweep engine: sequential vs Domain pools ------------- *)

(* a denser width grid than Exp_fig4's default, so the sweep has enough
   independent matrix exponentials to distribute *)
let parallel_bench_widths =
  Array.to_list (Numeric.Optimize.logspace 1e-4 3e-1 64)

(* pools are created on first use and reused across benchmark
   iterations — spawning domains is part of pool setup, not of a map *)
let pool_table : (int, Parallel.Pool.t) Hashtbl.t = Hashtbl.create 4

let pool_of_size n =
  match Hashtbl.find_opt pool_table n with
  | Some p -> p
  | None ->
      let p = Parallel.Pool.create ~domains:n () in
      Hashtbl.add pool_table n p;
      p

let parallel_pool_sizes =
  List.sort_uniq compare [ 1; 2; 4; Parallel.Pool.default_domains () ]

let fig4_sweep pool =
  Experiments.Exp_fig4.compute ~spec ~widths:parallel_bench_widths ?pool ()

let bench_parallel_tests =
  Test.make ~name:"parallel: fig4 sweep (sequential, no pool involved)"
    (Staged.stage (fun () ->
         ignore (Parallel.Pool.with_pool ~domains:1 (fun p -> fig4_sweep (Some p)))))
  :: List.map
       (fun n ->
         Test.make
           ~name:(Printf.sprintf "parallel: fig4 sweep (pool, %d domains)" n)
           (Staged.stage (fun () -> ignore (fig4_sweep (Some (pool_of_size n))))))
       parallel_pool_sizes

(* Wall-clock comparison with a bit-identity check, emitted as
   machine-readable JSON (BENCH_parallel.json) for CI tracking. *)
let run_parallel_bench () =
  Format.printf "@.== Parallel sweep engine: sequential vs Domain pool ==@.";
  let time_best f =
    let best = ref infinity in
    let result = ref None in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      let r = f () in
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt;
      result := Some r
    done;
    (!best, Option.get !result)
  in
  let runs =
    List.map
      (fun n ->
        let pool = pool_of_size n in
        Parallel.Pool.reset_stats pool;
        let seconds, rows = time_best (fun () -> fig4_sweep (Some pool)) in
        (n, seconds, rows, Parallel.Pool.stats pool))
      parallel_pool_sizes
  in
  let _, seq_seconds, seq_rows, _ = List.find (fun (n, _, _, _) -> n = 1) runs in
  let bit_identical =
    List.for_all (fun (_, _, rows, _) -> compare rows seq_rows = 0) runs
  in
  Format.printf "fig4 sweep over %d widths, best of 3 runs:@."
    (List.length parallel_bench_widths);
  List.iter
    (fun (n, seconds, _, st) ->
      Format.printf
        "  %d domain(s): %8.4f s  (%.2fx vs 1 domain; measured lane speedup %.2fx)@."
        n seconds (seq_seconds /. seconds)
        (Parallel.Pool.speedup st))
    runs;
  Format.printf "bit-identical outputs across pool sizes: %b@." bit_identical;
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"benchmark\": \"exp_fig4 pulse-vs-impulse sweep\",\n";
  Buffer.add_string b
    (Printf.sprintf "  \"widths\": %d,\n" (List.length parallel_bench_widths));
  Buffer.add_string b
    (Printf.sprintf "  \"recommended_domain_count\": %d,\n"
       (Domain.recommended_domain_count ()));
  Buffer.add_string b
    (Printf.sprintf "  \"pllscope_domains_env\": %s,\n"
       (match Sys.getenv_opt "PLLSCOPE_DOMAINS" with
       | Some v -> Printf.sprintf "\"%s\"" (String.escaped v)
       | None -> "null"));
  Buffer.add_string b "  \"runs\": [\n";
  List.iteri
    (fun i (n, seconds, _, st) ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"domains\": %d, \"seconds\": %.6f, \"speedup_vs_sequential\": \
            %.4f, \"lane_speedup\": %.4f}%s\n"
           n seconds (seq_seconds /. seconds)
           (Parallel.Pool.speedup st)
           (if i = List.length runs - 1 then "" else ",")))
    runs;
  Buffer.add_string b "  ],\n";
  Buffer.add_string b
    (Printf.sprintf "  \"bit_identical\": %b\n" bit_identical);
  Buffer.add_string b "}\n";
  Runner.Atomic_file.write_string "BENCH_parallel.json" (Buffer.contents b);
  Format.printf "wrote BENCH_parallel.json@."

(* One-point plan vs dense HTM kernels: times Htm.to_matrix (a
   one-point Plan over Smat shapes, Sherman–Morrison feedback) against
   Htm.to_matrix_dense (boxed Cmat products + dense LU) on the
   closed-loop HTM, and compares per-eval allocation; then the same for
   a mixing-PFD loop (banded LU feedback), adding the one-point
   Htm.baseband that solves one column, and the compiled exact-λ loop's
   baseband entry. Emitted as BENCH_kernels.json
   for CI tracking (the "structured_*" keys are the one-point plan
   side, "mixing_runs" the banded-LU rows, "exact_lambda_runs" the
   compiled exact-λ loop's Plan.baseband per point, with λ alone in
   "exact_lambda_alone", and "exact_lambda_isf_runs" /
   "exact_lambda_isf_alone" the same behind an ISF VCO). *)
let run_kernel_bench () =
  Format.printf "@.== HTM kernels: one-point plan (Smat) vs dense evaluation ==@.";
  let s = Numeric.Cx.jomega (0.2 *. w0) in
  let cl = Pll_lib.Pll.closed_loop_htm pll in
  (* ns/op as best-of-3 over a rep count sized to ~>=50 ms per batch *)
  let time_ns f =
    ignore (f ());
    (* warmup *)
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
    for _ = 1 to 2 do
      let d = batch () in
      if d < !best then best := d
    done;
    !best /. float_of_int !reps *. 1e9
  in
  (* the allocation counters trail the minor heap until it is
     collected, so both readings follow a minor collection *)
  let bytes_per_eval f =
    ignore (f ());
    let reps = 10 in
    Gc.minor ();
    let b0 = Gc.allocated_bytes () in
    for _ = 1 to reps do
      ignore (f ())
    done;
    Gc.minor ();
    (Gc.allocated_bytes () -. b0) /. float_of_int reps
  in
  let rows =
    List.map
      (fun n_harm ->
        let ctx = Htm_core.Htm.ctx ~n_harm ~omega0:w0 in
        let dense () = Htm_core.Htm.to_matrix_dense ctx cl s in
        let one_point () = Htm_core.Htm.to_matrix ctx cl s in
        let dense_ns = time_ns dense and struct_ns = time_ns one_point in
        let dense_b = bytes_per_eval dense
        and struct_b = bytes_per_eval one_point in
        Format.printf
          "  n_harm %3d (dim %3d): dense %10.0f ns  one-point plan %9.0f ns  \
           (%.1fx); alloc %9.3e B -> %9.3e B (%.1fx)@."
          n_harm (Htm_core.Htm.dim ctx) dense_ns struct_ns
          (dense_ns /. struct_ns) dense_b struct_b (dense_b /. struct_b);
        (n_harm, Htm_core.Htm.dim ctx, dense_ns, struct_ns, dense_b, struct_b))
      [ 10; 20; 40; 80 ]
  in
  (* A loop closed around a banded open loop (mixing PFD, band 1): its
     root is a banded LU, which a full realization ([to_matrix]) solves
     for every column and [baseband] for column 0 alone. *)
  Format.printf "  mixing-PFD loop (banded LU feedback):@.";
  let mix =
    Pll_lib.Pll.make ~fref:spec.fref ~n_div:spec.n_div
      ~filter:pll.Pll_lib.Pll.filter ~vco:pll.Pll_lib.Pll.vco
      ~pfd:(Pll_lib.Pfd.mixing ~gain:1.0) ()
  in
  let mix_cl = Pll_lib.Pll.closed_loop_htm mix in
  let mix_rows =
    List.map
      (fun n_harm ->
        let ctx = Htm_core.Htm.ctx ~n_harm ~omega0:w0 in
        let dense () = Htm_core.Htm.to_matrix_dense ctx mix_cl s in
        let full () = Htm_core.Htm.to_matrix ctx mix_cl s in
        let h00 () = Htm_core.Htm.baseband ctx mix_cl (0.2 *. w0) in
        let us f = time_ns f /. 1e3 in
        let dense_us = us dense and full_us = us full and h00_us = us h00 in
        let dense_b = bytes_per_eval dense
        and full_b = bytes_per_eval full
        and h00_b = bytes_per_eval h00 in
        Format.printf
          "  n_harm %3d: dense %9.1f us  to_matrix %8.1f us  baseband %7.1f \
           us; alloc %9.3e / %9.3e / %9.3e B@."
          n_harm dense_us full_us h00_us dense_b full_b h00_b;
        (n_harm, Htm_core.Htm.dim ctx, dense_us, full_us, h00_us, dense_b, full_b, h00_b))
      [ 10; 20; 40; 80 ]
  in
  (* The exact-λ loops in a compiled plan: [Plan.baseband] demands one
     entry, so a point is λ(s) plus the leaf rows that feed row 0 — two
     behind a time-invariant VCO, ±K behind an ISF VCO with K
     harmonics — whatever n_harm is; λ alone is timed for scale. *)
  let exact_lambda_rung what p =
    Format.printf "  exact-λ loop, %s (compiled plan, Plan.baseband per point):@." what;
    let lam = Pll_lib.Pll.lambda_fn p Pll_lib.Pll.Exact in
    let lambda_us = time_ns (fun () -> lam s) /. 1e3
    and lambda_b = bytes_per_eval (fun () -> lam s) in
    Format.printf "  λ(s) alone: %7.3f us; alloc %9.3e B@." lambda_us lambda_b;
    let rows =
      List.map
        (fun n_harm ->
          let ctx = Htm_core.Htm.ctx ~n_harm ~omega0:w0 in
          let plan = Pll_lib.Pll.closed_loop_plan ctx p in
          let h00 () = Htm_core.Plan.baseband plan s in
          let h00_us = time_ns h00 /. 1e3 and h00_b = bytes_per_eval h00 in
          Format.printf "  n_harm %3d: baseband %7.3f us; alloc %9.3e B@." n_harm
            h00_us h00_b;
          (n_harm, Htm_core.Htm.dim ctx, h00_us, h00_b))
        [ 10; 20; 40; 80 ]
    in
    (rows, lambda_us, lambda_b)
  in
  let exact_rows, lambda_us, lambda_b = exact_lambda_rung "time-invariant VCO" pll in
  let isf_rows, isf_lambda_us, isf_lambda_b =
    exact_lambda_rung "ISF VCO, K = 2"
      (Pll_lib.Pll.make ~fref:spec.fref ~n_div:spec.n_div
         ~filter:pll.Pll_lib.Pll.filter
         ~vco:
           (Pll_lib.Vco.with_isf ~kvco:spec.kvco ~n_div:spec.n_div ~fref:spec.fref
              ~harmonics:[ Numeric.Cx.of_float 0.3; Numeric.Cx.make 0.05 (-0.04) ])
         ())
  in
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    "  \"benchmark\": \"closed-loop HTM realization: one-point plan vs \
     dense\",\n";
  Buffer.add_string b "  \"s_over_omega0\": 0.2,\n";
  Buffer.add_string b "  \"runs\": [\n";
  List.iteri
    (fun i (n_harm, dim, dense_ns, struct_ns, dense_b, struct_b) ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"n_harm\": %d, \"dim\": %d, \"dense_ns\": %.1f, \
            \"structured_ns\": %.1f, \"speedup\": %.2f, \"dense_bytes\": \
            %.1f, \"structured_bytes\": %.1f, \"alloc_ratio\": %.2f}%s\n"
           n_harm dim dense_ns struct_ns (dense_ns /. struct_ns) dense_b
           struct_b (dense_b /. struct_b)
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string b "  ],\n";
  Buffer.add_string b "  \"mixing_runs\": [\n";
  List.iteri
    (fun i (n_harm, dim, dense_us, full_us, h00_us, dense_b, full_b, h00_b) ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"n_harm\": %d, \"dim\": %d, \"dense_us\": %.2f, \
            \"to_matrix_us\": %.2f, \"baseband_us\": %.2f, \"dense_bytes\": \
            %.1f, \"to_matrix_bytes\": %.1f, \"baseband_bytes\": %.1f}%s\n"
           n_harm dim dense_us full_us h00_us dense_b full_b h00_b
           (if i = List.length mix_rows - 1 then "" else ",")))
    mix_rows;
  Buffer.add_string b "  ],\n";
  let add_exact key rows alone_key lambda_us lambda_b ~last =
    Buffer.add_string b (Printf.sprintf "  \"%s\": [\n" key);
    List.iteri
      (fun i (n_harm, dim, h00_us, h00_b) ->
        Buffer.add_string b
          (Printf.sprintf
             "    {\"n_harm\": %d, \"dim\": %d, \"baseband_us\": %.3f, \
              \"baseband_bytes\": %.1f}%s\n"
             n_harm dim h00_us h00_b
             (if i = List.length rows - 1 then "" else ",")))
      rows;
    Buffer.add_string b "  ],\n";
    Buffer.add_string b
      (Printf.sprintf
         "  \"%s\": {\"lambda_us\": %.3f, \"lambda_bytes\": %.1f}%s\n"
         alone_key lambda_us lambda_b
         (if last then "" else ","))
  in
  add_exact "exact_lambda_runs" exact_rows "exact_lambda_alone" lambda_us lambda_b
    ~last:false;
  add_exact "exact_lambda_isf_runs" isf_rows "exact_lambda_isf_alone" isf_lambda_us
    isf_lambda_b ~last:true;
  Buffer.add_string b "}\n";
  Runner.Atomic_file.write_string "BENCH_kernels.json" (Buffer.contents b);
  Format.printf "wrote BENCH_kernels.json@."

(* Grid-batched plan/execute vs one-point plans: one compiled
   Htm_core.Plan streamed over a 1k-point log grid against a one-point
   plan per point (Htm.to_matrix), which recompiles the composition
   tree, reallocates every container and densifies at the API boundary
   at each point. Both paths run guarded, as in production sweeps. Also
   reported: the scalar fast paths on each side (one-point Htm.element
   vs planned baseband extraction, neither densifies) and the planned
   full-matrix Bigarray grid output. Emitted as BENCH_grid.json for CI
   tracking (the "per_point_*" keys are the one-point plan side). *)
let run_grid_bench () =
  Format.printf
    "@.== HTM grid: planned (plan/execute) vs one-point plan evaluation ==@.";
  let cl = Pll_lib.Pll.closed_loop_htm pll in
  let points = 1000 in
  let ss =
    Array.map Numeric.Cx.jomega
      (Numeric.Optimize.logspace (w0 *. 1e-4) (w0 *. 0.49) points)
  in
  (* seconds per whole-grid run, best-of-3 over a rep count sized to
     >= 50 ms per batch *)
  let time_grid f =
    ignore (f ());
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
    for _ = 1 to 2 do
      let d = batch () in
      if d < !best then best := d
    done;
    !best /. float_of_int !reps
  in
  let bytes_per_point f =
    ignore (f ());
    let b0 = Gc.allocated_bytes () in
    ignore (f ());
    (Gc.allocated_bytes () -. b0) /. float_of_int points
  in
  let rows =
    List.map
      (fun n_harm ->
        let ctx = Htm_core.Htm.ctx ~n_harm ~omega0:w0 in
        let plan = Htm_core.Plan.make ctx cl in
        let sink = ref Numeric.Cx.zero in
        let i0 = Htm_core.Htm.index_of_harmonic ctx 0 in
        let per_point () =
          Array.iter
            (fun s ->
              sink := Numeric.Cmat.get (Htm_core.Htm.to_matrix ctx cl s) i0 i0)
            ss
        in
        let per_point_elt () =
          Array.iter (fun s -> sink := Htm_core.Htm.element ctx cl ~n:0 ~m:0 s) ss
        in
        let planned () =
          ignore
            (Htm_core.Plan.run_grid_map plan (fun _ m -> Htm_core.Smat.get m i0 i0)
               ss)
        in
        let planned_ba () = ignore (Htm_core.Plan.run_grid_ba plan ss) in
        let pp_t = time_grid per_point
        and pe_t = time_grid per_point_elt
        and pl_t = time_grid planned
        and ba_t = time_grid planned_ba in
        let pp_b = bytes_per_point per_point
        and pe_b = bytes_per_point per_point_elt
        and pl_b = bytes_per_point planned in
        ignore !sink;
        let pps t = float_of_int points /. t in
        Format.printf
          "  n_harm %3d (dim %3d): to_matrix %8.0f pt/s  planned %8.0f pt/s \
           (%.1fx)  element %8.0f pt/s (planned %.1fx)  planned-ba %8.0f \
           pt/s; alloc/pt %9.3e B -> %9.3e B (%.0fx)@."
          n_harm (Htm_core.Htm.dim ctx) (pps pp_t) (pps pl_t) (pp_t /. pl_t)
          (pps pe_t) (pe_t /. pl_t) (pps ba_t) pp_b pl_b
          (pp_b /. Stdlib.max 1.0 pl_b);
        (n_harm, Htm_core.Htm.dim ctx, pp_t, pe_t, pl_t, ba_t, pp_b, pe_b, pl_b))
      [ 8; 20; 80 ]
  in
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    "  \"benchmark\": \"closed-loop HTM grid: planned plan/execute vs \
     one-point plan\",\n";
  Buffer.add_string b (Printf.sprintf "  \"grid_points\": %d,\n" points);
  Buffer.add_string b "  \"runs\": [\n";
  List.iteri
    (fun i (n_harm, dim, pp_t, pe_t, pl_t, ba_t, pp_b, pe_b, pl_b) ->
      let pps t = float_of_int points /. t in
      Buffer.add_string b
        (Printf.sprintf
           "    {\"n_harm\": %d, \"dim\": %d, \"per_point_pts_per_s\": %.1f, \
            \"per_point_element_pts_per_s\": %.1f, \"planned_pts_per_s\": \
            %.1f, \"planned_ba_pts_per_s\": %.1f, \"speedup\": %.2f, \
            \"element_speedup\": %.2f, \"per_point_bytes_per_pt\": %.1f, \
            \"per_point_element_bytes_per_pt\": %.1f, \
            \"planned_bytes_per_pt\": %.1f, \"alloc_ratio\": %.2f}%s\n"
           n_harm dim (pps pp_t) (pps pe_t) (pps pl_t) (pps ba_t)
           (pp_t /. pl_t) (pe_t /. pl_t) pp_b pe_b pl_b
           (pp_b /. Stdlib.max 1.0 pl_b)
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string b "  ]\n";
  Buffer.add_string b "}\n";
  Runner.Atomic_file.write_string "BENCH_grid.json" (Buffer.contents b);
  Format.printf "wrote BENCH_grid.json@."

(* Robustness-guard overhead: times the guarded one-point plan
   (condition estimates + finiteness scans, the default) against the
   same evaluator with Robust.Config guards disabled, with fault
   injection disarmed — i.e. the price every production run pays for
   the safety net. Emitted as BENCH_robust.json for CI tracking; the
   acceptance bar is < 5% overhead. *)
let run_robust_bench () =
  Format.printf "@.== Robustness guards: guarded vs unguarded evaluation ==@.";
  let s = Numeric.Cx.jomega (0.2 *. w0) in
  let cl = Pll_lib.Pll.closed_loop_htm pll in
  (* longer batches and more trials than the kernel bench: the two
     sides differ by a few percent at most, so the comparison needs
     tighter timing than a raw throughput number does *)
  let time_ns f =
    ignore (f ());
    let reps = ref 1 in
    let batch () =
      let t0 = Unix.gettimeofday () in
      for _ = 1 to !reps do
        ignore (f ())
      done;
      Unix.gettimeofday () -. t0
    in
    let dt = ref (batch ()) in
    while !dt < 0.1 && !reps < 1_000_000 do
      reps := !reps * 4;
      dt := batch ()
    done;
    let best = ref !dt in
    for _ = 1 to 4 do
      let d = batch () in
      if d < !best then best := d
    done;
    !best /. float_of_int !reps *. 1e9
  in
  Robust.Inject.disarm ();
  Robust.Stats.reset ();
  let rows =
    List.map
      (fun n_harm ->
        let ctx = Htm_core.Htm.ctx ~n_harm ~omega0:w0 in
        let eval () = Htm_core.Htm.to_matrix ctx cl s in
        Robust.Config.reset ();
        let guarded_ns = time_ns eval in
        Robust.Config.set_guard_checks false;
        let unguarded_ns = time_ns eval in
        Robust.Config.reset ();
        let overhead_pct = (guarded_ns /. unguarded_ns -. 1.0) *. 100.0 in
        Format.printf
          "  n_harm %3d (dim %3d): unguarded %9.0f ns  guarded %9.0f ns  \
           (overhead %+.2f%%)@."
          n_harm (Htm_core.Htm.dim ctx) unguarded_ns guarded_ns overhead_pct;
        (n_harm, Htm_core.Htm.dim ctx, unguarded_ns, guarded_ns, overhead_pct))
      [ 10; 20; 40; 80 ]
  in
  let fallbacks = (Robust.Stats.snapshot ()).Robust.Stats.dense_fallbacks in
  Format.printf "dense fallbacks during the benchmark: %d@." fallbacks;
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    "  \"benchmark\": \"closed-loop HTM realization: guarded vs unguarded \
     one-point plan\",\n";
  Buffer.add_string b "  \"s_over_omega0\": 0.2,\n";
  Buffer.add_string b
    (Printf.sprintf "  \"dense_fallbacks\": %d,\n" fallbacks);
  Buffer.add_string b "  \"runs\": [\n";
  List.iteri
    (fun i (n_harm, dim, unguarded_ns, guarded_ns, overhead_pct) ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"n_harm\": %d, \"dim\": %d, \"unguarded_ns\": %.1f, \
            \"guarded_ns\": %.1f, \"overhead_pct\": %.2f}%s\n"
           n_harm dim unguarded_ns guarded_ns overhead_pct
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string b "  ]\n";
  Buffer.add_string b "}\n";
  Runner.Atomic_file.write_string "BENCH_robust.json" (Buffer.contents b);
  Format.printf "wrote BENCH_robust.json@."

(* Crash-safe runner overhead: the same checked ratio sweep run bare
   (Sweep.grid_checked) and through Run.grid with a checkpoint journal
   and an armed watchdog — i.e. the full crash-safety tax. Per-frame
   journaling adds a Marshal encode + one mutexed write(2) per point,
   which must stay < 5% of a realistic per-point analysis. Emitted as
   BENCH_runner.json for CI tracking. *)
let run_runner_bench () =
  Format.printf "@.== Crash-safe runner: journal and watchdog overhead ==@.";
  let n_points = 96 in
  let ratios =
    Array.init n_points (fun i ->
        0.02 +. (0.46 *. float_of_int i /. float_of_int (n_points - 1)))
  in
  let task ratio =
    let sub = Pll_lib.Design.with_ratio spec ratio in
    let p = Pll_lib.Design.synthesize sub in
    Pll_lib.Analysis.effective_report p
  in
  let ckpt = Filename.temp_file "pllscope_bench" ".ckpt" in
  let codec = Runner.Run.marshal_codec () in
  let plain () = ignore (Parallel.Sweep.grid_checked task ratios) in
  (* journal only: the per-point Marshal + mutexed write(2) plus the
     fixed open/fsync/close — the cost every checkpointed sweep pays.
     Fresh run each repetition: Run.grid discards the stale journal
     when resume is off. *)
  let journaled () = ignore (Runner.Run.grid ~checkpoint:ckpt ~codec task ratios) in
  (* journal + armed watchdog: adds the watchdog registration and the
     per-task slot bookkeeping *)
  let watched () =
    ignore (Runner.Run.grid ~task_timeout:60.0 ~checkpoint:ckpt ~codec task ratios)
  in
  (* The three configurations are timed in interleaved rounds and
     compared by median: CPU clocks drift over a run, so timing each
     config in its own block would bill the drift to whichever config
     ran last. *)
  let configs = [| plain; journaled; watched |] in
  let rounds = 7 in
  let samples = Array.make_matrix (Array.length configs) rounds 0.0 in
  Array.iter (fun f -> f ()) configs;
  (* warmup *)
  for r = 0 to rounds - 1 do
    Array.iteri
      (fun i f ->
        let t0 = Unix.gettimeofday () in
        f ();
        samples.(i).(r) <- Unix.gettimeofday () -. t0)
      configs
  done;
  let median xs =
    let s = Array.copy xs in
    Array.sort compare s;
    s.(Array.length s / 2)
  in
  let plain_s = median samples.(0) in
  let journaled_s = median samples.(1) in
  let watched_s = median samples.(2) in
  (try Sys.remove ckpt with Sys_error _ -> ());
  let journal_pct = ((journaled_s /. plain_s) -. 1.0) *. 100.0 in
  let watchdog_pct = ((watched_s /. plain_s) -. 1.0) *. 100.0 in
  Format.printf
    "  checked sweep, %d points: plain %8.4f s  +journal %8.4f s \
     (%+.2f%%)  +journal+watchdog %8.4f s (%+.2f%%)@."
    n_points plain_s journaled_s journal_pct watched_s watchdog_pct;
  Format.printf "journal overhead acceptance (< 5%%): %s@."
    (if journal_pct < 5.0 then "pass" else "FAIL");
  let b = Buffer.create 512 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    "  \"benchmark\": \"checked ratio sweep: plain vs checkpoint journal vs \
     journal + watchdog\",\n";
  Buffer.add_string b (Printf.sprintf "  \"points\": %d,\n" n_points);
  Buffer.add_string b (Printf.sprintf "  \"plain_seconds\": %.6f,\n" plain_s);
  Buffer.add_string b
    (Printf.sprintf "  \"journaled_seconds\": %.6f,\n" journaled_s);
  Buffer.add_string b
    (Printf.sprintf "  \"journal_watchdog_seconds\": %.6f,\n" watched_s);
  Buffer.add_string b
    (Printf.sprintf "  \"journal_overhead_pct\": %.2f,\n" journal_pct);
  Buffer.add_string b
    (Printf.sprintf "  \"journal_watchdog_overhead_pct\": %.2f,\n" watchdog_pct);
  Buffer.add_string b
    (Printf.sprintf "  \"journal_overhead_pass\": %b\n" (journal_pct < 5.0));
  Buffer.add_string b "}\n";
  Runner.Atomic_file.write_string "BENCH_runner.json" (Buffer.contents b);
  Format.printf "wrote BENCH_runner.json@."

(* Sharded multi-process sweep farm: the million-point Monte Carlo
   tolerance study of Exp_nonideal distributed over worker subprocesses.
   Times the farm at shard counts 1/2/4 against the raw in-process
   kernel (no journal, no protocol), checks that every merged journal is
   byte-identical across shard counts, and measures the cost of a full
   resume (replay + merge, zero compute). Emitted as BENCH_farm.json for
   CI tracking. The point count defaults to the 10^6 showcase; override
   with PLLSCOPE_FARM_POINTS for quick runs. *)

let farm_workload_blob =
  lazy (Marshal.to_string (spec, Experiments.Exp_nonideal.default_mc) [])

(* the bench binary is its own farm worker (argv "farm-worker") *)
let run_farm_worker () =
  Farm.Worker.serve
    ~resolve:(fun _shard blob ->
      let (wspec, cfg) :
          Pll_lib.Design.spec * Experiments.Exp_nonideal.mc_config =
        Marshal.from_string blob 0
      in
      let env = Experiments.Exp_nonideal.mc_env ~spec:wspec cfg in
      fun i -> Marshal.to_string (Experiments.Exp_nonideal.mc_point env i) [])
    ()

let run_farm_bench () =
  Format.printf "@.== Sharded sweep farm: multi-process Monte Carlo ==@.";
  let points =
    match
      Option.bind (Sys.getenv_opt "PLLSCOPE_FARM_POINTS") int_of_string_opt
    with
    | Some n when n > 0 -> n
    | _ -> 1_000_000
  in
  let env = Experiments.Exp_nonideal.mc_env ~spec Experiments.Exp_nonideal.default_mc in
  let dir = Filename.temp_file "pllscope_farm_bench" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let farm_cfg ~resume base shards =
    {
      Farm.Coordinator.shards;
      steal = true;
      resume;
      checkpoint = base;
      blob = Lazy.force farm_workload_blob;
      worker_argv = (fun _ -> [| Sys.executable_name; "farm-worker" |]);
      slice = None;
      chunk = None;
      retries = None;
      task_timeout = None;
      progress = false;
    }
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  (* raw kernel baseline: same task, no journal, no subprocesses *)
  let kernel_s, () =
    time (fun () ->
        for i = 0 to points - 1 do
          ignore (Experiments.Exp_nonideal.mc_point env i)
        done)
  in
  Format.printf
    "  in-process kernel (no journal): %8.3f s  (%9.0f points/s)@." kernel_s
    (float_of_int points /. kernel_s);
  let shard_counts = [ 1; 2; 4 ] in
  let runs =
    List.map
      (fun shards ->
        let base = Filename.concat dir (Printf.sprintf "mc%d.ckpt" shards) in
        let seconds, report =
          time (fun () -> Farm.Coordinator.run (farm_cfg ~resume:false base shards) ~n:points)
        in
        let r = report.Farm.Coordinator.failures in
        if r <> [] then
          Format.printf "  WARNING: %d failed points at %d shards@."
            (List.length r) shards;
        Format.printf
          "  %d shard(s): %8.3f s  (%9.0f points/s; %d steals, %d idle \
           waits totalling %.3f s)@."
          shards seconds
          (float_of_int points /. seconds)
          report.Farm.Coordinator.steals report.Farm.Coordinator.assign_waits
          report.Farm.Coordinator.assign_wait_seconds;
        (shards, base, seconds, report))
      shard_counts
  in
  let read_file path = In_channel.with_open_bin path In_channel.input_all in
  let _, base1, _, _ = List.hd runs in
  let canon = read_file base1 in
  let bit_identical =
    List.for_all (fun (_, base, _, _) -> read_file base = canon) runs
  in
  Format.printf "bit-identical merged journals across shard counts: %b@."
    bit_identical;
  (* resume cost: re-running over a complete journal is pure replay +
     merge — the fixed price of crash recovery at this grid size *)
  let _, base4, _, _ = List.nth runs (List.length runs - 1) in
  let resume_s, resume_report =
    time (fun () -> Farm.Coordinator.run (farm_cfg ~resume:true base4 4) ~n:points)
  in
  Format.printf
    "  full resume (replay + merge, no compute): %8.3f s  (%d points \
     restored)@."
    resume_s resume_report.Farm.Coordinator.resumed;
  (* the tolerance-study showcase itself, from the merged payloads *)
  let rows =
    Array.map
      (Option.map (fun s : Experiments.Exp_nonideal.mc_row ->
           Marshal.from_string s 0))
      resume_report.Farm.Coordinator.payloads
  in
  Experiments.Exp_nonideal.mc_print Format.std_formatter
    (Experiments.Exp_nonideal.mc_summarize env rows);
  let seq_s = match runs with (_, _, s, _) :: _ -> s | [] -> assert false in
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    "  \"benchmark\": \"sharded farm: Monte Carlo tolerance sweep across \
     worker subprocesses\",\n";
  Buffer.add_string b (Printf.sprintf "  \"points\": %d,\n" points);
  Buffer.add_string b
    (Printf.sprintf "  \"kernel_seconds\": %.6f,\n" kernel_s);
  Buffer.add_string b
    (Printf.sprintf "  \"kernel_points_per_s\": %.1f,\n"
       (float_of_int points /. kernel_s));
  Buffer.add_string b "  \"runs\": [\n";
  List.iteri
    (fun i (shards, _, seconds, (report : Farm.Coordinator.report)) ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"shards\": %d, \"seconds\": %.6f, \"points_per_s\": %.1f, \
            \"speedup_vs_1_shard\": %.4f, \"steals\": %d, \"worker_deaths\": \
            %d, \"assign_waits\": %d, \"assign_wait_seconds\": %.6f, \
            \"merged_frames\": %d}%s\n"
           shards seconds
           (float_of_int points /. seconds)
           (seq_s /. seconds) report.Farm.Coordinator.steals
           report.Farm.Coordinator.worker_deaths
           report.Farm.Coordinator.assign_waits
           report.Farm.Coordinator.assign_wait_seconds
           report.Farm.Coordinator.merged_frames
           (if i = List.length runs - 1 then "" else ",")))
    runs;
  Buffer.add_string b "  ],\n";
  Buffer.add_string b
    (Printf.sprintf "  \"bit_identical\": %b,\n" bit_identical);
  Buffer.add_string b
    (Printf.sprintf
       "  \"resume\": {\"seconds\": %.6f, \"resumed_points\": %d, \
        \"replay_points_per_s\": %.1f}\n"
       resume_s resume_report.Farm.Coordinator.resumed
       (float_of_int points /. resume_s));
  Buffer.add_string b "}\n";
  Runner.Atomic_file.write_string "BENCH_farm.json" (Buffer.contents b);
  Format.printf "wrote BENCH_farm.json@.";
  (* scratch journals can be large at 10^6 points: remove them *)
  List.iter
    (fun (_, base, _, _) -> try Sys.remove base with Sys_error _ -> ())
    runs;
  (try Sys.rmdir dir with Sys_error _ -> ())

(* Analysis daemon under concurrent load: an in-process daemon on a
   scratch Unix socket, hammered by concurrent client threads. A cold
   phase (every request a distinct design, so every request computes)
   and a warm phase (a small cycled design pool, so almost every
   request is a cache replay) report throughput and p50/p99 request
   latency; an overload phase against a one-slot, zero-queue daemon
   reports the shed rate and proves a retried request still lands.
   Emitted as BENCH_serve.json for CI tracking. Override the load with
   PLLSCOPE_SERVE_CLIENTS / PLLSCOPE_SERVE_REQS. *)
let run_serve_bench () =
  Format.printf "@.== Analysis daemon: concurrent serving ==@.";
  Runner.Shutdown.ignore_sigpipe ();
  let env_int name default =
    match Option.bind (Sys.getenv_opt name) int_of_string_opt with
    | Some n when n > 0 -> n
    | _ -> default
  in
  let clients = env_int "PLLSCOPE_SERVE_CLIENTS" 8 in
  let reqs = env_int "PLLSCOPE_SERVE_REQS" 40 in
  let sock_path suffix =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pllscope_bench_%d_%s.sock" (Unix.getpid ()) suffix)
  in
  let with_daemon cfg suffix f =
    let path = sock_path suffix in
    let cfg = { cfg with Serve.Daemon.socket_path = Some path } in
    let d = Serve.Daemon.create cfg in
    let final = ref None in
    let th =
      Thread.create (fun () -> final := Some (Serve.Daemon.serve d)) ()
    in
    let out =
      Fun.protect
        ~finally:(fun () ->
          Serve.Daemon.stop d;
          Thread.join th;
          if Sys.file_exists path then Sys.remove path)
        (fun () -> f path)
    in
    match !final with
    | Some stats -> (out, stats)
    | None -> failwith "Main.run_serve_bench: daemon returned no stats"
  in
  let request path body =
    let c = Serve.Client.connect (Serve.Client.Unix_path path) in
    Fun.protect
      ~finally:(fun () -> Serve.Client.close c)
      (fun () -> Serve.Client.request c (Serve.Wire.oneshot body))
  in
  let spec_variant i =
    {
      spec with
      Pll_lib.Design.fref =
        spec.Pll_lib.Design.fref *. (1.0 +. (1e-4 *. float_of_int i));
    }
  in
  (* all-threads hammer; per-request wall times merged and sorted after *)
  let hammer path ~distinct =
    let lat = Array.make (clients * reqs) 0.0 in
    let errors = Atomic.make 0 in
    let t0 = Unix.gettimeofday () in
    let threads =
      Array.init clients (fun c ->
          Thread.create
            (fun () ->
              for j = 0 to reqs - 1 do
                let i = (c * reqs) + j in
                let body =
                  Serve.Wire.Analyze
                    (spec_variant (if distinct then i else i mod 8))
                in
                let r0 = Unix.gettimeofday () in
                (match request path body with
                | Ok _ -> ()
                | Error _ -> Atomic.incr errors);
                lat.(i) <- Unix.gettimeofday () -. r0
              done)
            ())
    in
    Array.iter Thread.join threads;
    let wall = Unix.gettimeofday () -. t0 in
    Array.sort Float.compare lat;
    let n = Array.length lat in
    let pct p = lat.(min (n - 1) (int_of_float (p *. float_of_int n))) in
    (wall, pct 0.5, pct 0.99, Atomic.get errors)
  in
  let total = clients * reqs in
  let serving_cfg =
    {
      Serve.Daemon.default_config with
      Serve.Daemon.workers = 4;
      queue_depth = clients * 2;
      max_clients = clients * 4;
    }
  in
  let (cold, warm), stats =
    with_daemon serving_cfg "serving" (fun path ->
        let cold = hammer path ~distinct:true in
        let warm = hammer path ~distinct:false in
        (cold, warm))
  in
  let report label (wall, p50, p99, errors) =
    Format.printf
      "  %-24s %8.3f s  %8.0f req/s   p50 %7.3f ms   p99 %7.3f ms%s@." label
      wall
      (float_of_int total /. wall)
      (p50 *. 1e3) (p99 *. 1e3)
      (if errors = 0 then "" else Printf.sprintf "   (%d errors!)" errors)
  in
  report "cold (every req computes)" cold;
  report "warm (cache replays)" warm;
  Format.printf "  cache: %d hits / %d misses; served %d@."
    stats.Serve.Wire.cache_hits stats.Serve.Wire.cache_misses
    stats.Serve.Wire.served;
  (* streamed sweeps: chunked delivery vs the one-shot reply on the same
     grid (the <10% chunking-overhead budget), plus a resume after an
     injected mid-stream disconnect — the replayed cells are journal
     reads, not recomputes *)
  let sweep_points = env_int "PLLSCOPE_SERVE_SWEEP" 192 in
  let state_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pllscope_bench_state_%d" (Unix.getpid ()))
  in
  let stream_cfg =
    {
      Serve.Daemon.default_config with
      Serve.Daemon.workers = 4;
      max_clients = 8;
      state_dir = Some state_dir;
      chunk_points = 16;
    }
  in
  let ratios =
    Array.init sweep_points (fun i ->
        0.02 +. (0.4 *. float_of_int i /. float_of_int (sweep_points - 1)))
  in
  let (oneshot_s, streamed_s, resume_s, resume_stats), stream_daemon_stats =
    with_daemon stream_cfg "stream" (fun path ->
        let connect () = Serve.Client.connect (Serve.Client.Unix_path path) in
        let time f =
          let t0 = Unix.gettimeofday () in
          let v = f () in
          (Unix.gettimeofday () -. t0, v)
        in
        (* distinct specs per phase so every measurement is a cold compute *)
        let oneshot_s, _ =
          time (fun () ->
              match
                request path
                  (Serve.Wire.Sweep { spec = spec_variant 50_001; ratios })
              with
              | Ok _ -> ()
              | Error err ->
                  failwith (Robust.Pllscope_error.to_string err))
        in
        let streamed spec =
          match
            Serve.Client.sweep_streamed ~timeout:60.0 ~connect ~spec ~ratios ()
          with
          | Ok (_, st) -> st
          | Error err -> failwith (Robust.Pllscope_error.to_string err)
        in
        let streamed_s, _ = time (fun () -> streamed (spec_variant 50_002)) in
        Robust.Inject.configure ~seed:11 "stream-disconnect:1";
        let resume_s, resume_stats =
          time (fun () -> streamed (spec_variant 50_003))
        in
        Robust.Inject.disarm ();
        (oneshot_s, streamed_s, resume_s, resume_stats))
  in
  if Sys.file_exists state_dir then begin
    Array.iter
      (fun f -> Sys.remove (Filename.concat state_dir f))
      (Sys.readdir state_dir);
    Unix.rmdir state_dir
  end;
  let overhead_pct = 100.0 *. ((streamed_s /. oneshot_s) -. 1.0) in
  Format.printf
    "  streamed sweep (%d pts):   one-shot %.3f s, streamed %.3f s  \
     (chunking overhead %+.1f%%, %.0f pts/s)@."
    sweep_points oneshot_s streamed_s overhead_pct
    (float_of_int sweep_points /. streamed_s);
  Format.printf
    "  resume after disconnect:   %.3f s total, %d replayed + %d recomputed \
     (%d resume round-trip(s))@."
    resume_s resume_stats.Serve.Client.replayed
    resume_stats.Serve.Client.computed resume_stats.Serve.Client.resumes;
  (* overload: one slot, no queue, every client fires distinct designs
     with no retries — the shed rate is the admission control working *)
  let overload_cfg =
    {
      Serve.Daemon.default_config with
      Serve.Daemon.workers = 1;
      queue_depth = 0;
      max_clients = clients * 4;
      retry_after = 0.002;
    }
  in
  let (shed_seen, ok_seen, retry_ok), overload_stats =
    with_daemon overload_cfg "overload" (fun path ->
        let shed = Atomic.make 0 and okc = Atomic.make 0 in
        let threads =
          Array.init clients (fun c ->
              Thread.create
                (fun () ->
                  for j = 0 to reqs - 1 do
                    let body =
                      Serve.Wire.Analyze
                        (spec_variant (10_000 + (c * reqs) + j))
                    in
                    match request path body with
                    | Ok _ -> Atomic.incr okc
                    | Error (Robust.Pllscope_error.Overloaded _) ->
                        Atomic.incr shed
                    | Error _ -> ()
                  done)
                ())
        in
        Array.iter Thread.join threads;
        (* a patient client retries through the stampede and lands *)
        let retry_ok =
          match
            Serve.Client.with_retries ~attempts:20 ~base_delay:0.002
              ~max_delay:0.05
              ~connect:(fun () ->
                Serve.Client.connect (Serve.Client.Unix_path path))
              (fun conn ->
                Serve.Client.request conn
                  (Serve.Wire.oneshot (Serve.Wire.Analyze (spec_variant 99_999))))
          with
          | Ok _ -> true
          | Error _ -> false
        in
        (Atomic.get shed, Atomic.get okc, retry_ok))
  in
  let shed_rate = float_of_int shed_seen /. float_of_int total in
  Format.printf
    "  overload (1 slot, queue 0): %d served, %d shed of %d  (shed rate \
     %.2f); retry round-trip %s@."
    ok_seen shed_seen total shed_rate
    (if retry_ok then "ok" else "FAILED");
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    "  \"benchmark\": \"analysis daemon: concurrent clients over a Unix \
     socket\",\n";
  Buffer.add_string b (Printf.sprintf "  \"clients\": %d,\n" clients);
  Buffer.add_string b
    (Printf.sprintf "  \"requests_per_client\": %d,\n" reqs);
  let phase name (wall, p50, p99, errors) =
    Buffer.add_string b
      (Printf.sprintf
         "  \"%s\": {\"seconds\": %.6f, \"req_per_s\": %.1f, \"p50_ms\": \
          %.4f, \"p99_ms\": %.4f, \"errors\": %d},\n"
         name wall
         (float_of_int total /. wall)
         (p50 *. 1e3) (p99 *. 1e3) errors)
  in
  phase "cold" cold;
  phase "warm" warm;
  Buffer.add_string b
    (Printf.sprintf "  \"cache\": {\"hits\": %d, \"misses\": %d},\n"
       stats.Serve.Wire.cache_hits stats.Serve.Wire.cache_misses);
  Buffer.add_string b
    (Printf.sprintf
       "  \"streamed\": {\"sweep_points\": %d, \"oneshot_s\": %.6f, \
        \"streamed_s\": %.6f, \"overhead_pct\": %.2f, \"points_per_s\": \
        %.1f},\n"
       sweep_points oneshot_s streamed_s overhead_pct
       (float_of_int sweep_points /. streamed_s));
  Buffer.add_string b
    (Printf.sprintf
       "  \"resume\": {\"seconds\": %.6f, \"replayed\": %d, \"recomputed\": \
        %d, \"resumes\": %d, \"daemon_points_computed\": %d, \
        \"daemon_points_replayed\": %d},\n"
       resume_s resume_stats.Serve.Client.replayed
       resume_stats.Serve.Client.computed resume_stats.Serve.Client.resumes
       stream_daemon_stats.Serve.Wire.points_computed
       stream_daemon_stats.Serve.Wire.points_replayed);
  Buffer.add_string b
    (Printf.sprintf
       "  \"overload\": {\"served\": %d, \"shed\": %d, \"total\": %d, \
        \"shed_rate\": %.4f, \"daemon_shed_counter\": %d, \
        \"retry_roundtrip_ok\": %b}\n"
       ok_seen shed_seen total shed_rate overload_stats.Serve.Wire.shed
       retry_ok);
  Buffer.add_string b "}\n";
  Runner.Atomic_file.write_string "BENCH_serve.json" (Buffer.contents b);
  Format.printf "wrote BENCH_serve.json@."

let bench_sim_period =
  Test.make ~name:"kernel: behavioral simulation (10 periods)"
    (Staged.stage
       (let config =
          Sim.Behavioral.default_config pll
        in
        fun () ->
          ignore
            (Sim.Behavioral.run config Sim.Behavioral.quiet
               ~t_end:(10.0 *. Pll_lib.Pll.period pll))))

(* Run the grouped suite and report the per-run OLS estimate of each
   kernel. *)
let run_benchmarks () =
  Format.printf "@.== Bechamel micro-benchmarks (one per figure) ==@.";
  let test =
    Test.make_grouped ~name:"pllscope"
      ([
        bench_fig2;
        bench_fig2_generic;
        bench_fig4;
        bench_fig5;
        bench_fig6_closed_form;
        bench_fig6_truncated;
        bench_fig6_simulation;
        bench_fig7;
        bench_xchk_zmodel;
        bench_lambda_exact;
        bench_sim_period;
      ]
      @ bench_parallel_tests)
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let raw_results = Benchmark.all cfg Instance.[ monotonic_clock ] test in
  let results =
    List.map (fun i -> Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]) i raw_results)
      Instance.[ monotonic_clock ]
  in
  let results2 = Analyze.merge (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]) Instance.[ monotonic_clock ] results in
  Hashtbl.iter
    (fun _instance tbl ->
      let rows = Hashtbl.fold (fun name result acc -> (name, result) :: acc) tbl [] in
      let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
      List.iter
        (fun (name, result) ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Format.printf "%-60s %12.1f ns/run@." name est
          | _ -> Format.printf "%-60s (no estimate)@." name)
        rows)
    results2

let run_figures which =
  let all = which = "all" in
  if all || which = "5" then Experiments.Exp_fig5.run ();
  if all || which = "2" then Experiments.Exp_fig2.run ();
  if all || which = "4" then Experiments.Exp_fig4.run ();
  if all || which = "7" then Experiments.Exp_fig7.run ();
  if all || which = "6" then Experiments.Exp_fig6.run ();
  if all || which = "xchk" then Experiments.Exp_xchk.run ();
  if all || which = "ablation" then Experiments.Exp_ablation.run ();
  if all || which = "isf" then Experiments.Exp_isf.run ();
  if all || which = "nonideal" then Experiments.Exp_nonideal.run ();
  if all || which = "pfd" then Experiments.Exp_pfd.run ();
  if all || which = "noise" then Experiments.Exp_noise.run ();
  if all || which = "fractional" then Experiments.Exp_fractional.run ();
  if all || which = "grid" then Experiments.Exp_grid.run ();
  if all || which = "perf" then Experiments.Exp_perf.run ()

let () =
  match if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" with
  | "farm-worker" -> run_farm_worker ()
  | "bench" -> run_benchmarks ()
  | "parallel" -> run_parallel_bench ()
  | "farm" -> run_farm_bench ()
  | "kernels" -> run_kernel_bench ()
  | "grid" -> run_grid_bench ()
  | "robust" -> run_robust_bench ()
  | "runner" -> run_runner_bench ()
  | "serve" -> run_serve_bench ()
  | ("2" | "4" | "5" | "6" | "7" | "perf" | "xchk" | "ablation" | "isf" | "nonideal" | "pfd" | "noise" | "fractional") as f ->
      run_figures f
  | "all" ->
      run_figures "all";
      run_benchmarks ();
      run_parallel_bench ();
      run_kernel_bench ();
      run_grid_bench ();
      run_robust_bench ();
      run_runner_bench ();
      run_farm_bench ();
      run_serve_bench ()
  | other ->
      Format.printf
        "unknown argument %s (want 2|4|5|6|7|perf|xchk|ablation|isf|nonideal|pfd|noise|fractional|grid|bench|parallel|kernels|grid|robust|runner|farm|serve|all)@."
        other;
      exit 1
