(* Multi-domain determinism cross-checks (part of `dune runtest`).

   The parallel sweep engine promises that results are bit-identical for
   any pool size: each output slot is written by exactly one lane from
   its own input, and reductions happen in a fixed order. These tests
   run the paper's headline sweeps at pool sizes 1, 2 and 4 and compare
   the {e complete} result structures with polymorphic compare (exact
   float equality, NaN-tolerant) — any nondeterministic float reduction
   order, racy accumulation or scheduling-dependent output ordering
   fails them. *)

let spec = Pll_lib.Design.default_spec

let pool_sizes = [ 1; 2; 4 ]

let at_sizes f =
  List.map
    (fun domains -> Parallel.Pool.with_pool ~domains (fun pool -> f pool))
    pool_sizes

let check_identical name results =
  match results with
  | [] -> ()
  | first :: rest ->
      List.iteri
        (fun i r ->
          if compare first r <> 0 then
            Alcotest.failf
              "%s: pool size %d produced different bits than pool size %d" name
              (List.nth pool_sizes (i + 1))
              (List.hd pool_sizes))
        rest

let test_ratio_sweep_deterministic () =
  check_identical "Analysis.ratio_sweep"
    (at_sizes (fun pool ->
         Pll_lib.Analysis.ratio_sweep ~pool spec [ 0.02; 0.05; 0.1; 0.2; 0.25 ]))

let test_fig4_deterministic () =
  check_identical "Exp_fig4.compute"
    (at_sizes (fun pool -> Experiments.Exp_fig4.compute ~spec ~pool ()))

let test_fig6_deterministic () =
  (* sim_points:0 keeps the time-marching simulator out; the HTM and
     LTI grids are the parallelized part *)
  check_identical "Exp_fig6.compute"
    (at_sizes (fun pool ->
         Experiments.Exp_fig6.compute ~spec ~sim_points:0 ~pool ()))

let test_fig7_metrics_deterministic () =
  check_identical "Exp_fig7.compute (paper ratios)"
    (at_sizes (fun pool ->
         Experiments.Exp_fig7.compute ~spec ~ratios:[ 0.05; 0.1; 0.2 ] ~pool ()))

let test_noise_folding_deterministic () =
  let pll = Pll_lib.Design.synthesize spec in
  let w0 = Pll_lib.Pll.omega0 pll in
  let s = Pll_lib.Noise.lorentzian ~level:1e-9 ~corner:(0.3 *. w0) in
  check_identical "Noise folding sums"
    (at_sizes (fun pool ->
         List.map
           (fun frac ->
             ( Pll_lib.Noise.reference_noise_out pll ~folds:512 ~pool s
                 (frac *. w0),
               Pll_lib.Noise.vco_noise_out pll ~folds:512 ~pool s (frac *. w0) ))
           [ 0.03; 0.1; 0.27; 0.44 ]))

(* The production HTM grid paths — one plan per lane of
   Sweep.grid_local, one entry or row query per point — on a sampling
   loop behind a time-invariant VCO, the same behind an ISF VCO, and a
   mixing-PFD loop (banded LU feedback); and σ_max per point through
   Sweep.grid. *)
let test_htm_grids_deterministic () =
  let base = Pll_lib.Design.synthesize spec in
  let w0 = Pll_lib.Pll.omega0 base in
  let loop ?(vco = base.Pll_lib.Pll.vco) ?(pfd = Pll_lib.Pfd.sampling) () =
    Pll_lib.Pll.make ~fref:spec.Pll_lib.Design.fref
      ~n_div:spec.Pll_lib.Design.n_div ~filter:base.Pll_lib.Pll.filter ~vco
      ~pfd ()
  in
  let isf =
    loop
      ~vco:
        (Pll_lib.Vco.with_isf ~kvco:spec.Pll_lib.Design.kvco
           ~n_div:spec.Pll_lib.Design.n_div ~fref:spec.Pll_lib.Design.fref
           ~harmonics:[ Numeric.Cx.of_float 0.3; Numeric.Cx.make 0.05 (-0.04) ])
      ()
  in
  let mixing = loop ~pfd:(Pll_lib.Pfd.mixing ~gain:1.3) () in
  let loops = [ loop (); isf; mixing ] in
  let psd = Pll_lib.Noise.lorentzian ~level:1e-9 ~corner:(0.3 *. w0) in
  let ctx = Htm_core.Htm.ctx ~n_harm:12 ~omega0:w0 in
  let cl = Pll_lib.Pll.closed_loop_htm base in
  let ws = Numeric.Optimize.logspace (w0 *. 1e-3) (w0 *. 0.49) 24 in
  check_identical "closed-loop metrics, noise folding and σ_max grids"
    (at_sizes (fun pool ->
         ( List.map
             (fun p ->
               Pll_lib.Analysis.closed_loop_metrics_htm ~n_harm:8 ~points:96
                 ~pool p)
             loops,
           List.map
             (fun p ->
               Pll_lib.Noise.reference_noise_out_htm p ~n_harm:8 ~pool psd ws)
             loops,
           Parallel.Sweep.grid ~pool
             (Htm_core.Htm.max_singular_value ctx cl)
             ws )))

let () =
  Alcotest.run "pllscope-slow"
    [
      ( "parallel.determinism",
        [
          Alcotest.test_case "ratio_sweep bit-identical at 1/2/4 domains"
            `Slow test_ratio_sweep_deterministic;
          Alcotest.test_case "exp_fig4 bit-identical at 1/2/4 domains" `Slow
            test_fig4_deterministic;
          Alcotest.test_case "exp_fig6 grids bit-identical at 1/2/4 domains"
            `Slow test_fig6_deterministic;
          Alcotest.test_case "exp_fig7 metrics bit-identical at 1/2/4 domains"
            `Slow test_fig7_metrics_deterministic;
          Alcotest.test_case "noise folding bit-identical at 1/2/4 domains"
            `Slow test_noise_folding_deterministic;
          Alcotest.test_case "HTM grids bit-identical at 1/2/4 domains" `Slow
            test_htm_grids_deterministic;
        ] );
    ]
