(* Regenerates test/golden/fig_metrics.txt — the snapshot of the
   paper-facing numbers that the golden regression tests compare against
   (tolerance 1e-9). Run after an *intentional* change to the modeled
   figures:

     dune exec tools/gen_golden/gen_golden.exe -- -o test/golden/fig_metrics.txt

   With -o the snapshot is written atomically (temp file + fsync +
   rename), so an interrupted regeneration can never leave a torn
   golden file for the test suite to diff against; without -o it goes
   to stdout as before.

   Values are printed with %.17g (round-trip exact for doubles) and
   computed on a 1-domain pool; the test suite recomputes them on the
   shared default pool, so this file also locks down the determinism
   guarantee of the parallel sweep engine. *)

let buf = Buffer.create 4096
let line s = Buffer.add_string buf (s ^ "\n")
let pr key v = line (Printf.sprintf "%s %.17g" key v)

let generate () =
  let spec = Pll_lib.Design.default_spec in
  Parallel.Pool.with_pool ~domains:1 (fun pool ->
      line "# golden snapshot of paper-facing metrics; regenerate with";
      line
        "#   dune exec tools/gen_golden/gen_golden.exe -- -o \
         test/golden/fig_metrics.txt";
      (* Fig. 6 / Fig. 7 family: closed-loop bandwidth + peaking and the
         effective (time-varying) margins at the paper's ratios *)
      List.iter
        (fun ratio ->
          let sub = Pll_lib.Design.with_ratio spec ratio in
          let p = Pll_lib.Design.synthesize sub in
          let m = Pll_lib.Analysis.closed_loop_metrics ~pool p in
          let eff = Pll_lib.Analysis.effective_report p in
          let key fmt = Printf.sprintf "ratio_%g.%s" ratio fmt in
          pr (key "dc_mag") m.Pll_lib.Analysis.dc_mag;
          pr (key "peak_db") m.Pll_lib.Analysis.peak_db;
          pr (key "peak_freq") m.Pll_lib.Analysis.peak_freq;
          pr (key "bandwidth_3db")
            (Option.value ~default:Float.nan m.Pll_lib.Analysis.bandwidth_3db);
          pr (key "pm_eff_deg")
            (Option.value ~default:Float.nan
               eff.Pll_lib.Analysis.phase_margin_deg);
          pr (key "omega_ug_eff")
            (Option.value ~default:Float.nan eff.Pll_lib.Analysis.omega_ug))
        [ 0.05; 0.1; 0.2 ];
      (* Closed-loop rank-one kernel rows at n_harm = 20: pins the
         Sherman–Morrison closed form that the structured HTM evaluator
         must reproduce (test_htm_struct checks both against these) *)
      let p = Pll_lib.Design.synthesize spec in
      let w0 = Pll_lib.Pll.omega0 p in
      let ctx = Htm_core.Htm.ctx ~n_harm:20 ~omega0:w0 in
      let c0 = Htm_core.Htm.index_of_harmonic ctx 0 in
      List.iter
        (fun frac ->
          let s = Numeric.Cx.jomega (frac *. w0) in
          let m = Pll_lib.Pll.closed_loop_rank_one ctx p s in
          let key fmt = Printf.sprintf "cl_r1_n20_w%g.%s" frac fmt in
          pr (key "h00_re") (Numeric.Cx.re (Numeric.Cmat.get m c0 c0));
          pr (key "h00_im") (Numeric.Cx.im (Numeric.Cmat.get m c0 c0));
          pr (key "h10_re") (Numeric.Cx.re (Numeric.Cmat.get m (c0 + 1) c0));
          pr (key "h10_im") (Numeric.Cx.im (Numeric.Cmat.get m (c0 + 1) c0));
          pr (key "hm10_re") (Numeric.Cx.re (Numeric.Cmat.get m (c0 - 1) c0));
          pr (key "hm10_im") (Numeric.Cx.im (Numeric.Cmat.get m (c0 - 1) c0));
          pr (key "frobenius") (Numeric.Cmat.norm_frobenius m))
        [ 0.07; 0.2; 0.45 ];
      (* Planned grid evaluation at n_harm = 20: one compiled plan
         streamed over a 64-point log grid. Pins the plan/execute path
         (Plan.run_grid) point by point; test_grid diffs a fresh planned
         run against these rows, so any drift between the planned and
         the per-point evaluator shows up as a golden failure. *)
      let ss =
        Array.map Numeric.Cx.jomega
          (Numeric.Optimize.logspace (w0 *. 1e-3) (w0 *. 0.49) 64)
      in
      let plan = Pll_lib.Pll.closed_loop_plan ctx p in
      let h00s =
        Htm_core.Plan.run_grid_map plan
          (fun _ sm -> Htm_core.Smat.get sm c0 c0)
          ss
      in
      Array.iteri
        (fun i h ->
          pr (Printf.sprintf "grid_n20.p%d.re" i) (Numeric.Cx.re h);
          pr (Printf.sprintf "grid_n20.p%d.im" i) (Numeric.Cx.im h))
        h00s;
      (* one full-matrix checkpoint mid-grid: first sideband rows and the
         Frobenius norm of the realized HTM *)
      let sm = Htm_core.Plan.eval plan ss.(31) in
      pr "grid_n20.p31.h10_re" (Numeric.Cx.re (Htm_core.Smat.get sm (c0 + 1) c0));
      pr "grid_n20.p31.h10_im" (Numeric.Cx.im (Htm_core.Smat.get sm (c0 + 1) c0));
      pr "grid_n20.p31.hm10_re"
        (Numeric.Cx.re (Htm_core.Smat.get sm (c0 - 1) c0));
      pr "grid_n20.p31.hm10_im"
        (Numeric.Cx.im (Htm_core.Smat.get sm (c0 - 1) c0));
      pr "grid_n20.p31.frobenius"
        (Numeric.Cmat.norm_frobenius (Htm_core.Smat.to_cmat sm));
      (* Fig. 4: pulse-vs-impulse equivalence rows *)
      List.iter
        (fun r ->
          let key fmt =
            Printf.sprintf "fig4_w%g.%s" r.Experiments.Exp_fig4.width_frac fmt
          in
          pr (key "theta_pulse") r.Experiments.Exp_fig4.theta_pulse;
          pr (key "theta_impulse") r.Experiments.Exp_fig4.theta_impulse;
          pr (key "rel_err") r.Experiments.Exp_fig4.rel_err)
        (Experiments.Exp_fig4.compute ~spec ~pool ());
      (* The exact-λ closed loop behind an ISF VCO (harmonics 0.3 and
         0.05 − 0.04j on the default design) at n_harm = 20: H₀₀ at
         three points and the grid metrics, both through the planner *)
      let isf =
        Pll_lib.Pll.make ~fref:spec.fref ~n_div:spec.n_div
          ~filter:p.Pll_lib.Pll.filter
          ~vco:
            (Pll_lib.Vco.with_isf ~kvco:spec.kvco ~n_div:spec.n_div
               ~fref:spec.fref
               ~harmonics:[ Numeric.Cx.of_float 0.3; Numeric.Cx.make 0.05 (-0.04) ])
          ()
      in
      let plan = Pll_lib.Pll.closed_loop_plan ctx isf in
      List.iter
        (fun frac ->
          let h = Htm_core.Plan.baseband plan (Numeric.Cx.jomega (frac *. w0)) in
          let key fmt = Printf.sprintf "isf_exact_n20_w%g.%s" frac fmt in
          pr (key "h00_re") (Numeric.Cx.re h);
          pr (key "h00_im") (Numeric.Cx.im h))
        [ 0.07; 0.2; 0.45 ];
      let m = Pll_lib.Analysis.closed_loop_metrics_htm ~n_harm:20 ~pool isf in
      pr "isf_exact_n20.dc_mag" m.Pll_lib.Analysis.dc_mag;
      pr "isf_exact_n20.peak_db" m.Pll_lib.Analysis.peak_db;
      pr "isf_exact_n20.peak_freq" m.Pll_lib.Analysis.peak_freq;
      pr "isf_exact_n20.bandwidth_3db"
        (Option.value ~default:Float.nan m.Pll_lib.Analysis.bandwidth_3db))

let () =
  let out = ref None in
  let rec parse = function
    | [] -> ()
    | "-o" :: path :: rest ->
        out := Some path;
        parse rest
    | arg :: _ ->
        prerr_endline ("gen_golden: unknown argument " ^ arg ^ " (want -o FILE)");
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  generate ();
  match !out with
  | None -> print_string (Buffer.contents buf)
  | Some path ->
      Runner.Atomic_file.write_string path (Buffer.contents buf);
      Printf.eprintf "wrote %s\n" path
