(* Request execution for the daemon.

   Each entry point takes the request's private cancellation token and
   honours it at a fine grain — between report stages for [analyze],
   between grid points for [bode], per ratio (chunk size 1) for
   [sweep] — so an expired deadline stops burning the worker slot
   within one point's worth of work, not one request's.

   Determinism: every value is computed by the same code paths the CLI
   subcommands use ([Analysis.lti_report], [Bode.of_responses],
   [Analysis.ratio_sweep] one ratio at a time), so a served result is
   bit-identical to a local run of the matching subcommand.

   Nothing is memoized here. Synthesizing a loop costs well under a
   microsecond and a bode grid is one [Array.init], so a plan cache
   would save nothing measurable next to the analysis itself; the
   daemon caches whole replies instead. [sweep] is the only sweep
   compute: one-shot requests call it on the whole grid and streams on
   each window's missing points. *)

let analyze ~cancel spec : Wire.analyze_result =
  Parallel.Cancel.check cancel;
  let p = Pll_lib.Design.synthesize spec in
  let lti = Pll_lib.Analysis.lti_report p in
  Parallel.Cancel.check cancel;
  let eff = Pll_lib.Analysis.effective_report p in
  Parallel.Cancel.check cancel;
  let metrics = Pll_lib.Analysis.closed_loop_metrics p in
  Parallel.Cancel.check cancel;
  let stable = Pll_lib.Analysis.is_stable_tv p in
  { Wire.lti; eff; metrics; stable }

(* The CLI's log grid (bode_cmd): w_UG/50 .. 0.49 w0. Points are
   evaluated sequentially with a cancel poll between each, then phases
   are unwrapped exactly as Lti.Bode.sweep would. *)
let bode ~cancel spec ~points : Wire.bode_result =
  if points < 2 then
    Robust.Pllscope_error.raise_
      (Robust.Pllscope_error.Parse
         {
           file = "<request>";
           line = 0;
           col = 0;
           msg = "Engine.bode: points must be >= 2";
         });
  Parallel.Cancel.check cancel;
  let p = Pll_lib.Design.synthesize spec in
  let ws =
    let w0 = Pll_lib.Pll.omega0 p in
    let w_ug = Pll_lib.Design.omega_ug spec in
    let lo = w_ug /. 50.0 and hi = w0 *. 0.49 in
    Array.init points (fun i ->
        lo *. ((hi /. lo) ** (float_of_int i /. float_of_int (points - 1))))
  in
  let a_fn = Lti.Tf.freq_response (Pll_lib.Pll.open_loop_tf p) in
  let lam_fn = Pll_lib.Pll.lambda_fn p Pll_lib.Pll.Exact in
  let eval f =
    Array.map
      (fun w ->
        Parallel.Cancel.check cancel;
        f w)
      ws
  in
  let a_resp = eval a_fn in
  let lam_resp = eval (fun w -> lam_fn (Numeric.Cx.jomega w)) in
  let strip pts =
    Array.map
      (fun (pt : Lti.Bode.point) ->
        {
          Wire.omega = pt.Lti.Bode.omega;
          mag_db = pt.Lti.Bode.mag_db;
          phase_deg = pt.Lti.Bode.phase_deg;
        })
      pts
  in
  {
    Wire.a = strip (Lti.Bode.of_responses ~ws a_resp);
    lambda = strip (Lti.Bode.of_responses ~ws lam_resp);
  }

(* One ratio per checked-sweep task (chunk 1): a cancelled deadline
   surfaces as typed per-point failures in the partial — same contract
   as an interrupted `pllscope sweep` — and every surviving row is
   bit-identical to the CLI's. *)
let ratio_point spec ratio =
  match Pll_lib.Analysis.ratio_sweep spec [ ratio ] with
  | [ row ] -> row
  | rows ->
      invalid_arg
        (Printf.sprintf "Engine.ratio_point: expected 1 row, got %d"
           (List.length rows))

let sweep ~cancel spec ratios : Wire.sweep_result =
  if Array.length ratios = 0 then
    Robust.Pllscope_error.raise_
      (Robust.Pllscope_error.Parse
         {
           file = "<request>";
           line = 0;
           col = 0;
           msg = "Engine.sweep: empty ratio grid";
         });
  (* no entry check: a token already cancelled (or a deadline expiring
     mid-grid) degrades to a partial with per-point Cancelled failures
     instead of failing the whole request — grid_checked records it *)
  let partial =
    Parallel.Sweep.grid_checked ~chunk:1 ~cancel
      (fun ratio -> ratio_point spec ratio)
      ratios
  in
  {
    Wire.rows = partial.Parallel.Sweep.values;
    failures = partial.Parallel.Sweep.failures;
    total = partial.Parallel.Sweep.total;
  }
