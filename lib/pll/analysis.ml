open Numeric

type loop_report = {
  omega_ug : float option;
  phase_margin_deg : float option;
  gain_margin_db : float option;
}

type closed_loop_metrics = {
  dc_mag : float;
  peak_mag : float;
  peak_db : float;
  peak_freq : float;
  bandwidth_3db : float option;
}

let of_margins (r : Lti.Margins.report) =
  {
    omega_ug = r.Lti.Margins.unity_gain_freq;
    phase_margin_deg = r.Lti.Margins.phase_margin_deg;
    gain_margin_db = r.Lti.Margins.gain_margin_db;
  }

let lti_report p =
  let a = Lti.Tf.freq_response (Pll.open_loop_tf p) in
  let w0 = Pll.omega0 p in
  of_margins (Lti.Margins.analyze a ~lo:(w0 *. 1e-5) ~hi:(w0 *. 10.0))

let effective_report ?(method_ = Pll.Exact) p =
  let lam = Pll.lambda_fn p method_ in
  let w0 = Pll.omega0 p in
  let f w = lam (Cx.jomega w) in
  (* λ is ω₀-periodic on the jω axis with poles at every mω₀: the
     meaningful crossover lives strictly inside (0, ω₀/2). *)
  of_margins (Lti.Margins.analyze f ~lo:(w0 *. 1e-5) ~hi:(w0 *. 0.4999))

(* peak/bandwidth extraction shared by the closed-form and the
   HTM-grid metric paths: [mags] is |H₀₀| on the grid [ws], [mag] is a
   sequential evaluator used only by the refinement searches. *)
let metrics_of_grid ~points ~ws ~mags ~mag =
  let dc_mag = mags.(0) in
  let peak_idx = ref 0 in
  Array.iteri (fun i m -> if m > mags.(!peak_idx) then peak_idx := i) mags;
  (* refine the peak with a golden search around the best grid point *)
  let peak_freq, peak_mag =
    if !peak_idx = 0 || !peak_idx = points - 1 then
      (ws.(!peak_idx), mags.(!peak_idx))
    else begin
      let a = ws.(!peak_idx - 1) and b = ws.(!peak_idx + 1) in
      let w = Optimize.golden_min (fun w -> -.mag w) a b in
      (w, mag w)
    end
  in
  let threshold = dc_mag /. sqrt 2.0 in
  let bandwidth_3db =
    let rec scan i =
      if i >= points then None
      else if mags.(i) < threshold then
        if i = 0 then Some ws.(0)
        else
          Some (Optimize.brent (fun w -> mag w -. threshold) ws.(i - 1) ws.(i))
      else scan (i + 1)
    in
    (* start past the peak region only if the response peaks above DC *)
    scan 0
  in
  {
    dc_mag;
    peak_mag;
    peak_db = Stats.db (peak_mag /. dc_mag);
    peak_freq;
    bandwidth_3db;
  }

let closed_loop_metrics ?(method_ = Pll.Exact) ?(points = 800) ?pool p =
  let h = Pll.h00_fn p method_ in
  let w0 = Pll.omega0 p in
  let mag w = Cx.abs (h (Cx.jomega w)) in
  let lo = w0 *. 1e-5 and hi = w0 *. 0.4999 in
  let ws = Optimize.logspace lo hi points in
  let mags = Parallel.Sweep.grid ?pool mag ws in
  metrics_of_grid ~points ~ws ~mags ~mag

let closed_loop_metrics_htm ?(n_harm = 12) ?(points = 800) ?pool p =
  (* same metrics from the truncated closed-loop HTM instead of the
     time-invariant closed form: valid for ISF VCOs and mixing PFDs.
     The grid runs through per-lane plans; the peak/bandwidth
     refinement searches reuse one sequential plan. Every plan reads
     one entry per point (row and column demand), and all of them share
     one exact λ. *)
  let c = { Htm_core.Htm.n_harm; omega0 = Pll.omega0 p } in
  let w0 = Pll.omega0 p in
  let lo = w0 *. 1e-5 and hi = w0 *. 0.4999 in
  let ws = Optimize.logspace lo hi points in
  let planner = Pll.closed_loop_planner p in
  let mags =
    Parallel.Sweep.grid_local ?pool
      ~local:(fun () -> planner c)
      (fun plan w -> Cx.abs (Htm_core.Plan.baseband plan (Cx.jomega w)))
      ws
  in
  let plan = planner c in
  let mag w = Cx.abs (Htm_core.Plan.baseband plan (Cx.jomega w)) in
  metrics_of_grid ~points ~ws ~mags ~mag

type ratio_point = {
  ratio : float;
  pm_lti_deg : float;
  omega_ug_eff_norm : float;
  pm_eff_deg : float;
  peak_db : float;
  stable : bool;
}

let is_stable_tv p = Zmodel.is_stable (Zmodel.of_pll p)

let ratio_sweep ?pool spec ratios =
  Parallel.Sweep.map_list ?pool
    (fun ratio ->
      let p = Design.synthesize (Design.with_ratio spec ratio) in
      let lti = lti_report p in
      let eff = effective_report p in
      let metrics = closed_loop_metrics ?pool p in
      let w_ug = Design.omega_ug (Design.with_ratio spec ratio) in
      {
        ratio;
        pm_lti_deg = Option.value ~default:Float.nan lti.phase_margin_deg;
        omega_ug_eff_norm =
          (match eff.omega_ug with
          | Some w -> w /. w_ug
          | None -> Float.nan);
        pm_eff_deg = Option.value ~default:Float.nan eff.phase_margin_deg;
        peak_db = metrics.peak_db;
        stable = is_stable_tv p;
      })
    ratios

let design_for_effective_margin spec ~target_deg =
  (* The map (LTI target) -> (effective margin) is monotone over the
     usable range; walk it with the current shortfall as the step. *)
  let effective lti_target =
    let candidate = { spec with Design.phase_margin_deg = lti_target } in
    let p = Design.synthesize candidate in
    if not (is_stable_tv p) then None
    else
      Option.map
        (fun pm -> (candidate, pm))
        (effective_report p).phase_margin_deg
  in
  let rec refine lti_target iterations =
    if iterations = 0 || lti_target >= 88.0 then None
    else
      match effective lti_target with
      | None -> refine (lti_target +. 5.0) (iterations - 1)
      | Some (candidate, pm) ->
          if Float.abs (pm -. target_deg) < 0.05 then Some (candidate, pm)
          else refine (lti_target +. (target_deg -. pm)) (iterations - 1)
  in
  refine target_deg 40

let pp_opt pp_v ppf = function
  | None -> Format.pp_print_string ppf "n/a"
  | Some v -> pp_v ppf v

let pp_loop_report ppf r =
  Format.fprintf ppf "ω_UG=%a rad/s, PM=%a°, GM=%a dB"
    (pp_opt (fun f x -> Format.fprintf f "%.6g" x))
    r.omega_ug
    (pp_opt (fun f x -> Format.fprintf f "%.2f" x))
    r.phase_margin_deg
    (pp_opt (fun f x -> Format.fprintf f "%.2f" x))
    r.gain_margin_db
