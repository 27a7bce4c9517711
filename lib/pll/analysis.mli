(** Loop analysis: LTI predictions vs. the paper's time-varying ones.

    The LTI report analyzes [A(jω)] — classical textbook analysis. The
    effective report analyzes [λ(jω)], the effective open-loop gain of
    eq. 37, whose unity-gain frequency and phase margin are the
    quantities plotted in the paper's Fig. 7. λ is ω₀-periodic along the
    imaginary axis (it has poles at every multiple of ω₀), so the
    crossover search is confined to (0, ω₀/2). *)

type loop_report = {
  omega_ug : float option;  (** unity-gain frequency, rad/s *)
  phase_margin_deg : float option;
  gain_margin_db : float option;
}

type closed_loop_metrics = {
  dc_mag : float;  (** |H₀₀| at the low-frequency end (≈1 in lock) *)
  peak_mag : float;  (** max |H₀₀(jω)| over the band *)
  peak_db : float;
  peak_freq : float;  (** rad/s *)
  bandwidth_3db : float option;
      (** first ω where |H₀₀| drops 3 dB below [dc_mag] *)
}

(** [lti_report p] — margins of the classical open loop [A(jω)]. *)
val lti_report : Pll.t -> loop_report

(** [effective_report ?method_ p] — margins of λ(jω) ({!Pll.lambda_fn},
    the loop's own λ behind an ISF VCO too), searched over (0, ω₀/2).
    Default method: [Exact]. *)
val effective_report : ?method_:Pll.lambda_method -> Pll.t -> loop_report

(** [closed_loop_metrics ?method_ ?points ?pool p] — peaking and
    bandwidth of [|H₀₀(jω)|] ({!Pll.h00_fn}: eq. 38, or its ISF form
    behind an ISF VCO) on a log grid up to ω₀/2. The grid
    is evaluated on [pool] (default [Parallel.Pool.default]); results
    are bit-identical for any pool size. *)
val closed_loop_metrics :
  ?method_:Pll.lambda_method ->
  ?points:int ->
  ?pool:Parallel.Pool.t ->
  Pll.t ->
  closed_loop_metrics

(** [closed_loop_metrics_htm ?n_harm ?points ?pool p] — the same
    metrics computed from [|H₀₀|] of the {b truncated closed-loop HTM}
    (grid-batched through {!Pll.closed_loop_planner}: one plan per
    lane, one exact λ for all of them, one entry demanded per point)
    instead of the closed form: this path is also valid for mixing
    PFDs, which have no closed form. With the sampling PFD (and
    [n_harm ≥ K] behind an ISF VCO with K harmonics) the two agree to
    rounding (the plan substitutes the exact λ). *)
val closed_loop_metrics_htm :
  ?n_harm:int ->
  ?points:int ->
  ?pool:Parallel.Pool.t ->
  Pll.t ->
  closed_loop_metrics

(** Row of the Fig. 7 sweep. *)
type ratio_point = {
  ratio : float;  (** ω_UG/ω₀ *)
  pm_lti_deg : float;  (** LTI phase margin — the horizontal line *)
  omega_ug_eff_norm : float;  (** ω_UG,eff / ω_UG — upper plot *)
  pm_eff_deg : float;  (** phase margin of λ — lower plot *)
  peak_db : float;  (** closed-loop peaking, Fig. 6's other symptom *)
  stable : bool;  (** closed loop stable per the discrete-time model *)
}

(** [ratio_sweep ?pool spec ratios] — re-synthesizes the loop at each
    ratio and evaluates the Fig. 7 quantities. Ratios are analyzed in
    parallel on [pool] (default [Parallel.Pool.default]); row order and
    every float are bit-identical for any pool size. *)
val ratio_sweep :
  ?pool:Parallel.Pool.t -> Design.spec -> float list -> ratio_point list

(** [is_stable_tv p] — time-varying stability: all closed-loop poles of
    the exact discrete-time model inside the unit circle. *)
val is_stable_tv : Pll.t -> bool

(** [design_for_effective_margin spec ~target_deg] — iterate the *LTI*
    margin target until the *time-varying* margin (phase margin of λ)
    reaches [target_deg]: the design loop closed on the paper's analysis
    instead of the textbook one. Returns the over-designed spec and the
    achieved effective margin, or [None] when no second-order design can
    deliver the target at this loop speed (fast loops hit the Gardner
    bound — see EXPERIMENTS.md). *)
val design_for_effective_margin :
  Design.spec -> target_deg:float -> (Design.spec * float) option

val pp_loop_report : Format.formatter -> loop_report -> unit
