(** Loop-design synthesis.

    Produces the paper's reference loop shape (Fig. 5: two poles at DC,
    one zero, one finite pole) at any requested [ω_UG/ω₀] ratio with a
    prescribed *LTI* phase margin, using the standard γ-factor placement
    (zero at [ω_UG/γ], pole at [ω_UG·γ], [γ = tan(45° + φ_m/2)]).

    Every experiment sweeps this synthesis over ratios so that — exactly
    as in the paper — the normalized open-loop characteristic is held
    fixed while the loop speed moves relative to the reference
    frequency. *)

type spec = {
  fref : float;  (** reference frequency, Hz *)
  n_div : float;
  icp : float;  (** charge-pump current, A *)
  kvco : float;  (** VCO gain, Hz/V *)
  ratio : float;  (** target [ω_UG/ω₀] *)
  phase_margin_deg : float;  (** target LTI phase margin *)
}

(** A sensible default: 1 MHz reference, ÷64, 100 µA pump, 20 MHz/V
    VCO, 55° LTI phase margin, ratio 0.1. *)
val default_spec : spec

(** [synthesize spec] — returns the PLL with a second-order charge-pump
    filter realizing the spec; the LTI unity-gain frequency and phase
    margin land on the spec values by construction. *)
val synthesize : spec -> Pll.t

(** [with_ratio spec r] — same spec at a different [ω_UG/ω₀]. *)
val with_ratio : spec -> float -> spec

(** [gamma_of_phase_margin pm_deg] — the pole/zero spread
    [γ = tan(45° + φ_m/2)]. *)
val gamma_of_phase_margin : float -> float
[@@lint.allow "test-only-export" "test seam: the gamma(PM) step of synthesize, unit-tested directly"]

(** [omega_ug spec] — the target unity-gain frequency in rad/s. *)
val omega_ug : spec -> float

