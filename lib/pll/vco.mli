(** Voltage-controlled oscillator small-signal model (paper §3.3).

    Following [Demir–Mehrotra–Roychowdhury], a perturbation [Δu(t)] on
    the control input moves the oscillator's time shift [θ] (seconds, as
    in the paper's signal model [V_osc(t) = x_osc(t + θ(t))]) according
    to [dθ/dt = v(t + θ)·Δu(t)] where [v] is the T-periodic impulse
    sensitivity function (ISF). Near lock ([θ/T ≪ 1]) this linearizes to
    the LPTV operator "multiply by v(t), then integrate" whose HTM is
    eq. 25.

    The time-invariant special case [v(t) = v₀] gives the diagonal HTM
    [v₀/s] used in the paper's experiments; the general case is the
    "time-varying VCO" extension the paper points to.

    A prescaler (÷N) is part of the VCO model (paper's footnote): an
    edge time shift of [θ] seconds on the VCO output is a time shift of
    the same [θ] seconds on the divided output, so the divider is the
    identity in this time-shift formulation; it only enters through the
    sensitivity [v₀ = K_vco / (N·f_ref)]. *)

type t = {
  v0 : float;  (** DC ISF component: time-shift sensitivity, 1/V *)
  harmonics : Numeric.Cx.t array option;
      (** full ISF Fourier coefficients (odd length, DC at center,
          including [v0] at the center slot); [None] = time-invariant *)
}

(** [time_invariant ~kvco ~n_div ~fref] — [v₀ = K_vco/(N·f_ref)] with
    [K_vco] in Hz/V. *)
val time_invariant : kvco:float -> n_div:float -> fref:float -> t

(** [with_isf ~kvco ~n_div ~fref ~harmonics] — time-varying ISF given as
    relative harmonics [r_k] (the actual ISF is [v₀·(1 + Σ_{k≠0} r_k
    e^{jkω₀t})]); [harmonics] lists [r_k] for [k = 1..]; conjugate
    symmetry is applied automatically so the ISF is real. *)
val with_isf :
  kvco:float -> n_div:float -> fref:float -> harmonics:Numeric.Cx.t list -> t

(** [isf_coeffs vco ~max_harmonic] — padded/truncated coefficient array
    (odd length [2*max_harmonic+1]) ready for HTM construction. *)
val isf_coeffs : t -> max_harmonic:int -> Numeric.Cx.t array
[@@lint.allow "test-only-export" "test seam: reads the ISF harmonics the VCO tests check"]

val is_time_invariant : t -> bool

(** [htm vco] — eq. 25: [series (lti 1/s) (periodic_gain v)]. *)
val htm : t -> Htm_core.Htm.t

(** [tf vco] — LTI approximation [v₀/s].*)
val tf : t -> Lti.Tf.t
