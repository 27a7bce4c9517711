(** Behavioral time-marching PLL model — the reference simulation.

    This is the counterpart of the paper's Matlab/Simulink model: the
    PFD is implemented "using flip-flops", i.e. as the tri-state
    sequential machine of a real charge-pump PFD, so the phase error is
    encoded in the *width* of the UP/DOWN pulses, not idealized into
    impulses. The charge pump switches ±I_cp into the loop-filter
    network whose ODE (plus the integrating VCO) is integrated between
    events by the {!Hybrid} engine.

    Conventions follow the paper: phases are *time shifts* in seconds
    ([V(t) = x(t + θ(t))]); the reference edge [k] fires when
    [t + θ_ref(t) = kT]; the divided VCO edge fires when the VCO phase
    accumulates [2πN]; the recovered output is
    [θ(t) = φ(t)/ω_vco − t]. *)

type stimulus = {
  theta_ref : float -> float;  (** reference time-shift modulation, s *)
  vco_freq_mod : float -> float;
      (** open-loop VCO frequency disturbance, rad/s at the VCO output —
          the behavioral injection point for oscillator phase noise:
          a time-shift disturbance [θ_n(t)] corresponds to
          [ω_vco·dθ_n/dt] here *)
}

(** No modulation. *)
val quiet : stimulus

(** [sine_modulation ~eps ~omega] — [θ_ref(t) = eps·sin(ω t)]. *)
val sine_modulation : eps:float -> omega:float -> stimulus

(** [step_modulation ~eps ~at] — [θ_ref(t) = eps·1(t ≥ at)]. *)
val step_modulation : eps:float -> at:float -> stimulus
[@@lint.allow "test-only-export" "queued: only its own unit tests call it"]

(** [vco_sine_disturbance ~eps ~omega ~pll] — an oscillator time-shift
    disturbance [θ_n(t) = eps·sin(ω t)] injected inside the VCO (its
    frequency-domain image is the error transfer [(I+G)^{-1}]). *)
val vco_sine_disturbance : eps:float -> omega:float -> pll:Pll_lib.Pll.t -> stimulus

(** Charge-pump/PFD non-idealities of a real implementation; all default
    to the ideal values used by the small-signal model. *)
type nonideal = {
  reset_delay : float;
      (** tri-state reset path delay, s: after both flip-flops are high,
          both pulses persist for this long (the standard dead-zone
          cure; it converts the error pulse into a pulse *pair* whose
          net charge is still proportional to the error) *)
  up_current_gain : float;
      (** UP current is [up_current_gain · I_cp]; a mismatch with the
          (unit-gain) DOWN source leaves a static phase offset and a
          periodic ripple spur in lock *)
  leakage : float;
      (** constant parasitic current off the control node, A *)
}

val ideal : nonideal

type config = {
  pll : Pll_lib.Pll.t;
  vco_freq_offset : float;
      (** initial VCO free-running frequency error at the VCO output, Hz
          (0 = start in lock) *)
  steps_per_period : int;  (** integration/sampling resolution *)
  nonideal : nonideal;
  div_sequence : (int -> float) option;
      (** per-cycle divider modulus (cycle index → count). [None] uses
          the constant [pll.n_div]. A ΔΣ-modulated sequence whose
          *average* equals [pll.n_div] makes this a fractional-N
          synthesizer (see {!Fractional}); the analysis side (A(s), v₀)
          keeps using the average modulus. *)
}

val default_config : Pll_lib.Pll.t -> config

type record = {
  theta : Waveform.t;  (** VCO time shift θ(t), s *)
  control : Waveform.t;  (** loop-filter output voltage, V *)
  current : Waveform.t;  (** instantaneous charge-pump current, A *)
  pulses : (float * float) list;
      (** (start time, signed width) of each completed charge-pump
          pulse, oldest first *)
}

(** [run config stimulus ~t_end] — simulate from a phase-aligned start
    at [t = 0] to [t_end]. *)
val run : config -> stimulus -> t_end:float -> record
