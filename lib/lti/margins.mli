(** Stability margins of an open-loop frequency response.

    Phase margin is the paper's headline metric: Fig. 7 shows the phase
    margin of the *effective* open loop λ(jω) collapsing as ω_UG/ω₀
    grows, while the LTI phase margin of A(jω) stays put. Both come out
    of the same crossover search below, applied to different response
    functions. *)

type report = {
  unity_gain_freq : float option;
      (** lowest ω with |L(jω)| = 1 in the scanned range *)
  phase_margin_deg : float option;
      (** 180° + arg L(jω_UG), principal-value argument *)
  gain_margin_db : float option;
      (** -|L| in dB at the lowest phase crossover of -180° *)
  phase_cross_freq : float option;
}

(** [analyze f ~lo ~hi] scans the response [f] (values of the open loop
    at [jω]) between the positive frequencies [lo] and [hi]. *)
val analyze : ?steps:int -> (float -> Numeric.Cx.t) -> lo:float -> hi:float -> report

(** [unity_gain_crossover f ~lo ~hi] — just the crossover search. *)
val unity_gain_crossover :
  ?steps:int -> (float -> Numeric.Cx.t) -> lo:float -> hi:float -> float option

(** [phase_margin_at f w] is [180 + arg f(jw)] in degrees, using the
    principal value of the argument. *)
val phase_margin_at : (float -> Numeric.Cx.t) -> float -> float
[@@lint.allow "test-only-export" "test seam: the margin step of analyze, unit-tested directly"]
