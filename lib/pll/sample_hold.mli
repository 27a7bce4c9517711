(** Sample-and-hold phase detector — the paper's "extension to arbitrary
    PFDs is possible", carried out for the other common detector type.

    Instead of a narrow charge pulse (≈ Dirac impulse), a sample-and-hold
    detector holds the sampled phase error for the *whole* reference
    period (a PFD followed by a sampled integrator / S&H pump). Its LPTV
    operator is "impulse-train sample, then convolve with a unit
    rectangle": the HTM is [H_zoh(s)·(ω₀/2π)·l·lᵀ] with
    [H_zoh(s) = (1 − e^{−sT})/s] — still rank one, so the whole
    Sherman–Morrison program goes through:

    - per-band open loop [A_sh(s) = A(s)·(1 − e^{−sT})/(sT)],
    - effective open loop
      [λ_sh(s) = ((1 − e^{−sT})/T)·Σ_m Q(s + jmω₀)], [Q(s) = A(s)/s]
      rational — so λ_sh has an *exact* coth closed form too,
    - baseband closed loop [H₀₀ = A_sh/(1 + λ_sh)].

    The exact discrete-time counterpart is the classical zero-order-hold
    discretization [x⁺ = Φx + Γe], and the impulse-invariance identity
    becomes [L(e^{jωT}) = λ_sh(jω)] — property-tested, as for the
    impulse PFD.

    The hold trades margin differently from the impulse pump: its ≈T/2
    delay costs phase margin *earlier* (already ~37° vs ~50° at
    [ω_UG/ω₀ = 0.1] for the 55° design), but its sinc-shaped magnitude
    rolloff attenuates the aliased gain terms, so the margin degrades
    *gracefully* instead of collapsing at the Gardner bound — see the
    PFD-comparison experiment. *)

[@@@lint.allow "test-only-export"
  "oracle: the sample-and-hold closed forms the generic machinery is checked against"]

(** [a_of_s pll s] — per-band open-loop gain [A_sh(s)]. *)
val a_of_s : Pll.t -> Numeric.Cx.t -> Numeric.Cx.t

(** [lambda_fn pll method_] — effective open-loop gain evaluator. *)
val lambda_fn : Pll.t -> Pll.lambda_method -> Numeric.Cx.t -> Numeric.Cx.t

val lambda : Pll.t -> Numeric.Cx.t -> Numeric.Cx.t

(** [h00 pll s] — baseband closed loop. *)
val h00 : Pll.t -> Numeric.Cx.t -> Numeric.Cx.t

(** [closed_loop_htm pll] — [(I+G)^{-1}G] via truncated LU. *)
val closed_loop_htm : Pll.t -> Htm_core.Htm.t

(** {1 Exact discrete-time model (ZOH)} *)

type discrete = {
  phi : Numeric.Rmat.t;
  gamma : float array;
  c : float array;
  period : float;
}

(** [discretize pll] — exact ZOH state update over one period. *)
val discretize : Pll.t -> discrete

(** [open_loop_response m w] is [L(e^{jwT})] (equals [λ_sh(jw)]). *)
val open_loop_response : discrete -> float -> Numeric.Cx.t

val is_stable : ?tol:float -> Pll.t -> bool
