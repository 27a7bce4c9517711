(** PFD — detector-type comparison (the paper's "extension to arbitrary
    PFDs is possible", made quantitative).

    The impulse-train charge-pump PFD (the paper's §3.1) and a
    sample-and-hold detector are both rank-one samplers, so the same
    closed-form machinery analyzes both. The comparison shows two
    distinct failure modes of fast sampled loops:

    - the charge pump keeps its margin longer but hits the Gardner
      bound abruptly (collapse near ω_UG/ω₀ ≈ 0.28 for the 55° design);
    - the hold's T/2 latency costs ≈18° of margin already at ratio 0.1,
      but its sinc rolloff attenuates the aliased gain, so degradation
      is gradual.

    Each row also re-verifies the impulse-invariance identity
    [L_sh(e^{jωT}) = λ_sh(jω)] on the sample-and-hold loop. *)

type row = {
  ratio : float;
  pm_impulse : float;  (** PM of λ (charge pump), deg; NaN if gone *)
  pm_sh : float;  (** PM of λ_sh (sample-and-hold), deg *)
  stable_impulse : bool;
  stable_sh : bool;
  identity_dev : float;  (** |λ_sh − L_sh(e^{jωT})| / |λ_sh| at a probe *)
}

val compute : ?spec:Pll_lib.Design.spec -> ?ratios:float list -> unit -> row list
[@@lint.allow "test-only-export" "test seam: the numbers behind the printed figure, which the experiments tests assert"]
val run : unit -> unit
