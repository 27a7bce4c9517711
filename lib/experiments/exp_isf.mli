(** ISF — time-varying VCO study (the paper's §3.3 machinery, which its
    own experiments leave at the time-invariant special case).

    A real oscillator's impulse sensitivity function [v(t)] has
    harmonics: the control input couples differently at different
    points of the VCO cycle. Then the VCO HTM (eq. 25) is no longer
    diagonal, the scalar λ(s) of eq. 37 no longer tells the whole
    story — but the PFD is still a sampler, so the rank-one
    Sherman–Morrison closure (eqs. 29–34) still applies with
    [Ṽ(s) = (ω₀/2π)·H_VCO·H_LF·l] computed from truncated matrices.

    This experiment sweeps the relative first-harmonic ISF content
    [|v₁/v₀|] and reports how far the true baseband closed loop moves
    from the time-invariant prediction, plus the aliasing sidebands the
    ISF creates. *)

type row = {
  isf_ratio : float;  (** |v₁|/v₀ *)
  h00_mag : float;  (** |H00| with the full time-varying VCO, at the probe frequency *)
  h00_ti_mag : float;  (** same with the ISF harmonics zeroed *)
  deviation : float;  (** relative difference *)
  sideband_up : float;
      (** |H10|: baseband input converted to the band around ω₀ *)
  lu_agreement : float;
      (** rank-one closure vs generic LU — consistency check *)
}

val compute :
  ?spec:Pll_lib.Design.spec -> ?omega_frac:float -> ?n_harm:int -> unit -> row list
[@@lint.allow "test-only-export" "test seam: the numbers behind the printed figure, which the experiments tests assert"]

val run : unit -> unit
