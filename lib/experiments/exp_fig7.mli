(** FIG7 — effective unity-gain frequency and phase margin of λ(jω)
    versus ω_UG/ω₀ (paper Fig. 7).

    The upper plot of the figure is [ω_UG,eff/ω_UG]; the lower plot is
    the phase margin of λ with the LTI-predicted margin as a horizontal
    line. The paper's headline numbers: at [ω_UG/ω₀ = 0.1] the margin is
    already ≈9 % below the LTI prediction, degrading rapidly beyond. *)

val default_ratios : float list

val compute :
  ?spec:Pll_lib.Design.spec ->
  ?ratios:float list ->
  ?pool:Parallel.Pool.t ->
  unit ->
  Pll_lib.Analysis.ratio_point list
[@@lint.allow "test-only-export" "test seam: the numbers behind the printed figure, which the experiments tests assert"]

val print : Format.formatter -> Pll_lib.Analysis.ratio_point list -> unit
val run : unit -> unit
