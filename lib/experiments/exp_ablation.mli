(** ABLATION — quantifying the design choices called out in DESIGN.md.

    Three studies, none in the paper but each justifying one of its
    (or our) modeling decisions:

    - {b λ truncation}: error of the symmetric truncation
      [Σ over m from -M to M of A(s + jmω₀)] against the exact coth
      closed form, as a function of M — why the exact evaluation is the
      default (the sum converges only like 1/M because [A] decays as
      1/ω²).
    - {b HTM truncation}: error of the generic LU closed loop
      (eq. 28) against the rank-one closed form (eq. 34) as the number
      of retained harmonics grows — what "truncated" costs when the
      rank-one shortcut is not available (e.g. arbitrary PFDs).
    - {b loop-filter topology}: the effect of a third-order ripple pole
      on the *time-varying* phase margin and on the stability boundary —
      a designer ablation the LTI story gets doubly wrong. *)

type lambda_row = { terms : int; rel_err : float }

type htm_row = { n_harm : int; rel_err : float }

type filter_row = {
  ripple_pole_factor : float;
      (** ripple pole at [factor · ω_UG]; infinity = pure 2nd order *)
  pm_lti_deg : float;
  pm_eff_deg : float;  (** NaN when the sampled loop is unstable *)
  stable : bool;
}

type t = {
  lambda_rows : lambda_row list;
  htm_rows : htm_row list;
  filter_rows : filter_row list;
}

val compute : ?spec:Pll_lib.Design.spec -> unit -> t
[@@lint.allow "test-only-export" "test seam: the numbers behind the printed figure, which the experiments tests assert"]
val run : unit -> unit
