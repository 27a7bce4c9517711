(** XCHK — cross-validation of the independent formalisms.

    Not a paper figure: our own consistency experiment tying together
    four independently implemented routes to the same physics.

    - λ(s): exact coth closed form vs symmetric truncation vs sum of
      the truncated [H_VCO·H_LF] matrix entries vs the exact
      discrete-time model's [L(e^{sT})] (they agree to near machine
      precision — the last identity is impulse invariance).
    - closed-loop poles: eigenvalues of the discrete model map through
      [s = ln(z)/T] onto roots of [1 + λ(s) = 0].
    - closed-loop step response of the discrete model settles to 1
      (type-2 loop tracks phase steps exactly). *)

type lambda_row = {
  s_frac : float;  (** evaluation point, ω/ω₀ on the jω axis *)
  exact : Numeric.Cx.t;
  truncated_dev : float;
  matrix_dev : float;
  zmodel_dev : float;
}

type pole_row = {
  z_pole : Numeric.Cx.t;
  s_pole : Numeric.Cx.t;
  residual : float;  (** |1 + λ(s_pole)| *)
}

type t = {
  lambda_rows : lambda_row list;
  pole_rows : pole_row list;
  step_final_dev : float;  (** |θ_∞ − 1| of the discrete step response *)
}

val compute : ?spec:Pll_lib.Design.spec -> unit -> t
[@@lint.allow "test-only-export" "test seam: the numbers behind the printed figure, which the experiments tests assert"]
val run : unit -> unit
