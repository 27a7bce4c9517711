(** Symbolic derivation of the paper's closed forms for the
    second-order charge-pump PLL.

    Everything is expressed over the named parameters

    [s, Icp, Kv, N, fref, R, C1, C2]

    with derived quantities folded in symbolically. The effective
    open-loop gain comes out as a finite closed-form expression in
    [coth] — the "symbolic expressions" the paper advertises:

    [λ(s) = r₂₀·(π/ω₀)²·(coth²(πs/ω₀) − 1)
          + r₁₀·(π/ω₀)·coth(πs/ω₀)
          + r₁ₚ·(π/ω₀)·coth(π(s+ω_p)/ω₀)]

    where [r₂₀, r₁₀, r₁ₚ] are the residues of the partial-fraction
    expansion of [A(s)] at the double pole at the origin and the filter
    pole [−ω_p]. Every expression here is validated in the test suite
    against the independent numeric pipeline ({!Pll_lib.Pll}). *)

[@@@lint.allow "test-only-export"
  "oracle: the symbolic lambda of eq. 37 and its closed forms"]

(** Residues and pole of the open loop, as expressions in the component
    symbols. *)
type residues = {
  r20 : Expr.t;  (** double pole at the origin, order-2 coefficient *)
  r10 : Expr.t;  (** double pole at the origin, order-1 coefficient *)
  r1p : Expr.t;  (** simple pole at [−ω_p] *)
  pole : Expr.t;  (** [ω_p = 1/(R·C_s)] *)
}

val residues : residues

(** [a_expr] — the classical open loop [A(s)] (eq. 35). *)
val a_expr : Expr.t

(** [lambda_expr] — the exact effective open-loop gain (eq. 37) in
    closed form. *)
val lambda_expr : Expr.t

(** [h00_lti_expr] — the textbook [A/(1+A)]. *)
val h00_lti_expr : Expr.t

(** [env_of_pll pll ~s] — environment from an assembled PLL.
    @raise Invalid_argument unless the filter is [Second_order]. *)
val env_of_pll : Pll_lib.Pll.t -> s:Numeric.Cx.t -> string -> Numeric.Cx.t

(** [eval_lambda pll s] / [eval_h00 pll s] — evaluate the symbolic
    expressions on a concrete design. *)
val eval_lambda : Pll_lib.Pll.t -> Numeric.Cx.t -> Numeric.Cx.t

val eval_h00 : Pll_lib.Pll.t -> Numeric.Cx.t -> Numeric.Cx.t

(** [sensitivity expr ~wrt pll ~s] — evaluate [∂expr/∂wrt] on a design:
    symbolic differentiation makes parametric design sensitivities
    (e.g. [∂λ/∂R]) one-liners. *)
val sensitivity :
  Expr.t -> wrt:string -> Pll_lib.Pll.t -> s:Numeric.Cx.t -> Numeric.Cx.t
