(** Partial-fraction expansion of rational functions.

    A strictly proper rational expands as
    [sum_i sum_{l=1..k_i} r_{i,l} / (s - p_i)^l]. The residues are
    computed exactly (up to root-finding accuracy) with Taylor
    recentering and power-series division — no numerical differentiation.

    This is the bridge to the paper's exact effective open-loop gain:
    [λ(s) = sum_m A(s + j m ω₀)] reduces term-by-term to the closed
    harmonic sums of {!Special} once [A] is in partial fractions. *)

type term = {
  pole : Cx.t;
  order : int;  (** [l >= 1]: the term is [residue / (s - pole)^order] *)
  residue : Cx.t;
}

type t = {
  terms : term list;
  direct : Poly.t;  (** polynomial part, nonzero only for improper input *)
}

(** [expand ?tol r] expands [r]. [tol] controls the root clustering that
    decides pole multiplicities. *)
val expand : ?tol:float -> Rat.t -> t

(** [eval e x] re-evaluates the expansion — used to validate residues
    against the original rational. *)
val eval : t -> Cx.t -> Cx.t
[@@lint.allow "test-only-export" "test seam: evaluates an expansion against its rational"]

(** [to_rat e] recombines the expansion over a common denominator. *)
val to_rat : t -> Rat.t
[@@lint.allow "test-only-export" "queued: only its own unit tests call it"]
