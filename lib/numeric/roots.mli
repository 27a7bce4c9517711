(** Polynomial root finding.

    Degrees 1 and 2 use closed forms; higher degrees use the
    Durand–Kerner (Weierstrass) simultaneous iteration followed by a
    Newton polish of each root on the original polynomial. Poles and
    zeros of transfer functions and the partial-fraction expansion of
    [A(s)] (hence the exact λ(s)) come through here. *)

(** [all p] returns the [degree p] roots of [p] (with multiplicity,
    approximated as clusters of nearby simple roots).
    @raise Invalid_argument on the zero polynomial. *)
val all : ?max_iter:int -> ?tol:float -> Poly.t -> Cx.t list

(** [newton_polish p z] runs a few Newton steps on [p] from [z]. *)
val newton_polish : ?steps:int -> Poly.t -> Cx.t -> Cx.t
[@@lint.allow "test-only-export" "test seam: the polish step of the root finder, unit-tested directly"]

(** [cluster_eps ?tol roots] is the distance at or below which
    {!cluster} merges two of [roots]: [tol] (default [1e-6]) times the
    largest root magnitude, or times 1 if that is smaller. *)
val cluster_eps : ?tol:float -> Cx.t list -> float

(** [cluster ?tol roots] groups roots at most [cluster_eps ?tol roots]
    apart into (representative, multiplicity) pairs; the representative
    is the cluster mean. *)
val cluster : ?tol:float -> Cx.t list -> (Cx.t * int) list
