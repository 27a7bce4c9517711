(** Dense univariate polynomials over the complex field.

    Coefficients are stored in ascending-degree order; the zero polynomial
    is the empty coefficient list. Transfer functions ([Lti.Tf]) and the
    partial-fraction machinery behind the exact effective open-loop gain
    λ(s) are built on this module. *)

type t

(** [of_coeffs [a0; a1; ...]] is [a0 + a1 s + ...]. Trailing (numerically
    exact) zeros are trimmed. *)
val of_coeffs : Cx.t list -> t

val of_real_coeffs : float list -> t
val of_array : Cx.t array -> t
val coeffs : t -> Cx.t array

(** [coeff p k] is the coefficient of [s^k] (zero beyond the degree). *)
val coeff : t -> int -> Cx.t

val zero : t
val one : t

(** The monomial [s]. *)
val s : t

(** [constant z] is the degree-0 polynomial [z]. *)
val constant : Cx.t -> t

(** [monomial z k] is [z s^k]. *)
val monomial : Cx.t -> int -> t
[@@lint.allow "test-only-export" "queued: only its own unit tests call it"]

(** [degree p] is -1 for the zero polynomial. *)
val degree : t -> int

val is_zero : t -> bool
val eval : t -> Cx.t -> Cx.t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val scale : Cx.t -> t -> t

(** [pow p n] for [n >= 0]. *)
val pow : t -> int -> t

val derivative : t -> t

(** [divmod n d] is [(q, r)] with [n = q d + r], [degree r < degree d].
    @raise Division_by_zero if [d] is the zero polynomial. *)
val divmod : t -> t -> t * t

(** [from_roots rs] is the monic polynomial with the given roots. *)
val from_roots : Cx.t list -> t

(** [monic p] divides by the leading coefficient.
    @raise Division_by_zero on the zero polynomial. *)
val monic : t -> t

(** [shift p a] is the polynomial [q] with [q(s) = p(s + a)] — the Taylor
    recentering used by the partial-fraction residue computation. *)
val shift : t -> Cx.t -> t

(** [deflate p r] divides out the root [r] once (synthetic division),
    discarding the remainder. *)
val deflate : t -> Cx.t -> t

val equal : ?tol:float -> t -> t -> bool
[@@lint.allow "test-only-export" "test seam: the comparator of the polynomial tests"]
val pp : Format.formatter -> t -> unit
