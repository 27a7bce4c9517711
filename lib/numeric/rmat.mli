(** Small dense real matrices, matrix exponential and characteristic
    polynomial.

    State-space loop-filter/VCO models are real; the exact discrete-time
    PLL model (the Hein–Scott-style baseline) needs [e^{AT}] and the
    closed-loop characteristic polynomial, both provided here. *)

type t

val init : int -> int -> (int -> int -> float) -> t
val of_rows : float array array -> t
[@@lint.allow "test-only-export" "test seam: fixture builder of the real-matrix, ODE and z-domain tests"]
val rows : t -> int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val zeros : int -> int -> t
val identity : int -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val mul : t -> t -> t
val mv : t -> float array -> float array

(** [solve a b] solves [A x = b] (via complex LU on the embedding).
    @raise Lu.Singular when [a] is singular. *)
val solve : t -> float array -> float array
[@@lint.allow "test-only-export" "queued: only its own unit tests call it"]

val inverse : t -> t
[@@lint.allow "test-only-export" "queued: only its own unit tests call it"]

(** [expm a] — matrix exponential by scaling-and-squaring with a
    degree-6 Padé approximant. *)
val expm : t -> t

(** [char_poly a] is the characteristic polynomial [det(sI - A)]
    (monic, real coefficients returned as a {!Poly.t}), computed with
    the Faddeev–LeVerrier recursion. *)
val char_poly : t -> Poly.t
[@@lint.allow "test-only-export" "test seam: the polynomial behind eigenvalues, unit-tested directly"]

(** [eigenvalues a] — roots of the characteristic polynomial. *)
val eigenvalues : t -> Cx.t list

val equal : ?tol:float -> t -> t -> bool
[@@lint.allow "test-only-export" "test seam: the comparator of the real-matrix tests"]
