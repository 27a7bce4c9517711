(** Dense complex vectors.

    Thin, explicit wrapper around [Complex.t array]; indices are 0-based.
    Used for HTM column vectors (e.g. the all-ones vector [l] of the
    sampling-PFD rank-one structure) and linear-solve right-hand sides. *)

type t

val init : int -> (int -> Cx.t) -> t
val of_array : Cx.t array -> t
val of_real_array : float array -> t
val dim : t -> int
val get : t -> int -> Cx.t

val ones : int -> t
[@@lint.allow "test-only-export" "oracle: the all-ones vector l of the row-sum and sum checks"]

val add : t -> t -> t
[@@lint.allow "test-only-export" "queued: only its own unit tests call it"]
val sub : t -> t -> t
[@@lint.allow "test-only-export" "test seam: residual of the LU solve property"]

(** [scale a v] multiplies every entry by the complex scalar [a]. *)
val scale : Cx.t -> t -> t

(** [dot u v] is the bilinear product [sum u_i * v_i] (no conjugation);
    this is the product that appears in the HTM rank-one algebra
    [l^T V]. *)
val dot : t -> t -> Cx.t
[@@lint.allow "test-only-export" "test seam: the rank-one action check of the matrix tests"]

(** [sum v] is the sum of all entries ([l^T v]). *)
val sum : t -> Cx.t

val norm2 : t -> float
[@@lint.allow "test-only-export" "queued: only its own unit tests call it"]
val norm_inf : t -> float
[@@lint.allow "test-only-export" "test seam: residual norm of the LU and entry-elimination tests"]
