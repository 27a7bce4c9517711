(** Dense complex matrices (row-major).

    Truncated harmonic transfer matrices are realized as values of this
    type; the composition rules of the HTM calculus (series = product,
    parallel = sum, rank-one sampler = outer product) map directly onto
    the operations below. *)

type t

val init : int -> int -> (int -> int -> Cx.t) -> t

(** [rows m], [cols m]: dimensions. *)
val rows : t -> int

val cols : t -> int
val get : t -> int -> int -> Cx.t
val set : t -> int -> int -> Cx.t -> unit
val zeros : int -> int -> t
val identity : int -> t

val of_rows : Cx.t array array -> t
[@@lint.allow "test-only-export" "test seam: fixture builder of the matrix and LU tests"]
val row : t -> int -> Cvec.t
[@@lint.allow "test-only-export" "test seam: reads the sampler rank-one structure in core.htm"]
val col : t -> int -> Cvec.t
val add : t -> t -> t
val sub : t -> t -> t
val scale : Cx.t -> t -> t
val mul : t -> t -> t

(** [mv m v] is the matrix-vector product. *)
val mv : t -> Cvec.t -> Cvec.t
[@@lint.allow "test-only-export" "oracle: the boxed product that LU residuals and Pll.v_tilde's banded row sums are checked against"]

(** [outer u v] is the rank-one matrix [u v^T] (no conjugation) — the
    shape of the sampling-PFD HTM. *)
val outer : Cvec.t -> Cvec.t -> t
[@@lint.allow "test-only-export" "queued: only its own unit tests call it"]

val transpose : t -> t
[@@lint.allow "test-only-export" "queued: only its own unit tests call it"]

(** [sum_entries m] is [l^T m l]: the sum of all entries, which for an
    HTM product equals the paper's effective open-loop gain λ(s). *)
val sum_entries : t -> Cx.t
[@@lint.allow "test-only-export" "queued: only its own unit tests call it"]

val norm_frobenius : t -> float

val equal : ?tol:float -> t -> t -> bool
[@@lint.allow "test-only-export" "test seam: the comparator of the HTM and plan differential tests"]
