(** Flat, unboxed complex matrices with in-place kernels.

    Storage is two row-major [float array]s (split real/imaginary
    parts), which the OCaml runtime keeps unboxed — unlike {!Cmat.t},
    whose every entry is a heap-allocated [Complex.t]. All kernels write
    into caller-provided storage; the only allocating operations are
    the constructors and the converter. This is the bottom layer of
    the structure-aware HTM evaluator: structured representations
    compose symbolically, and a dense realization lives in a [Cmatf.t].

    Conversion from [Cmat.t] is lossless (every entry is copied
    bit-for-bit). *)

type t

(** [create rows cols] is a zero-filled matrix. *)
val create : int -> int -> t

val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> Cx.t
val set : t -> int -> int -> Cx.t -> unit
val copy : t -> t
[@@lint.allow "test-only-export" "test seam: clones an LU input for the banded-vs-dense bit-identity tests"]

(** [blit ~src ~dst] copies [src] over [dst] (same shape). *)
val blit : src:t -> dst:t -> unit

val fill_zero : t -> unit
val identity : int -> t
[@@lint.allow "test-only-export" "test seam: input of the checked-LU identity test"]

(** [add_ident ?alpha a] — [a += alpha·I] in place (default [alpha] 1). *)
val add_ident : ?alpha:Cx.t -> t -> unit

(** [scale_inplace z a] — [a *= z] in place. *)
val scale_inplace : Cx.t -> t -> unit

(** [gemm ~dst a b] — [dst = a·b]; [dst] is cleared first and must not
    alias an operand. Entries of [a] that are exactly zero skip their
    inner loop, so block-sparse operands cost what their support
    costs. *)
val gemm : dst:t -> t -> t -> unit

(** [gemv a ~xre ~xim ~yre ~yim] — [y = a·x] on split-array vectors. *)
val gemv :
  t ->
  xre:float array -> xim:float array -> yre:float array -> yim:float array ->
  unit

(** [gemv_herm a ~xre ~xim ~yre ~yim] — [y = aᴴ·x] without
    materializing the conjugate transpose. *)
val gemv_herm :
  t ->
  xre:float array -> xim:float array -> yre:float array -> yim:float array ->
  unit

(** {1 LU factorization with reusable workspace}

    The workspace holds the bandwidth of the matrices it factors, the
    pivot permutation, the condition estimator's iterate and a scratch
    buffer that grows monotonically; threading one workspace through a
    frequency sweep makes every factorization after the first
    allocation-free.

    {b Bandwidth.} A workspace made with [~kl ~ku] factors matrices
    whose entries [(i, j)] are zero for [i - j > kl] and [j - i > ku].
    Partial pivoting keeps [L] within [kl] entries per column and
    widens [U] to [kl + ku] superdiagonals, so factoring costs
    O(n·kl·(kl + ku)) and each right-hand side O(n·(kl + ku)). Rows
    still swap whole (the [P·A = L·U] layout of the dense kernel), and
    everything the band skips is an exact zero there: factors,
    permutation and solutions are bit-identical to a dense workspace's.
    An entry outside the declared band is a caller error and is
    silently ignored. *)

type lu_ws

(** [lu_ws ?kl ?ku n] — workspace for [n×n] factorizations with lower
    bandwidth [kl] and upper bandwidth [ku] (each defaults to [n - 1],
    the dense kernel, and is clamped to it).
    @raise Invalid_argument on a negative [n] or bandwidth. *)
val lu_ws : ?kl:int -> ?ku:int -> int -> lu_ws

(** [lu_decompose_inplace a ws] overwrites [a] with its LU factors
    (partial pivoting on modulus, inside [ws]'s band; permutation
    recorded in [ws]).
    @raise Lu.Singular when a pivot column is exactly zero. *)
val lu_decompose_inplace : t -> lu_ws -> unit
[@@lint.allow "test-only-export" "oracle: the raw dense LU the banded LU equals bit for bit"]

(** [lu_clear a ws] — zero [a] where the last factorization with [ws]
    (complete or not) may have left a nonzero: each stored row from
    the start of its L part, or of its band if earlier, to its last
    column within [ws]'s widened upper band. Every other entry of a
    factored or band-limited [a] is already an exact zero, so on such
    an [a] this is [fill_zero] at the cost of the band. *)
val lu_clear : t -> lu_ws -> unit

(** [lu_perm ws] — a copy of the row permutation of the last
    factorization: row [i] of the factors is row [(lu_perm ws).(i)] of
    the original matrix. *)
val lu_perm : lu_ws -> int array
[@@lint.allow "test-only-export" "test seam: pivot order the banded-vs-dense bit-identity tests compare"]

(** [lu_solve_inplace a ws b] — [b := a⁻¹·b] for [a] previously
    factored with [ws]; all columns of [b] advance together. The
    columns never mix, so an [n×1] [b] holding one column of a wider
    right-hand side gets the same bits as that column of the wide
    solve. *)
val lu_solve_inplace : t -> lu_ws -> t -> unit
[@@lint.allow "test-only-export" "oracle: the raw dense solve the banded solve equals bit for bit"]

(** {1 Norms, finiteness and condition estimation} *)

(** 1-norm (max column sum of moduli). *)
val norm1 : t -> float
[@@lint.allow "test-only-export" "test seam: norm the condition-estimate tests compare against"]

(** True iff every entry is finite (no NaN or infinity). *)
val is_finite : t -> bool

(** [is_finite_col m k] — true iff every entry of column [k] is
    finite. *)
val is_finite_col : t -> int -> bool

(** [lu_cond_est_1 a ws ~norm1_a] — Hager-style 1-norm condition
    estimate for a matrix already factored by [lu_decompose_inplace];
    [norm1_a] is {!norm1} of the original matrix (captured before the
    factorization overwrote it). A few solve/adjoint-solve rounds, each
    O(n²) dense or O(n·(kl + ku)) banded, give a lower bound on κ₁ that
    is reliably within a small factor. *)
val lu_cond_est_1 : t -> lu_ws -> norm1_a:float -> float
[@@lint.allow "test-only-export" "test seam: condition estimate the banded-vs-dense tests compare"]

(** {1 Checked factorization}

    [Result]-returning variants of the LU entry points; these guard the
    structured evaluator's fast path and never raise on numerical
    failure. *)

(** [lu_decompose_checked ?max_cond ~context a ws] factors [a] in place
    and returns its condition estimate, or
    [Error (Singular _)] when a pivot is exactly zero, the pivot
    diagonal is degenerate, or the estimate exceeds [max_cond]
    (default {!Robust.Config.max_cond}), or
    [Error (Non_finite _)] when a NaN/infinity reached the factors.
    On [Error] the contents of [a] are unspecified. *)
val lu_decompose_checked :
  ?max_cond:float ->
  context:string ->
  t ->
  lu_ws ->
  (float, Robust.Pllscope_error.t) result

(** [lu_solve_checked a ws b ~context] — [b := a⁻¹·b] plus a finiteness
    scan of the result. *)
val lu_solve_checked :
  t -> lu_ws -> t -> context:string -> (unit, Robust.Pllscope_error.t) result

(** {1 Raw storage access}

    [raw m] exposes the two row-major split halves backing [m]
    (entry [(i,k)] lives at index [i·cols + k]). The arrays are the
    live storage, not a copy: mutating them mutates [m]. Reserved for
    the plan/execute grid layer and benchmarks, which need unboxed
    bulk copies in and out of preallocated workspaces. *)
val raw : t -> float array * float array

(** {1 Lossless converter} *)

val of_cmat : Cmat.t -> t
