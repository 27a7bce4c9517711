(** The HTM composition tree — shared representation of {!Htm} (validated
    constructors, per-point API) and {!Plan} (the plan/execute
    evaluator behind it).

    The constructors are exposed so the plan compiler can pattern-match
    the tree, but values should be built through [Htm]'s smart
    constructors, which enforce the representation invariants (odd
    periodic-gain coefficient length, defensively copied arrays). *)

open Numeric

(** Evaluation context: truncation size and fundamental frequency. *)
type ctx = { n_harm : int; omega0 : float }

type t =
  | Lti of (Cx.t -> Cx.t)
  | Lti_rat of Rat.t
      (** same HTM as [Lti (Rat.eval r)]; the rational form additionally
          enables the unboxed diagonal fill of the plan layer *)
  | Periodic_gain of Cx.t array
  | Sampler
  | Identity
  | Zero
  | Scale of Cx.t * t
  | Series of t * t
  | Parallel of t * t
  | Sub of t * t
  | Feedback of t
  | Custom of (ctx -> Cx.t -> Cmat.t)

(** Matrix dimension of a truncation: [2·n_harm + 1]. *)
val dim : ctx -> int

val harmonic_of_index : ctx -> int -> int
val index_of_harmonic : ctx -> int -> int

(** The all-dense boxed reference oracle (see [Htm.to_matrix_dense]). *)
val to_matrix_dense : ctx -> t -> Cx.t -> Cmat.t

(** [row_dense c t s i] — row [i] of [to_matrix_dense c t s], bit for
    bit, at the cost of that row: the left spine of a product is
    followed as a row vector, leaf right factors are read along their
    band, and only other right factors, feedback loops and custom
    blocks are realized whole. The dense fallback of a plan point whose
    caller reads one entry or one row ({!Plan.element}, {!Plan.row}).
    @raise Invalid_argument if [i] is outside [0 .. dim c - 1]. *)
val row_dense : ctx -> t -> Cx.t -> int -> Cvec.t
