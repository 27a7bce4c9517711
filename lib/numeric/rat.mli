(** Rational functions [num/den] over the complex field.

    The representation is not automatically reduced; [reduce] cancels
    numerically-coincident pole/zero pairs on demand. Transfer functions
    in both the s- and z-domain are rationals of this kind. *)

type t = { num : Poly.t; den : Poly.t }

(** @raise Division_by_zero if [den] is the zero polynomial. *)
val make : Poly.t -> Poly.t -> t

val of_poly : Poly.t -> t
val zero : t
val one : t
[@@lint.allow "test-only-export" "test seam: fixture of the rational-algebra properties"]

(** The rational [s] (identity map). *)
val s : t

val eval : t -> Cx.t -> Cx.t

(** {1 Allocation-free evaluation}

    [split r] precompiles the coefficients into flat unboxed arrays;
    {!eval_into} then evaluates the rational without allocating a single
    heap block — the hot path of grid-batched HTM plans, where one
    rational is evaluated at thousands of shifted frequencies.
    [eval_into] is bit-identical to {!eval}: the Horner recurrences and
    the complex division mirror [Poly.eval] and [Complex.div] (Smith's
    algorithm) operation for operation.

    A [split] carries a small private evaluation scratch (that is how it
    stays allocation-free), so one [split] value supports one evaluation
    at a time: give each concurrent lane its own [split] — grid plans do
    this by construction, one compiled plan per lane. *)

type split

val split : t -> split

(** [eval_shifted_into sp s ~shifts ~lo ~hi ~out_re ~out_im] — for [i]
    in [lo..hi], evaluate at [s + i·shifts.(i)] and store the result at
    [out_re.(i)], [out_im.(i)]: the bits of
    [eval_into sp ~re:(Cx.re s) ~im:(Cx.im s +. shifts.(i))], with no
    float boxed per row (an HTM leaf's harmonic fill). *)
val eval_shifted_into :
  split ->
  Cx.t ->
  shifts:float array ->
  lo:int ->
  hi:int ->
  out_re:float array ->
  out_im:float array ->
  unit

(** [eval_split sp x] — boxed convenience wrapper over {!eval_into}
    (equality-with-{!eval} tests). *)
val eval_split : split -> Cx.t -> Cx.t
[@@lint.allow "test-only-export" "oracle: the split evaluation the unboxed kernels equal bit for bit"]
val add : t -> t -> t
val mul : t -> t -> t
val inv : t -> t
val scale : Cx.t -> t -> t

(** [feedback_unity g] is [g / (1 + g)]. *)
val feedback_unity : t -> t

val derivative : t -> t
[@@lint.allow "test-only-export" "queued: only its own unit tests call it"]
val poles : t -> Cx.t list
val zeros : t -> Cx.t list

val is_proper : t -> bool
val is_strictly_proper : t -> bool

(** [reduce ?tol r] cancels pole/zero pairs that coincide within [tol]
    (relative) and normalizes the denominator to monic form. *)
val reduce : ?tol:float -> t -> t
[@@lint.allow "test-only-export" "queued: only its own unit tests call it"]

(** [normalize r] makes the denominator monic without cancelling. *)
val normalize : t -> t
[@@lint.allow "test-only-export" "queued: only its own unit tests call it"]

val equal_response : ?tol:float -> ?points:int -> t -> t -> bool
[@@lint.allow "test-only-export" "test seam: the comparator of the rational tests"]
val pp : Format.formatter -> t -> unit
