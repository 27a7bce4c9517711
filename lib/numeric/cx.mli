(** Complex scalar helpers on top of [Stdlib.Complex].

    All the numerics in this project (HTMs, transfer functions, harmonic
    sums) live over the complex field; this module centralizes the small
    conveniences that [Stdlib.Complex] lacks: literals, [j], comparison
    with tolerance, finiteness checks and a printer. *)

type t = Complex.t

val zero : t
val one : t

(** The imaginary unit. *)
val j : t

(** [of_float x] is the complex number [x + 0j]. *)
val of_float : float -> t

(** [make re im] is [re + im*j]. *)
val make : float -> float -> t

(** [jomega w] is [0 + w*j] — the evaluation point of a frequency
    response at angular frequency [w]. *)
val jomega : float -> t

val re : t -> float
val im : t -> float

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val neg : t -> t
val inv : t -> t
val conj : t -> t

(** [scale a z] multiplies [z] by the real scalar [a]. *)
val scale : float -> t -> t

val abs : t -> float
val arg : t -> float
val norm2 : t -> float
val sqrt : t -> t
val exp : t -> t
val log : t -> t

(** [pow_int z n] is [z] raised to the (possibly negative) integer [n].
    [pow_int zero 0] is [one]. *)
val pow_int : t -> int -> t

(** [cis theta] is [exp (j * theta)]. *)
val cis : float -> t

val is_finite : t -> bool

(** [is_zero z] — exact comparison of both parts against [0.0] with
    [Float.equal] (NaN-safe, unlike polymorphic [=] on [Complex.t];
    note [Float.equal] distinguishes no signed zeros, so [-0.0] counts
    as zero). Used by sparsity skips in matrix kernels. *)
val is_zero : t -> bool

(** [approx ?tol a b] holds when [abs (a - b) <= tol * (1 + abs a + abs b)].
    Default [tol] is [1e-9]. *)
val approx : ?tol:float -> t -> t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Local-open friendly operators: [Cx.Infix.(a + b * c)]. *)
module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
end
