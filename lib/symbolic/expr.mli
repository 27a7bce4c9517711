(** Symbolic expressions.

    The paper stresses that the HTM/rank-one approach "can be used to
    obtain both numerical results and symbolic expressions". This module
    is the expression substrate for that claim: a small computer-algebra
    core over named parameters (component values, ω₀, the Laplace
    variable), with constant folding, differentiation, substitution and
    complex-valued evaluation. {!Sym_pll} builds the paper's λ(s) on top
    of it as a closed-form expression in [coth].

    Expressions are kept in a lightly canonical form: sums and products
    are flattened and constants folded, so structurally equal
    derivations compare equal in the common cases (full canonical
    normalization is not attempted — numeric evaluation is the ground
    truth for equivalence). *)

type t =
  | Num of float
  | Sym of string
  | Add of t list  (** flattened n-ary sum, at least two terms *)
  | Mul of t list  (** flattened n-ary product, at least two factors *)
  | Pow of t * int  (** integer powers, exponent ≠ 0, 1 *)
  | Coth of t  (** the one function λ(s) needs *)

(** {1 Smart constructors} — fold constants, flatten, drop identities. *)

val num : float -> t
val sym : string -> t
val add : t -> t -> t
val sum : t list -> t
val sub : t -> t -> t
val mul : t -> t -> t
val prod : t list -> t
val div : t -> t -> t
val pow : t -> int -> t
val inv : t -> t
val coth : t -> t
val zero : t
[@@lint.allow "test-only-export" "test seam: the additive identity the folding tests compare with"]
val one : t

(** {1 Operations} *)

(** [eval env e] — complex evaluation; [env] maps symbol names.
    @raise Not_found for unbound symbols. *)
val eval : (string -> Numeric.Cx.t) -> t -> Numeric.Cx.t

(** [eval_real env e] — real evaluation (imaginary part must vanish). *)
val eval_real : (string -> float) -> t -> float
[@@lint.allow "test-only-export" "test seam: evaluates expressions in the symbolic derivative checks"]

(** [derivative ~wrt e] — symbolic partial derivative. *)
val derivative : wrt:string -> t -> t

(** [subst name replacement e] — capture-free substitution. *)
val subst : string -> t -> t -> t
[@@lint.allow "test-only-export" "queued: only its own unit tests call it"]

(** [symbols e] — free symbols, sorted, without duplicates. *)
val symbols : t -> string list
[@@lint.allow "test-only-export" "test seam: free symbols the Sym_pll inventory test reads"]

(** [equal a b] — structural equality of the canonical forms (sound but
    incomplete: [false] does not imply semantic difference). Constants
    compare with [Float.equal]: a NaN constant equals itself, and [-0.]
    differs from [0.]. *)
val equal : t -> t -> bool
[@@lint.allow "test-only-export" "test seam: the comparator of the symbolic tests"]

val to_string : t -> string
