(** Closed-form harmonic sums.

    The paper's effective open-loop gain is
    [λ(s) = Σ_{m=-∞}^{∞} A(s + j m ω₀)] (eq. 37). With [A] in partial
    fractions, each term reduces to the lattice sums

    [S_k(z, ω₀) = Σ_{m=-∞}^{∞} 1 / (z + j m ω₀)^k],

    which have closed forms built from [coth]:
    [S₁ = (π/ω₀) coth(π z/ω₀)] and
    [S_{k+1} = -(1/k) dS_k/dz], i.e. [S_k = (π/ω₀)^k Q_k(coth(π z/ω₀))]
    where [Q₁(c) = c] and [Q_{k+1}(c) = -(1/k) Q'_k(c)(1 - c²)].

    These make λ(s) exact — no truncation — which is what lets the HTM
    method run "in seconds" where time-marching takes minutes. *)

(** [coth z], numerically stable away from the poles [z = j k π]. *)
val coth : Cx.t -> Cx.t

(** [csch2 z] is [1/sinh² z]. *)
val csch2 : Cx.t -> Cx.t
[@@lint.allow "test-only-export" "oracle: closed form of the k = 2 lattice sum"]

(** [harmonic_sum ~k ~omega0 z] is [S_k(z, ω₀)] in closed form.
    @raise Invalid_argument if [k < 1]. Supported for any [k >= 1]
    (the coth-derivative polynomials are computed on demand and
    memoized). *)
val harmonic_sum : k:int -> omega0:float -> Cx.t -> Cx.t
[@@lint.allow "test-only-export" "oracle: the boxed fold lattice_sum equals bit for bit"]

(** [lattice_sum ~omega0 terms] is [fun s -> Σ residue·S_order(s − pole)]
    over the partial-fraction [terms] in list order — the exact λ(s)
    of a strictly proper loop gain's expansion. Bit-identical to summing
    [residue · harmonic_sum ~k:order ~omega0 (s − pole)] term by term
    from zero, but everything that does not depend on [s] ([(π/ω₀)^k],
    the [Q_k] polynomials) is computed once here, consecutive terms
    with bit-equal poles share one [coth], and a point is evaluated on
    unboxed floats — [cosh]/[sinh]/[cos]/[sin] once per [coth],
    the boxed operations written out in their order — allocating only
    the result. The returned closure reads
    only its own immutable data, so one closure may serve several
    domains at once.
    @raise Invalid_argument if an order is [< 1]. *)
val lattice_sum : omega0:float -> Partial_fraction.term list -> Cx.t -> Cx.t

(** [fold_classes ~omega0 terms] merges the terms of equal order
    whose poles differ by an integer multiple of [jω₀]. Because
    [S_k(z + jdω₀) = S_k(z)] (equivalently
    [coth(π(s − p + jdω₀)/ω₀) = coth(π(s − p)/ω₀)]), such terms are one
    term whose residue is the sum of theirs. Poles [p], [q] share a
    class when [q − jkω₀], [k] the integer nearest [Im(q − p)/ω₀], is
    within {!Roots.cluster_eps} of [p] — the distance at which
    {!Partial_fraction.expand} makes two roots one pole — taken over
    the poles moved by multiples of [jω₀] next to the real axis.

    The result lists the classes in order of first appearance, each
    class's orders in order of first appearance, and every member of a
    class carries the class's first pole bit for bit — so
    {!lattice_sum} over the result computes one [coth] per class. A
    list whose classes are already one bit-equal pole with no repeated
    order, listed together (a time-invariant loop's expansion), comes
    back unchanged, term for term. This is a build-time transform: the
    lattice sum of the result equals that of [terms] to rounding, not
    bit for bit. *)
val fold_classes :
  omega0:float -> Partial_fraction.term list -> Partial_fraction.term list

(** [harmonic_sum_truncated ~k ~omega0 ~terms z] is the symmetric
    truncation [Σ_{m=-terms}^{terms} 1/(z + j m ω₀)^k] — the reference
    the closed form is property-tested against. *)
val harmonic_sum_truncated : k:int -> omega0:float -> terms:int -> Cx.t -> Cx.t
[@@lint.allow "test-only-export" "oracle: the direct truncated sum the closed forms converge to"]

(** [sinc x] is [sin x / x] with the removable singularity filled. *)
val sinc : float -> float
