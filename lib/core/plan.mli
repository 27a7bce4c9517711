(** Plan/execute evaluation of HTM composition trees — the one
    structured evaluator. The per-point [Htm] queries are one-point
    plans; a grid streams its points through one plan per lane.

    {!make} walks a composition tree {b once}: it runs {!Smat}'s static
    shape rules over every node, preallocates one structured container
    per node plus every densification scratch and LU workspace a point
    evaluation can need, realizes s-independent feedback-free subtrees
    once into their own containers, and compiles LTI leaves into
    harmonic shift tables (allocation-free split-rational evaluation for
    [Htm.lti_rat] leaves). {!eval} and the entry queries then stream
    frequency points through the plan {b entirely in place}.

    Planned evaluation is proven equivalent to the dense oracle
    [Htm.to_matrix_dense] by the differential suites in
    [test/test_grid.ml] and [test/test_htm_struct.ml], and
    bit-identical across pool sizes and plan reuse.

    {b Ownership.} A plan is a mutable workspace: every evaluation
    overwrites every container, and the {!Smat.t} returned by {!eval} is
    a view into plan storage, valid only until the next evaluation. One
    plan must be used by at most one domain lane at a time — parallel
    sweeps create one plan per lane via {!Parallel.Sweep.grid_local}
    (see the ownership rule in its documentation). *)

open Numeric

type ctx = Htm_expr.ctx

type t

(** [make ?lambda ctx tree] — compile [tree] for grid evaluation.

    [lambda] is the [Special] closed-form fast path: when the {b
    outermost} [Feedback] node realizes as rank one (sampling-PFD loop),
    its Sherman–Morrison denominator term [vᵀu] is replaced by
    [lambda s] — the closed-form loop gain λ(s), exact for any VCO ISF
    behind the sampler (see [Pll.lambda_fn]). It is ignored for other
    shapes and for inner feedback nodes. A point of such a plan that
    falls back degrades to the dense open loop [G = u·vᵀ] over
    [1 + lambda s] — the loop the plan evaluates — not to the truncated
    [(I + G)⁻¹·G]. *)
val make : ?lambda:(Cx.t -> Cx.t) -> ctx -> Htm_expr.t -> t

val ctx : t -> ctx

(** Matrix dimension [2·n_harm + 1]. *)
val dim : t -> int

(** The statically assigned shape of the realized root — what every
    structured evaluation of this plan returns (see the static shape
    rules in {!Smat}). *)
val root_shape : t -> Smat.shape_t

(** {1 Point evaluation}

    This is the one guard/fallback driver: checked kernels plus a root
    finiteness scan ({!eval_checked}) degrade failing points to the
    dense oracle, counted in {!Robust.Stats} — unless strict mode
    ({!Robust.Config.is_strict}) raises the typed error instead.

    A [Custom] block must return a [dim × dim] matrix at every point;
    any other size raises [Invalid_argument "Plan.eval: ..."] before
    anything is written. *)

(** [eval p s] — realize the HTM at [s]. The result is a view into plan
    storage: use it (or copy out of it) before the next evaluation. *)
val eval : t -> Cx.t -> Smat.t

(** [eval_checked p s] — the guarded evaluation with no fallback:
    checked kernels (conditioning proxies, checked LU) and a finiteness
    scan of the realized root. [Error (Singular _)] or
    [Error (Non_finite _)] when a guard fires; nothing is counted in
    {!Robust.Stats}. [Ok] carries a view into plan storage, as for
    {!eval}. *)
val eval_checked : t -> Cx.t -> (Smat.t, Robust.Pllscope_error.t) result

(** {2 Entry demand}

    The queries below read part of the realized HTM and say so to the
    evaluation. {b Row demand}: [make] gives every node a static reach
    — the rows of it that can feed a given row of the root — so a query
    reading row [i] realizes only those rows of each node: the LTI
    leaves, the products and the closed forms work on a window of rows
    instead of all [dim]. Behind the exact λ(s) of a sampling loop
    ([Pll.closed_loop_plan]) the baseband entry is then λ plus two leaf
    evaluations (time-invariant VCO) or a ±K-row window (ISF VCO with
    K harmonics), whatever [n_harm] is: measured with
    [Gc.minor_words] on one domain, 68 (time-invariant) and 98
    (K = 2) words per {!baseband} point at n_harm 8 and at n_harm 80
    alike (~340 and ~910 when every row was realized). A rank-one
    node's [v] that is its operand's is shared, not copied, and one
    that a constant carries is checked finite once by {!make}.
    A rank-one loop without the override (its [vᵀu] reads every row),
    a banded/dense LU, dense results and custom blocks realize every
    row. {b Column demand}: a dense feedback root (a loop closed
    around a banded or dense open loop) solves only the demanded
    right-hand side of [(I + G)⁻¹·G] instead of all [dim] of them.
    {b One entry} of a loop closed around a banded open loop (a
    mixing PFD: {!element}, {!baseband}) needs no LU: a two-sided
    elimination without pivoting computes it alone, O(dim·k²) for
    bandwidth k, its pivots guarded by closed-form conditioning
    proxies (see {!Smat.Into.feedback}).
    The guards scan what is read (the demanded rows, or the demanded
    column or entry of a dense root), and the [grid-plan-nan] site
    poisons the demanded entry. Values are bit-identical to the same
    entries of {!eval} — each realized row is computed by the same
    formula in the same order as in a full realization, and
    substitution never mixes right-hand-side columns — except that
    one entry of a banded loop equals the banded LU's to rounding. *)

(** [element p ~n ~m s] — entry [H_{n,m}(s)] by harmonic index (row
    and column demand). *)
val element : t -> n:int -> m:int -> Cx.t -> Cx.t

(** [baseband p s] — [element p ~n:0 ~m:0 s], the H₀₀ transfer. *)
val baseband : t -> Cx.t -> Cx.t

(** [column p ~m s] — column [m] (by harmonic index) of the realized
    HTM: the stacked output spectrum of a unit tone in band [m] (column
    demand, every row). *)
val column : t -> m:int -> Cx.t -> Cvec.t

(** [row p ~n s] — row [n] (by harmonic index) of the realized HTM:
    the weights [H_{n,m}] with which every input band [m] reaches
    output band [n] — the noise-folding row (row demand, every
    column). A dense root realizes every row. *)
val row : t -> n:int -> Cx.t -> Cvec.t

(** [to_cmat p s] — boxed dense copy of the realized HTM (fresh
    storage, not a view). *)
val to_cmat : t -> Cx.t -> Cmat.t
