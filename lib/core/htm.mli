(** Harmonic transfer matrices (HTMs) — the paper's core formalism.

    A linear periodically time-varying (LPTV) system with period
    [T = 2π/ω₀] maps the stacked spectrum
    [Ũ(s) = [... U(s-jω₀); U(s); U(s+jω₀) ...]] to
    [Ỹ(s) = H(s) Ũ(s)] where [H_{n,m}(s) = H_{n-m}(s + j m ω₀)] and the
    [H_k] are the Laplace transforms of the harmonic impulse responses
    (eqs. 1–6). The element [H_{n,m}(jω)] is the transfer of signal
    content from the band around [m ω₀] at the input to the band around
    [n ω₀] at the output (Fig. 2).

    This module represents HTMs symbolically as a composition tree of
    structured blocks and realizes them as truncated complex matrices on
    demand. Composition follows eqs. 10–11: parallel = sum,
    series = product (left operand applied second); the three primitive
    blocks of the paper are:

    - an LTI system: diagonal HTM, [H_{m,m}(s) = H(s + j m ω₀)] (eq. 12);
    - memoryless multiplication by a T-periodic [p(t)]: Toeplitz HTM
      [H_{n,m} = P_{n-m}] (eq. 13);
    - the impulse-train sampler of the sampling PFD:
      [H(s) = (ω₀/2π) l lᵀ], rank one (eqs. 19–20).

    A truncation keeps harmonics [-n_harm .. n_harm]; matrix index [i]
    corresponds to harmonic [i - n_harm]. *)

(** The composition tree (equal to {!Htm_expr.t} so the grid-batched
    {!Plan} layer can compile the same values). Build through the smart
    constructors below — they enforce the representation invariants. *)
type t = Htm_expr.t

(** Evaluation context: truncation size and fundamental frequency. *)
type ctx = Htm_expr.ctx = { n_harm : int; omega0 : float }

val ctx : n_harm:int -> omega0:float -> ctx

(** Matrix dimension of a truncation: [2*n_harm + 1]. *)
val dim : ctx -> int

(** [harmonic_of_index ctx i] is [i - n_harm]; inverse of
    {!index_of_harmonic}. *)
val harmonic_of_index : ctx -> int -> int

val index_of_harmonic : ctx -> int -> int

(** {1 Constructors} *)

(** [lti h] — the diagonal HTM of an LTI block with transfer function
    [h]. *)
val lti : (Numeric.Cx.t -> Numeric.Cx.t) -> t

(** [lti_rat r] — the same diagonal HTM as [lti (Numeric.Rat.eval r)],
    but carrying the rational form: the plan/execute grid layer
    ({!Plan}) fills its diagonal through the allocation-free split
    Horner evaluation of {!Numeric.Rat.eval_into}. Prefer this over
    [lti] whenever the transfer function is rational (loop filters,
    VCO integrators). *)
val lti_rat : Numeric.Rat.t -> t

(** [periodic_gain coeffs] — memoryless multiplication by
    [p(t) = Σ_k P_k e^{jkω₀t}]; [coeffs] is indexed [k + K] for
    [k = -K..K] (odd length). *)
val periodic_gain : Numeric.Cx.t array -> t

(** The paper's sampling operator [(ω₀/2π)·Σ_m δ(t - mT)]:
    all matrix entries equal to [ω₀/2π = 1/T]; rank one. *)
val sampler : t

val identity : t
val zero : t
val scale : Numeric.Cx.t -> t -> t

(** [series g2 g1] applies [g1] first: the matrix is [G2·G1] (eq. 11). *)
val series : t -> t -> t

val series_list : t list -> t

(** [parallel g1 g2] is [G1 + G2] (eq. 10). *)
val parallel : t -> t -> t

val sub : t -> t -> t
val neg : t -> t

(** [feedback g] is the closed loop [(I + G)^{-1} G] — the truncated
    version of eq. 28, realized with an LU solve. *)
val feedback : t -> t

(** [custom f] — escape hatch: any explicit matrix function of [s]. *)
val custom : (ctx -> Numeric.Cx.t -> Numeric.Cmat.t) -> t

(** {1 Realization} *)

(** Every per-point query below ({!to_matrix}, {!element},
    {!baseband}, {!conversion_map}, {!apply_to_tone},
    {!max_singular_value} and its variants, {!is_lti}) is a one-point
    {!Plan}: [Plan.make ctx t] followed by one evaluation, with no plan
    cache. To evaluate one tree at many points, make the plan yourself:
    [Parallel.Sweep.grid_local ~local:(fun () -> Plan.make ctx t)] with
    one {!Plan} query per point gives each lane its own plan.
    {!apply_to_tone} reads one column and demands only that column (see
    {!Plan.column}): a loop closed around a banded or dense open loop
    then solves one right-hand side, with the bits of the full
    realization. {!element} and {!baseband} demand one entry (see
    {!Plan.element}): a loop closed around a banded open loop computes
    it by a two-sided elimination, equal to the full realization's
    entry to rounding, and a dense one solves its column. *)

(** [to_matrix ctx t s] realizes the truncated HTM at the complex
    frequency [s]. Evaluation is structure-aware: the composition tree
    is realized as {!Smat.t} shapes (diagonal LTI blocks, banded
    Toeplitz periodic gains, the rank-one sampler, Sherman–Morrison
    feedback) and densified only here, at the API boundary.
    An evaluation whose conditioning or finiteness guard fires degrades
    transparently to {!to_matrix_dense} — counted in
    {!Robust.Stats} — unless strict mode is armed, in which case
    {!Robust.Pllscope_error.Error} is raised instead. For the guarded
    evaluation without the fallback, see {!Plan.eval_checked}. *)
val to_matrix : ctx -> t -> Numeric.Cx.t -> Numeric.Cmat.t

(** [to_matrix_dense ctx t s] — the original all-dense evaluator
    (boxed [Cmat.t] products, dense LU feedback), kept as the reference
    oracle for the plan path. Use {!to_matrix} everywhere else. *)
val to_matrix_dense : ctx -> t -> Numeric.Cx.t -> Numeric.Cmat.t

(** [element ctx t ~n ~m s] is [H_{n,m}(s)] of the truncation
    ([n], [m] are harmonics, not indices). *)
val element : ctx -> t -> n:int -> m:int -> Numeric.Cx.t -> Numeric.Cx.t

(** [baseband ctx t w] is [H_{0,0}(jω)] — the band-to-band transfer
    classical LTI analysis reasons about. *)
val baseband : ctx -> t -> float -> Numeric.Cx.t

(** [conversion_map ctx t w] is the magnitude map
    [|H_{n,m}(jω)|] — the quantitative version of the paper's Fig. 2.
    Row/column order matches harmonics [-n_harm..n_harm]. *)
val conversion_map : ctx -> t -> float -> float array array

(** [apply_to_tone ctx t ~m w] — the stacked output spectrum produced by
    a unit tone in band [m] at baseband offset [ω]: the [m]-column of
    the HTM, indexed by output harmonic. *)
val apply_to_tone : ctx -> t -> m:int -> float -> Numeric.Cvec.t

(** [is_lti ctx t s ~tol] — true when the realized matrix is diagonal
    with the shifted-diagonal structure of an LTI block. *)
val is_lti : ?tol:float -> ctx -> t -> Numeric.Cx.t -> bool

(** [max_singular_value ctx t w] — the largest singular value of the
    realized HTM at [jω]: the worst-case gain over all distributions of
    input content across bands. For an LTI block this is
    [max_m |H(jω + jmω₀)|]; for a genuinely LPTV closed loop it exceeds
    the baseband [|H₀₀|] by the band-conversion leakage — a conservative
    peaking metric unavailable to LTI analysis. Computed by power
    iteration on [HᴴH] (only matrix products, no factorization),
    started from a deterministic [seed]ed pseudo-random vector and
    restarted when the iterate lands in the null space of a
    rank-deficient HTM, so rank-one matrices cannot stall it at 0. *)
val max_singular_value :
  ?iterations:int -> ?tol:float -> ?seed:int64 -> ctx -> t -> float -> float

(** Convergence certificate of the power iteration: the estimate, the
    iterations consumed, the final residual [|σ_k - σ_{k-1}|], how many
    null-space restarts were taken, and whether the tolerance was met
    within the iteration budget (σ = 0 after exhausting every restart is
    the exact answer for a zero matrix and counts as converged);
    {!max_singular_value_checked} returns it. *)
type sv_certificate = {
  sigma : float;
  iterations : int;
  residual : float;
  restarts : int;
  converged : bool;
}

(** [max_singular_value_checked ctx t w] — [Ok cert] when the iteration
    certifiably converged, [Error (Non_convergence _)] otherwise. *)
val max_singular_value_checked :
  ?iterations:int ->
  ?tol:float ->
  ?seed:int64 ->
  ctx ->
  t ->
  float ->
  (sv_certificate, Robust.Pllscope_error.t) result
