(** PLL assembly and the paper's closed-form input-output solution (§4).

    The open-loop HTM is [G(s) = H_VCO(s)·H_LF(s)·H_PFD(s)] (eq. 27).
    Because the sampling-PFD HTM is rank one, the closed loop collapses
    by Sherman–Morrison–Woodbury (eqs. 29–34) to

    [θ(s) = Ṽ(s)·lᵀ/(1 + λ(s)) · θ_ref(s)]

    with [Ṽ(s) = (ω₀/2π)·H_VCO·H_LF·l] and effective open-loop gain
    [λ(s) = lᵀ·Ṽ(s)]. For a time-invariant VCO this reduces to eq. 36:
    [H_{n,m}(s) = A(s + jnω₀)/(1 + λ(s))],
    [λ(s) = Σ_m A(s + jmω₀)], where [A(s) = (ω₀/2π)(v₀/s)H_LF(s)] is
    the classical continuous-time LTI open loop (eq. 35).

    Behind a VCO with ISF taps [Γ_k] ([|k| ≤ K], {!Vco.t}'s
    [harmonics]) the same closed form holds with
    [Ṽ_n(s) = g·Σ_m Γ_{n−m}·Z(s + jmω₀)/(s + jnω₀)] ([g = ω₀/2π],
    [Z = H_LF]; 2K+1 terms) and
    [λ(s) = Σ_d Σ_m R_d(s + jmω₀)], [R_d(z) = Γ_d·g·Z(z)/(z + jdω₀)].

    λ(s) is evaluated either by symmetric truncation of the sum or
    *exactly* via partial fractions and the coth-based lattice sums of
    {!Numeric.Special} — the paper's "symbolic expressions". *)

type t = {
  fref : float;  (** reference frequency, Hz *)
  n_div : float;  (** feedback division ratio *)
  filter : Loop_filter.t;
  vco : Vco.t;
  pfd : Pfd.t;
}

val make :
  fref:float -> n_div:float -> filter:Loop_filter.t -> vco:Vco.t -> ?pfd:Pfd.t -> unit -> t

val omega0 : t -> float
val period : t -> float

(** {1 Classical LTI open loop} *)

(** [open_loop_tf p] is [A(s)] (eq. 35). *)
val open_loop_tf : t -> Lti.Tf.t

(** [a_of_s p s] evaluates [A(s)]. *)
val a_of_s : t -> Numeric.Cx.t -> Numeric.Cx.t

(** {1 Effective open loop λ(s)} *)

type lambda_method =
  | Exact  (** partial fractions + coth lattice sums; no truncation *)
  | Truncated of int  (** symmetric truncation, m from -k to k *)

(** [lambda_fn p method_] — precomputes the expansion and returns an
    evaluator for λ(s). For a time-invariant VCO, [Exact] is the lattice
    sum of [A]'s partial fractions and [Truncated k] sums
    [A(s + jmω₀)] for [|m| ≤ k]. Behind an ISF VCO, [Exact] expands
    the DC tap's [R_0] once, derives every other tap's [R_d] (see
    above) from that expansion, folds the terms into lattice classes
    ({!Numeric.Special.fold_classes}) and sums them — no truncation, and
    for two ISF harmonics about the cost of the time-invariant λ; a
    real DC tap with no harmonics gives the time-invariant λ bit for
    bit. The loop filter must have no pole at a nonzero multiple of
    [−jω₀]. [Truncated k] sums [Ṽ_n] for [|n| ≤ k]. The [Exact] evaluator
    costs O(#lattice classes) per point.
    @raise Invalid_argument [Exact] when an expanded rational is not
    strictly proper. *)
val lambda_fn : t -> lambda_method -> Numeric.Cx.t -> Numeric.Cx.t

(** [lambda p s] — [Exact] evaluation (convenience; re-expands each
    call — use {!lambda_fn} in sweeps). *)
val lambda : t -> Numeric.Cx.t -> Numeric.Cx.t

(** {1 Closed-loop transfers (closed form)} *)

(** [h00_fn p method_] — evaluator for the baseband-to-baseband
    closed-loop element [H₀₀(s) = Ṽ₀(s)/(1 + λ(s))]: [A(s)/(1 + λ(s))]
    for a time-invariant VCO (eq. 38), the ISF [Ṽ₀] of the module
    preamble otherwise. It is [htm_element_fn p method_ ~n:0]. *)
val h00_fn : t -> lambda_method -> Numeric.Cx.t -> Numeric.Cx.t

val h00 : t -> Numeric.Cx.t -> Numeric.Cx.t

(** [htm_element_fn p method_ ~n] — evaluator for the full closed-loop
    HTM element [H_{n,m}(s) = Ṽ_n(s)/(1 + λ(s))], independent of [m]
    because [l] is the all-ones vector: [A(s + jnω₀)/(1 + λ(s))] for a
    time-invariant VCO (eq. 36), the 2K+1-term ISF [Ṽ_n] otherwise. It
    is the plan-independent oracle of {!closed_loop_plan}: the exact
    plan's [(n, m)] entry equals it to rounding for
    [|n| ≤ n_harm − K]. *)
val htm_element_fn : t -> lambda_method -> n:int -> Numeric.Cx.t -> Numeric.Cx.t
[@@lint.allow "test-only-export" "oracle: closed-form H_nm (eqs. 29-34) the plans are checked against"]

(** [h00_lti p s] — the classical LTI approximation [A/(1+A)] (the
    second form of eq. 38). *)
val h00_lti : t -> Numeric.Cx.t -> Numeric.Cx.t

(** {1 Generic HTM forms (work for time-varying VCOs too)} *)

(** [open_loop_htm p] — [G = H_VCO·H_LF·H_PFD] as a composition tree. *)
val open_loop_htm : t -> Htm_core.Htm.t
[@@lint.allow "test-only-export" "oracle: the open-loop tree of the truncated-matrix lambda (eq. 33)"]

(** [closed_loop_htm p] — [(I+G)^{-1}G] via truncated LU (eq. 28). *)
val closed_loop_htm : t -> Htm_core.Htm.t

(** [closed_loop_plan ctx p] — {!closed_loop_htm} compiled for
    grid-batched evaluation ({!Htm_core.Plan}). When the PFD is the
    sampler, the plan's rank-one feedback uses the {b exact} λ(s) of
    {!lambda_fn} in place of the truncated Sherman–Morrison denominator
    [vᵀu]: the planned entries then match {!htm_element_fn} to rounding
    rather than to the truncation tail, and an entry reads only the rows
    that feed it (two leaf rows behind a time-invariant VCO, ±K behind
    an ISF VCO with K harmonics) whatever [n_harm] is. Behind an ISF VCO
    with [ctx.n_harm < K], row 0's [u] is itself truncated, and the plan
    keeps [vᵀu] — it is [Htm_core.Plan.make ctx (closed_loop_htm p)].
    Each concurrent lane needs its own plan — see the ownership rule in
    [Parallel.Sweep.grid_local]. *)
val closed_loop_plan : Htm_core.Htm.ctx -> t -> Htm_core.Plan.t

(** [closed_loop_planner p] — [closed_loop_plan] staged: the tree and
    the exact λ (its partial-fraction expansion) are built once, and
    each application to a [ctx] compiles one more plan over them. The λ closure is
    immutable, so the plans of several lanes may share it; the plans
    themselves stay one per lane. *)
val closed_loop_planner : t -> Htm_core.Htm.ctx -> Htm_core.Plan.t

(** [closed_loop_rank_one ctx p s] — the Sherman–Morrison closed form
    evaluated with truncated matrices (eqs. 29–34): valid for any VCO
    ISF as long as the PFD is the sampler; O(dim²) instead of the LU's
    O(dim³).
    @raise Invalid_argument when the PFD is not [Sampling]. *)
val closed_loop_rank_one : Htm_core.Htm.ctx -> t -> Numeric.Cx.t -> Numeric.Cmat.t

(** [v_tilde ctx p s] — the vector [Ṽ(s)] of eq. 29. *)
val v_tilde : Htm_core.Htm.ctx -> t -> Numeric.Cx.t -> Numeric.Cvec.t
[@@lint.allow "test-only-export" "oracle: the sampler row vector of the rank-one closed form"]

(** [lambda_matrix ctx p s] — λ(s) computed as the sum of all entries of
    the truncated [H_VCO·H_LF] (eq. 33 / eq. 37); cross-check for
    {!lambda_fn}. *)
val lambda_matrix : Htm_core.Htm.ctx -> t -> Numeric.Cx.t -> Numeric.Cx.t
