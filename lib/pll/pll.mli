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

    λ(s) is evaluated either by symmetric truncation of the sum or
    *exactly* via partial fractions of [A] and the coth-based lattice
    sums of {!Numeric.Special} — the paper's "symbolic expressions". *)

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
    evaluator for λ(s). The [Exact] evaluator costs O(#poles) per
    point. *)
val lambda_fn : t -> lambda_method -> Numeric.Cx.t -> Numeric.Cx.t

(** [lambda p s] — [Exact] evaluation (convenience; re-expands each
    call — use {!lambda_fn} in sweeps). *)
val lambda : t -> Numeric.Cx.t -> Numeric.Cx.t

(** {1 Closed-loop transfers (time-invariant VCO closed form)} *)

(** [h00_fn p method_] — evaluator for the baseband-to-baseband
    closed-loop element [H₀₀(s) = A(s)/(1 + λ(s))] (eq. 38). *)
val h00_fn : t -> lambda_method -> Numeric.Cx.t -> Numeric.Cx.t

val h00 : t -> Numeric.Cx.t -> Numeric.Cx.t

(** [htm_element_fn p method_] — evaluator for the full closed-loop HTM
    element [H_{n,m}(s) = A(s + jnω₀)/(1 + λ(s))] (eq. 36; independent
    of [m]). *)
val htm_element_fn : t -> lambda_method -> n:int -> Numeric.Cx.t -> Numeric.Cx.t

(** [h00_lti p s] — the classical LTI approximation [A/(1+A)] (the
    second form of eq. 38). *)
val h00_lti : t -> Numeric.Cx.t -> Numeric.Cx.t

(** {1 Generic HTM forms (work for time-varying VCOs too)} *)

(** [open_loop_htm p] — [G = H_VCO·H_LF·H_PFD] as a composition tree. *)
val open_loop_htm : t -> Htm_core.Htm.t

(** [closed_loop_htm p] — [(I+G)^{-1}G] via truncated LU (eq. 28). *)
val closed_loop_htm : t -> Htm_core.Htm.t

(** [closed_loop_plan ctx p] — {!closed_loop_htm} compiled for
    grid-batched evaluation ({!Htm_core.Plan}). When the VCO is time
    invariant and the PFD is the sampler (and [exact_lambda] is left
    [true], the default), the plan's rank-one feedback uses the {b
    exact} λ(s) of eq. 37 (partial fractions + coth lattice sums) in
    place of the truncated Sherman–Morrison denominator [vᵀu]: the
    planned H₀₀ then matches {!h00} to rounding rather than to the
    truncation tail. Each concurrent lane needs its own plan — see the
    ownership rule in [Parallel.Sweep.grid_local]. *)
val closed_loop_plan : ?exact_lambda:bool -> Htm_core.Htm.ctx -> t -> Htm_core.Plan.t

(** [closed_loop_planner ?exact_lambda p] — [closed_loop_plan
    ?exact_lambda] staged: the tree and the exact λ (its
    partial-fraction expansion) are built once, and each application
    to a [ctx] compiles one more plan over them. The λ closure is
    immutable, so the plans of several lanes may share it; the plans
    themselves stay one per lane. *)
val closed_loop_planner :
  ?exact_lambda:bool -> t -> Htm_core.Htm.ctx -> Htm_core.Plan.t

(** [closed_loop_rank_one ctx p s] — the Sherman–Morrison closed form
    evaluated with truncated matrices (eqs. 29–34): valid for any VCO
    ISF as long as the PFD is the sampler; O(dim²) instead of the LU's
    O(dim³).
    @raise Invalid_argument when the PFD is not [Sampling]. *)
val closed_loop_rank_one : Htm_core.Htm.ctx -> t -> Numeric.Cx.t -> Numeric.Cmat.t

(** [v_tilde ctx p s] — the vector [Ṽ(s)] of eq. 29. *)
val v_tilde : Htm_core.Htm.ctx -> t -> Numeric.Cx.t -> Numeric.Cvec.t

(** [lambda_matrix ctx p s] — λ(s) computed as the sum of all entries of
    the truncated [H_VCO·H_LF] (eq. 33 / eq. 37); cross-check for
    {!lambda_fn}. *)
val lambda_matrix : Htm_core.Htm.ctx -> t -> Numeric.Cx.t -> Numeric.Cx.t
