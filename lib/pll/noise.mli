(** Phase-noise propagation through the time-varying closed loop.

    This is the extension the paper's machinery enables: because the
    sampler aliases every band into every band, stationary noise on the
    reference folds down with weight [|H_{0,m}(jω)|²] from each band
    [m]. With the closed form [H_{0,m} = A(jω)/(1+λ(jω))] (independent
    of [m]), the time-averaged output PSD at baseband is

    [S_out(ω) = |H₀₀(jω)|² · Σ_m S_ref(ω + m ω₀)]  (reference noise)

    [S_out(ω) = |1−H₀₀|² S_vco(ω) + |H₀₀|² Σ_{m≠0} S_vco(ω + m ω₀)]
    (VCO noise, which enters after the sampler through the error
    transfer [(I+G)^{-1}]).

    PSDs are two-sided, in (time-shift)²·s/rad as a function of angular
    frequency; only ratios and shapes matter to the experiments. *)

type psd = float -> float

(** [white level] — flat PSD. *)
val white : float -> psd
[@@lint.allow "test-only-export" "test seam: flat reference PSD of the noise-folding tests"]

(** [one_over_f2 k] — [k/ω²], the open-loop VCO phase-noise shape
    ([Demir et al.]'s diffusive phase noise). *)
val one_over_f2 : float -> psd

(** [lorentzian ~level ~corner] — flat to [corner], then 1/ω². *)
val lorentzian : level:float -> corner:float -> psd

(** [reference_noise_out p ?folds ?pool s_ref w] — output PSD at
    baseband offset [w] from reference noise, folding [2*folds+1] bands
    (default 50). Alias terms are evaluated on [pool] (default
    [Parallel.Pool.default]) and reduced in a fixed order, so the sum is
    bit-identical to the sequential one for any pool size. *)
val reference_noise_out :
  Pll.t -> ?folds:int -> ?pool:Parallel.Pool.t -> psd -> float -> float

(** [reference_noise_out_htm p ?n_harm ?pool s_ref ws] — the HTM-native
    folded output PSD over a whole frequency grid:
    [S_out(ω) = Σ_m |H_{0,m}(jω)|² S_ref(ω + m ω₀)] with the weights
    taken from row 0 of the truncated closed-loop HTM, read point by
    point with [Htm_core.Plan.row] (row demand) through grid-batched
    plans ({!Pll.closed_loop_planner}, one per lane, one exact λ for
    all of them). Each band carries its own transfer weight, so this
    remains valid for ISF VCOs and mixing PFDs where [H_{0,m}] depends
    on [m]; folding range is the truncation [-n_harm..n_harm]. For a
    time-invariant sampling loop it agrees with {!reference_noise_out}
    up to the folding tail (bands beyond the truncation). *)
val reference_noise_out_htm :
  Pll.t -> ?n_harm:int -> ?pool:Parallel.Pool.t -> psd -> float array -> float array
[@@lint.allow "test-only-export" "oracle: the HTM noise fold the folded-band noise is checked against"]

(** [vco_noise_out p ?folds ?pool s_vco w] — output PSD from open-loop
    VCO noise. *)
val vco_noise_out :
  Pll.t -> ?folds:int -> ?pool:Parallel.Pool.t -> psd -> float -> float

(** [lti_reference_noise_out p s_ref w] — what classical LTI analysis
    predicts: no folding, [|H₀₀,LTI|² S_ref(ω)]. *)
val lti_reference_noise_out : Pll.t -> psd -> float -> float

(** [rms_jitter s ~lo ~hi] — RMS time jitter from a (two-sided, given
    for ω > 0) output PSD: [σ = sqrt((1/π) ∫_lo^hi S(ω) dω)]. *)
val rms_jitter : psd -> lo:float -> hi:float -> float
