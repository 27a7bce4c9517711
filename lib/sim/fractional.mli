(** Fractional-N synthesis on the behavioral model.

    A ΔΣ modulator dithers the divider modulus between integers so its
    *average* is [N + frac]; the instantaneous divider error is a
    deterministic quantization waveform that the loop low-passes onto
    the output — the classic fractional spurs. This is exactly the kind
    of periodically-time-varying disturbance the paper's framework is
    about: for rational [frac = a/b] the quantization pattern repeats
    every [b] reference cycles, producing lines at multiples of [ω₀/b].

    Supported modulators: a first-order accumulator (worst spurs), and
    MASH 1-1 / MASH 1-1-1 cascades whose noise is shaped by
    [(1−z⁻¹)^{order−1}] — pushing the quantization energy out of band
    where the loop filters it. *)

type modulator = First_order | Mash2 | Mash3

type config = {
  modulator : modulator;
  n_int : int;  (** integer part of the modulus *)
  frac : float;  (** fractional part, in [0, 1) *)
}

(** [divider_sequence config] — the per-cycle modulus [N + b_k]
    (memoized; call with ascending or repeated indices freely). The
    long-run average of [b_k] is [frac] for every modulator. *)
val divider_sequence : config -> int -> float
[@@lint.allow "test-only-export" "test seam: the modulus sequence of the run, unit-tested directly"]

(** [run pll config ~periods ()] — locked behavioral run with the
    dithered divider. [pll.n_div] must equal [n_int + frac] (that
    average is what the VCO lock frequency and the small-signal model
    use). @raise Invalid_argument on mismatch. *)
val run :
  Pll_lib.Pll.t -> config -> ?steps_per_period:int -> periods:int -> unit -> Behavioral.record

(** [spur_dbc record ~pll ~frac_denominator ~harmonic ~periods] — level
    (dBc, single sideband on the VCO output) of the fractional spur at
    [harmonic·ω₀/frac_denominator], correlated over the final [periods]
    reference periods ([periods] must be a multiple of
    [frac_denominator] for a leakage-free measurement). *)
val spur_dbc :
  Behavioral.record ->
  pll:Pll_lib.Pll.t ->
  frac_denominator:int ->
  harmonic:int ->
  periods:int ->
  float

(** [predicted_first_order_spur_dbc pll ~frac_denominator] — analytic
    estimate for the first-order modulator with [frac = 1/b]: the
    residual accumulator is a [b]-step sawtooth of one VCO period; its
    fundamental, shaped by [|H₀₀(jω₀/b)|], FM-modulates the carrier. *)
val predicted_first_order_spur_dbc : Pll_lib.Pll.t -> frac_denominator:int -> float
