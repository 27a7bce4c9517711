(** Measuring the closed-loop phase transfer from time-marching
    simulation — the paper's verification methodology (§5, the marks on
    Fig. 6), rebuilt on our own simulator.

    A small sinusoidal time-shift modulation is applied to the
    reference, the loop is simulated past its transient, and the complex
    gain at the modulation frequency is recovered by synchronous
    correlation. Choosing [ω_m = j·ω₀/n_window] (an exact rational of
    the reference) makes the measurement window an integer number of
    periods of *every* spectral component the LPTV loop produces
    ([ω_m + k ω₀]), so the correlation has zero leakage and isolates the
    baseband-to-baseband element [H₀₀(jω_m)] exactly. *)

[@@@lint.allow "test-only-export"
  "oracle: simulation measurements the HTM predictions are checked against"]

type measurement = {
  omega : float;  (** modulation frequency, rad/s *)
  measured : Numeric.Cx.t;  (** simulator estimate of H₀₀(jω_m) *)
  predicted : Numeric.Cx.t;  (** closed form, eq. 38 *)
  predicted_lti : Numeric.Cx.t;  (** classical A/(1+A) *)
  rel_err : float;  (** |measured − predicted| / |predicted| *)
}

(** [measure_h00 pll ~harmonic ~window_periods ()] measures at
    [ω_m = harmonic·ω₀/window_periods].

    @param harmonic number of modulation cycles inside the window
           (1 ≤ harmonic, and [harmonic/window_periods] sets ω_m/ω₀)
    @param window_periods measurement window, reference periods
    @param warmup_periods settling time before the window opens
           (default: 6 loop time constants, at least 2 windows)
    @param eps modulation depth in seconds (default [T/2000])
    @param steps_per_period integration resolution (default 96) *)
val measure_h00 :
  Pll_lib.Pll.t ->
  harmonic:int ->
  window_periods:int ->
  ?warmup_periods:int ->
  ?eps:float ->
  ?steps_per_period:int ->
  unit ->
  measurement

(** [measure_error_transfer pll ~harmonic ~window_periods ()] — same
    protocol, but the sinusoidal time-shift disturbance is injected
    *inside the VCO*: the measured quantity is the baseband element of
    the error transfer [(I+G)^{-1}], whose closed form is
    [E₀₀(jω) = 1 − A(jω)/(1 + λ(jω))] — the shaping function the
    phase-noise extension ({!Pll_lib.Noise}) applies to open-loop VCO
    noise. [predicted_lti] is the classical [1/(1+A)]. *)
val measure_error_transfer :
  Pll_lib.Pll.t ->
  harmonic:int ->
  window_periods:int ->
  ?warmup_periods:int ->
  ?eps:float ->
  ?steps_per_period:int ->
  unit ->
  measurement

(** [sweep pll points] — measure at each [(harmonic, window)] pair. *)
val sweep : Pll_lib.Pll.t -> (int * int) list -> measurement list

(** [worst_rel_err ms] — the largest relative error in a sweep. *)
val worst_rel_err : measurement list -> float
