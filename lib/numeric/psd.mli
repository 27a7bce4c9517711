(** Power spectral density estimation (Welch's method).

    Convention: two-sided PSD [S(ω)] as a function of angular frequency,
    so that the signal variance is [(1/2π) ∫_{-∞}^{∞} S(ω) dω] — the
    same convention as {!Pll_lib.Noise}, making simulated and analytic
    spectra directly comparable. For real signals only the nonnegative
    frequencies are returned; the variance then equals
    [(1/π) Σ S(ω_k) Δω] (excluding dc and Nyquist double-counting
    subtleties, negligible for broadband signals). *)

type estimate = {
  omega : float array;  (** bin centers, rad/s, ascending, ω ≥ 0 *)
  s : float array;  (** two-sided PSD at each bin *)
  segments : int;  (** number of averaged segments *)
}

(** [welch xs ~dt ~segment] — Hann-windowed, 50 %-overlapped Welch
    estimate with power-of-two [segment] length.
    @raise Invalid_argument if [segment] is not a power of two or the
    record is shorter than one segment. *)
val welch : float array -> dt:float -> segment:int -> estimate

(** [band_average est ~lo ~hi] — mean PSD over bins with
    [lo <= ω < hi]. @raise Invalid_argument when the band is empty. *)
val band_average : estimate -> lo:float -> hi:float -> float

(** [variance_of est] — [(1/π) Σ S Δω]: sanity check against the time-
    domain variance. *)
val variance_of : estimate -> float
[@@lint.allow "test-only-export" "test seam: integrates a Welch estimate in the PSD level tests"]
