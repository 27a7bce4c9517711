(** Numerical integration.

    Adaptive Simpson for general integrands (jitter integrals of the
    noise extension) and uniform trapezoid for periodic integrands —
    the latter converges spectrally and is how the Fourier coefficients
    of VCO impulse-sensitivity functions are computed. *)

(** [simpson ?tol ?max_depth f a b] integrates [f] over [[a, b]]
    adaptively. *)
val simpson : ?tol:float -> ?max_depth:int -> (float -> float) -> float -> float -> float

(** [periodic_trapezoid f ~period ~n] integrates one period of the
    periodic function [f] with [n] uniform samples. *)
val periodic_trapezoid : (float -> float) -> period:float -> n:int -> float
[@@lint.allow "test-only-export" "queued: only its own unit tests call it"]

(** [fourier_coeff f ~period ~k ?n] is
    [(1/T) ∫₀ᵀ f(t) exp(-j k ω₀ t) dt] — the k-th Fourier coefficient
    with the paper's convention [f(t) = Σ_k f_k exp(j k ω₀ t)]. *)
val fourier_coeff : (float -> float) -> period:float -> k:int -> ?n:int -> unit -> Cx.t
[@@lint.allow "test-only-export" "test seam: one coefficient of fourier_coeffs, unit-tested directly"]

(** [fourier_coeffs f ~period ~max_harmonic ?n ()] returns coefficients
    for k = -max_harmonic .. max_harmonic as an array indexed by
    [k + max_harmonic]. *)
val fourier_coeffs :
  (float -> float) -> period:float -> max_harmonic:int -> ?n:int -> unit -> Cx.t array

(** [fourier_eval coeffs ~omega0 t] reconstructs
    [Σ_k c_k exp(j k ω₀ t)] from an array indexed as produced by
    {!fourier_coeffs} (odd length, center = DC); the result's imaginary
    part is discarded (real synthesis). *)
val fourier_eval : Cx.t array -> omega0:float -> float -> float
