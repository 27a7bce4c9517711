(** Radix-2 FFT and single-bin correlation.

    The simulator post-processing (extracting the measured closed-loop
    phase transfer from a time-marching run, as the paper does from its
    Simulink runs) needs a spectrum estimator and a precise single-bin
    correlator; both live here. *)

(** [fft a] transforms in place; [Array.length a] must be a power of 2.
    Convention: [X_k = Σ_n x_n exp(-2πi nk/N)]. *)
val fft : Cx.t array -> unit

(** [ifft a] is the inverse transform (including the [1/N] factor). *)
val ifft : Cx.t array -> unit
[@@lint.allow "test-only-export" "queued: only its own unit tests call it"]

(** [transform a] is a non-destructive [fft]. *)
val transform : Cx.t array -> Cx.t array
[@@lint.allow "test-only-export" "queued: only its own unit tests call it"]

val next_pow2 : int -> int

(** [goertzel xs ~dt ~omega] is the single-frequency Fourier integral
    [(2/T) Σ x_n exp(-j ω t_n) dt] over the samples: the complex
    amplitude [Y] such that the signal's component at [omega] is
    [Re(Y exp(jωt))]. For [a cos(ωt) + b sin(ωt)] over an integer
    number of periods it returns [a - j b]. *)
val goertzel : float array -> dt:float -> omega:float -> Cx.t

(** [dft_bin xs k] is the k-th DFT bin computed directly (O(N)) —
    reference implementation for tests. *)
val dft_bin : Cx.t array -> int -> Cx.t
[@@lint.allow "test-only-export" "oracle: the direct DFT the FFT is checked against"]
