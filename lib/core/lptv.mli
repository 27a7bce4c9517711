(** LPTV helpers around the HTM formalism.

    Utilities to go between T-periodic time functions and the Fourier
    coefficient arrays that feed {!Htm.periodic_gain} (the paper's
    eq. 13), plus analytic single-tone responses used to validate HTM
    realizations against direct time-domain evaluation. *)

[@@@lint.allow "test-only-export"
  "oracle: the LPTV tone response the HTM columns are checked against"]

(** [coeffs_of_function f ~period ~max_harmonic] — Fourier coefficients
    of the real periodic function [f], indexed [k + max_harmonic]
    (ready for {!Htm.periodic_gain}). *)
val coeffs_of_function :
  (float -> float) -> period:float -> max_harmonic:int -> ?samples:int -> unit -> Numeric.Cx.t array

(** [eval_coeffs coeffs ~omega0 t] reconstructs the real periodic
    function. *)
val eval_coeffs : Numeric.Cx.t array -> omega0:float -> float -> float

(** [tone_response_multiplier coeffs ~omega0 ~m ~w] — the exact band
    amplitudes produced when the memoryless multiplier [p(t)] acts on
    the complex tone [exp(j(w + m ω₀)t)]: a list of
    [(output_harmonic, amplitude)]. Analytic reference for HTM column
    tests. *)
val tone_response_multiplier :
  Numeric.Cx.t array -> omega0:float -> m:int -> (int * Numeric.Cx.t) list

(** [conj_symmetric coeffs] — true when the coefficient array describes
    a real function ([P_{-k} = conj P_k]). *)
val conj_symmetric : ?tol:float -> Numeric.Cx.t array -> bool
