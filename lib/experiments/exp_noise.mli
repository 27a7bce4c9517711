(** NOISE — Monte-Carlo validation of the spectral predictions.

    White VCO frequency noise and white reference time-shift noise are
    injected into the behavioral model (deterministic seeds); the output
    time-shift PSD is Welch-estimated and compared band-by-band against
    the time-varying prediction of {!Pll_lib.Noise} and against the
    classical LTI prediction. The headline: for reference noise the LTI
    analysis under-predicts the output by roughly the number of folded
    bands (two orders of magnitude here) — folding is not a correction
    term, it is the answer. *)

type row = {
  injection : string;
  band_lo : float;  (** fraction of ω₀ *)
  band_hi : float;
  measured : float;  (** band-averaged two-sided PSD *)
  ratio_tv : float;  (** measured / time-varying prediction *)
  ratio_lti : float;  (** measured / LTI prediction *)
}

val run : unit -> unit
