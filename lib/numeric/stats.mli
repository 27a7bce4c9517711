(** Descriptive statistics and error metrics used by the experiment
    harness when comparing HTM predictions against simulator
    measurements. *)

val mean : float array -> float
val variance : float array -> float
[@@lint.allow "test-only-export" "test seam: sample moment the Prng and stats tests measure with"]
val std_dev : float array -> float
val max_abs : float array -> float

(** [rel_err a b] is [|a - b| / max(|a|, |b|, eps)]. *)
val rel_err : float -> float -> float

(** [db x] is [20 log10 x]. *)
val db : float -> float

(** [deg r] / [rad d] — angle conversions. *)
val deg : float -> float

val rad : float -> float
