(** Uniformly sampled waveforms recorded by the simulator. *)

type t = {
  t0 : float;
  dt : float;
  data : float array;
}

val create : t0:float -> dt:float -> float array -> t
val length : t -> int
val time_of_index : t -> int -> float
val value : t -> int -> float

(** [at w t] — linear interpolation, clamped at the ends. *)
val at : t -> float -> float
[@@lint.allow "test-only-export" "queued: only its own unit tests call it"]

val map : (float -> float) -> t -> t
[@@lint.allow "test-only-export" "queued: only its own unit tests call it"]

(** [slice w ~from_time ~to_time] — the sub-waveform covering the given
    interval (snapped outward to sample boundaries). *)
val slice : t -> from_time:float -> to_time:float -> t

val max_abs : t -> float
[@@lint.allow "test-only-export" "test seam: peak the behavioral settle tests check"]
val to_array : t -> float array
