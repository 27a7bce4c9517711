(** Interpolation and resampling of sampled data. *)

(** [linear xs ys x] — piecewise-linear interpolation; [xs] must be
    strictly increasing. Outside the range the boundary value is
    returned (clamped). *)
val linear : float array -> float array -> float -> float
[@@lint.allow "test-only-export" "queued: only its own unit tests call it"]

(** [uniform ~t0 ~dt ys t] — linear interpolation on a uniform grid. *)
val uniform : t0:float -> dt:float -> float array -> float -> float

(** [resample_uniform xs ys ~n] resamples onto [n] uniform points
    spanning [xs.(0) .. xs.(last)]; returns [(t0, dt, samples)]. *)
val resample_uniform : float array -> float array -> n:int -> float * float * float array
[@@lint.allow "test-only-export" "queued: only its own unit tests call it"]
