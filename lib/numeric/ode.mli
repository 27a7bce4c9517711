(** ODE integrators.

    The time-marching reference simulator (the stand-in for the paper's
    Matlab/Simulink runs) integrates the loop-filter/VCO continuous
    dynamics between PFD switching events; both a fixed-step RK4 and an
    adaptive Dormand–Prince 5(4) are provided, plus an exact step for
    linear time-invariant segments via {!Rmat.expm}. *)

type system = float -> float array -> float array
(** [f t y] returns dy/dt. *)

(** [rk4_step f t y h] advances one classical Runge–Kutta step. *)
val rk4_step : system -> float -> float array -> float -> float array

(** [rk4 f ~t0 ~y0 ~t1 ~steps] integrates with [steps] fixed steps and
    returns the final state. *)
val rk4 : system -> t0:float -> y0:float array -> t1:float -> steps:int -> float array
[@@lint.allow "test-only-export" "queued: only its own unit tests call it"]

(** [rk4_trace] — like {!rk4} but returns all the intermediate
    [(t, y)] samples including the endpoints. *)
val rk4_trace :
  system -> t0:float -> y0:float array -> t1:float -> steps:int -> (float * float array) array
[@@lint.allow "test-only-export" "queued: only its own unit tests call it"]

(** [dopri5 f ~t0 ~y0 ~t1 ?rtol ?atol ?h0 ()] — adaptive
    Dormand–Prince 5(4); returns the final state. *)
val dopri5 :
  system -> t0:float -> y0:float array -> t1:float -> ?rtol:float -> ?atol:float -> ?h0:float -> unit -> float array
[@@lint.allow "test-only-export" "queued: only its own unit tests call it"]

(** Exact advance of the affine system [x' = A x + b] (constant [b]) over
    [h], using the augmented-matrix exponential; returns a closure usable
    for many steps with the same [A], [b], [h]. *)
val linear_stepper : a:Rmat.t -> b:float array -> h:float -> float array -> float array
[@@lint.allow "test-only-export" "queued: only its own unit tests call it"]
