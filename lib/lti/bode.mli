(** Frequency-response sweeps (Bode data).

    Works on any response function [float -> Complex.t] so the same
    machinery sweeps classical transfer functions [A(jω)] and the
    time-varying effective open loop [λ(jω)] of the paper (Fig. 5 and
    the curves behind Figs. 6–7). *)

type point = {
  omega : float;
  response : Numeric.Cx.t;
  mag_db : float;
  phase_deg : float;  (** unwrapped along the sweep *)
}

(** [of_responses ~ws responses] — build Bode points from responses
    already evaluated on the grid [ws] (phase unwrapped from the
    low-frequency end). This is how batched evaluators — notably the
    grid-batched HTM plans of [Htm_core.Plan] — feed the Bode layer:
    evaluate the grid however is cheapest, then post-process here.
    {!sweep} is [of_responses] over a pool-evaluated log grid.
    @raise Invalid_argument when lengths differ. *)
val of_responses : ws:float array -> Numeric.Cx.t array -> point array

(** [sweep f ~lo ~hi ~points] evaluates [f] on a log grid and unwraps the
    phase continuously from the low-frequency end. Grid points are
    evaluated on [pool] (default [Parallel.Pool.default]); the result is
    bit-identical for any pool size. *)
val sweep :
  ?pool:Parallel.Pool.t ->
  (float -> Numeric.Cx.t) ->
  lo:float ->
  hi:float ->
  points:int ->
  point array

(** [sweep_tf tf ~lo ~hi ~points] sweeps an LTI transfer function. *)
val sweep_tf :
  ?pool:Parallel.Pool.t -> Tf.t -> lo:float -> hi:float -> points:int -> point array

(** [unwrap phases_deg] removes ±360° jumps from a phase sequence. *)
val unwrap : float array -> float array
[@@lint.allow "test-only-export" "test seam: the phase unwrap of sweep, unit-tested directly"]
