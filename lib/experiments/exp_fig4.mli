(** FIG4 — finite PFD pulses vs Dirac impulses (paper Fig. 4).

    The sampling-PFD model replaces each charge-pump pulse (width [w],
    height [I_cp]) by an impulse of weight [I_cp·w]. The paper argues
    the two are equivalent when [w] is small against the loop-filter/VCO
    time constant. This experiment quantifies that claim on the exact
    linear dynamics: the end-of-period state response to a rectangular
    pulse is compared with the response to the matching impulse, sweeping
    the pulse width over decades. The deviation shrinks linearly with
    the width (the leading error is the w/2 centroid shift of the
    pulse). *)

type row = {
  width_frac : float;  (** pulse width / reference period *)
  theta_pulse : float;  (** time-shift response at t = T, pulse drive *)
  theta_impulse : float;  (** same, impulse drive *)
  rel_err : float;
}

(** Widths are analyzed in parallel on [pool] (default
    [Parallel.Pool.default]); rows are bit-identical for any pool
    size. *)
val compute :
  ?spec:Pll_lib.Design.spec ->
  ?widths:float list ->
  ?pool:Parallel.Pool.t ->
  unit ->
  row list

val run : unit -> unit
