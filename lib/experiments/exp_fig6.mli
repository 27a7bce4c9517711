(** FIG6 — closed-loop baseband transfer [|H₀₀(jω)|] at several
    [ω_UG/ω₀] ratios (paper Fig. 6; default {0.05, 0.1, 0.2}).

    Solid lines in the paper = eq. 38; marks = time-marching simulation;
    agreement within 2 %. The LTI approximation [A/(1+A)] is also
    tabulated to expose the bandwidth shift and the extra passband-edge
    peaking that grow with [ω_UG/ω₀]. Ratios beyond ≈0.28 are excluded:
    the sampled second-order charge-pump loop is unstable there (the
    Gardner bound — see {!Exp_fig7}), whatever the designed LTI
    margin. *)

type point = {
  omega_norm : float;  (** ω/ω_UG *)
  htm_mag : float;
  lti_mag : float;
  sim_mag : float option;  (** present at simulator spot frequencies *)
  sim_rel_err : float option;  (** |sim − htm|/|htm| *)
}

type curve = {
  ratio : float;
  points : point list;
  worst_sim_err : float;  (** max over the spot checks *)
}

(** [compute ()] — all three curves. [sim_points] spot frequencies per
    curve are simulated (default 6; 0 disables the simulator — handy for
    quick sweeps). Curves, grid points and simulator spot checks are all
    evaluated in parallel on [pool] (default [Parallel.Pool.default]);
    output is bit-identical for any pool size. *)
val compute :
  ?spec:Pll_lib.Design.spec ->
  ?ratios:float list ->
  ?points:int ->
  ?sim_points:int ->
  ?pool:Parallel.Pool.t ->
  unit ->
  curve list
[@@lint.allow "test-only-export" "test seam: the numbers behind the printed figure, which the experiments tests assert"]

val run : unit -> unit
