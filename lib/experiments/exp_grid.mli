(** GRID — the plan/execute evaluation demonstrated end to end.

    Compiles the closed-loop HTM of the default design into a grid plan
    ({!Pll_lib.Pll.closed_loop_plan}, exact-λ rank-one fast path),
    streams a log grid through it, and reports the deviations against
    the three independent references: the paper's closed form H₀₀
    (eq. 38), the one-point plan behind [Htm.element] (no exact-λ
    override), and the all-dense
    boxed oracle. Also compares the closed-loop peaking/bandwidth
    metrics computed from the closed form against the planned-HTM grid
    path ({!Pll_lib.Analysis.closed_loop_metrics_htm}). All deviations
    are expected at rounding level — the machine-checked version of this
    table is the differential suite in [test/test_grid.ml]. *)

type row = {
  s_frac : float;  (** ω / ω₀ *)
  h00_planned : Numeric.Cx.t;
  closed_form_dev : float;
  per_point_dev : float;
  oracle_dev : float;
}

type t = {
  n_harm : int;
  root_shape : string;
  rows : row list;
  grid_points : int;
  grid_oracle_max_dev : float;
  metrics_closed : Pll_lib.Analysis.closed_loop_metrics;
  metrics_htm : Pll_lib.Analysis.closed_loop_metrics;
}

val run : unit -> unit
