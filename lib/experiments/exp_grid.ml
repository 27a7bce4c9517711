open Numeric

type row = {
  s_frac : float;  (** ω / ω₀ *)
  h00_planned : Cx.t;
  closed_form_dev : float;  (** vs the exact H₀₀ of eq. 38 *)
  per_point_dev : float;  (** vs a one-point plan without the exact-λ path *)
  oracle_dev : float;  (** full matrix vs the dense oracle, max entry *)
}

type t = {
  n_harm : int;
  root_shape : string;
  rows : row list;
  grid_points : int;
  grid_oracle_max_dev : float;  (** max over the whole grid, all entries *)
  metrics_closed : Pll_lib.Analysis.closed_loop_metrics;
  metrics_htm : Pll_lib.Analysis.closed_loop_metrics;
}

let shape_name : Htm_core.Smat.shape_t -> string = function
  | `Diag -> "diag"
  | `Band k -> Printf.sprintf "band(%d)" k
  | `Rank1 -> "rank1"
  | `Dense -> "dense"

let max_entry_dev a b =
  let n = Cmat.rows a in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    for k = 0 to n - 1 do
      let d = Cx.abs (Cx.sub (Cmat.get a i k) (Cmat.get b i k)) in
      if d > !acc then acc := d
    done
  done;
  !acc

let compute ?(spec = Pll_lib.Design.default_spec) ?(n_harm = 12) () =
  let p = Pll_lib.Design.synthesize spec in
  let w0 = Pll_lib.Pll.omega0 p in
  let c = Htm_core.Htm.ctx ~n_harm ~omega0:w0 in
  let cl = Pll_lib.Pll.closed_loop_htm p in
  let plan = Pll_lib.Pll.closed_loop_plan c p in
  let h00 = Pll_lib.Pll.h00_fn p Pll_lib.Pll.Exact in
  let fracs = [ 0.03; 0.11; 0.23; 0.37; 0.47 ] in
  let rows =
    List.map
      (fun s_frac ->
        let s = Cx.jomega (s_frac *. w0) in
        let planned = Htm_core.Plan.baseband plan s in
        let per_point = Htm_core.Htm.element c cl ~n:0 ~m:0 s in
        let planned_mat = Htm_core.Plan.to_cmat plan s in
        let oracle = Htm_core.Htm.to_matrix_dense c cl s in
        {
          s_frac;
          h00_planned = planned;
          closed_form_dev = Cx.abs (Cx.sub planned (h00 s));
          per_point_dev = Cx.abs (Cx.sub planned per_point);
          oracle_dev = max_entry_dev planned_mat oracle;
        })
      fracs
  in
  (* whole-grid equivalence sweep: planned evaluation of a log grid
     against the dense oracle at every point *)
  let grid_points = 64 in
  let ss =
    Array.map Cx.jomega (Optimize.logspace (w0 *. 1e-4) (w0 *. 0.49) grid_points)
  in
  let planned_grid = Array.map (Htm_core.Plan.to_cmat plan) ss in
  let grid_oracle_max_dev =
    Array.to_list planned_grid
    |> List.mapi (fun i m ->
           max_entry_dev m (Htm_core.Htm.to_matrix_dense c cl ss.(i)))
    |> List.fold_left Stdlib.max 0.0
  in
  {
    n_harm;
    root_shape = shape_name (Htm_core.Plan.root_shape plan);
    rows;
    grid_points;
    grid_oracle_max_dev;
    metrics_closed = Pll_lib.Analysis.closed_loop_metrics p;
    metrics_htm = Pll_lib.Analysis.closed_loop_metrics_htm ~n_harm p;
  }

let print ppf r =
  Report.section ppf "GRID: plan/execute HTM evaluation vs per-point paths";
  Report.kv ppf "truncation" "n_harm = %d (dim %d)" r.n_harm ((2 * r.n_harm) + 1);
  Report.kv ppf "planned root shape" "%s" r.root_shape;
  Report.table ppf ~title:"closed-loop H00: planned vs closed form vs oracle"
    ~header:[ "w/w0"; "|H00|"; "dev eq.38"; "dev per-point"; "dev oracle" ]
    (List.map
       (fun row ->
         [
           Report.f3 row.s_frac;
           Report.g (Cx.abs row.h00_planned);
           Report.g row.closed_form_dev;
           Report.g row.per_point_dev;
           Report.g row.oracle_dev;
         ])
       r.rows);
  Report.kv ppf "grid sweep" "%d points, max |planned - dense oracle| = %s"
    r.grid_points
    (Report.g r.grid_oracle_max_dev);
  let m_row label (m : Pll_lib.Analysis.closed_loop_metrics) =
    [
      label;
      Report.g m.dc_mag;
      Printf.sprintf "%.3f" m.peak_db;
      (match m.bandwidth_3db with Some b -> Report.g b | None -> "n/a");
    ]
  in
  Report.table ppf ~title:"closed-loop metrics: closed form vs planned HTM grid"
    ~header:[ "path"; "dc |H00|"; "peak dB"; "bw3dB rad/s" ]
    [
      m_row "closed form (eq. 38)" r.metrics_closed;
      m_row "planned HTM grid" r.metrics_htm;
    ]

let run () = print Format.std_formatter (compute ())
