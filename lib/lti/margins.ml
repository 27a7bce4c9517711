open Numeric

type report = {
  unity_gain_freq : float option;
  phase_margin_deg : float option;
  gain_margin_db : float option;
  phase_cross_freq : float option;
}

let unity_gain_crossover ?(steps = 600) f ~lo ~hi =
  let log_mag w = log (Cx.abs (f w)) in
  Optimize.find_first_crossing ~steps log_mag ~lo ~hi

let phase_margin_at f w = 180.0 +. Stats.deg (Cx.arg (f w))

let phase_crossover ?(steps = 600) f ~lo ~hi =
  (* first frequency where the response crosses the negative real axis:
     Im = 0 with Re < 0 *)
  let crossings = Optimize.find_all_crossings ~steps (fun w -> Cx.im (f w)) ~lo ~hi in
  List.find_opt (fun w -> Cx.re (f w) < 0.0) crossings

let analyze ?(steps = 600) f ~lo ~hi =
  let wug = unity_gain_crossover ~steps f ~lo ~hi in
  let phase_margin_deg = Option.map (phase_margin_at f) wug in
  let wpc = phase_crossover ~steps f ~lo ~hi in
  let gain_margin_db = Option.map (fun w -> -.Stats.db (Cx.abs (f w))) wpc in
  {
    unity_gain_freq = wug;
    phase_margin_deg;
    gain_margin_db;
    phase_cross_freq = wpc;
  }
