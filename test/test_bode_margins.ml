open Numeric
open Helpers
module Tf = Lti.Tf
module Bode = Lti.Bode
module Margins = Lti.Margins

let test_sweep_first_order () =
  let tf = Tf.first_order_pole 10.0 in
  let pts = Bode.sweep_tf tf ~lo:0.1 ~hi:1000.0 ~points:41 in
  check_int "point count" 41 (Array.length pts);
  (* at dc: 0 dB; at corner: -3 dB; decade above: ~-20 dB *)
  check_close ~tol:0.01 "low-frequency flat" 0.0 pts.(0).Bode.mag_db;
  let at w =
    let best = ref pts.(0) in
    Array.iter
      (fun p ->
        if Float.abs (log (p.Bode.omega /. w)) < Float.abs (log (!best.Bode.omega /. w))
        then best := p)
      pts;
    !best
  in
  check_close ~tol:0.1 "corner -3dB" (-3.0103) (at 10.0).Bode.mag_db;
  check_close ~tol:0.3 "decade above" (-20.04) (at 100.0).Bode.mag_db;
  check_close ~tol:0.5 "corner phase -45" (-45.0) (at 10.0).Bode.phase_deg

let test_unwrap () =
  let wrapped = [| 170.0; -175.0; -160.0 |] in
  let un = Bode.unwrap wrapped in
  check_close "unwrap jump" 185.0 un.(1);
  check_close "unwrap continues" 200.0 un.(2);
  Alcotest.(check (array (float 1e-9))) "empty" [||] (Bode.unwrap [||])

let test_unwrap_monotone_integrator2 () =
  (* double integrator + zero: phase should never jump by 360 *)
  let tf = Tf.mul Tf.double_integrator (Tf.first_order_zero 1.0) in
  let pts = Bode.sweep_tf tf ~lo:0.01 ~hi:100.0 ~points:200 in
  let ok = ref true in
  for i = 1 to 199 do
    if Float.abs (pts.(i).Bode.phase_deg -. pts.(i - 1).Bode.phase_deg) > 90.0 then
      ok := false
  done;
  check_true "no phase jumps" !ok

let test_margins_integrator () =
  (* L = 10/s: crossover at 10 rad/s with 90 deg margin *)
  let tf = Tf.scale 10.0 Tf.integrator in
  let r = Margins.analyze (Tf.freq_response tf) ~lo:0.1 ~hi:1000.0 in
  (match r.Margins.unity_gain_freq with
  | Some w -> check_close ~tol:1e-6 "crossover" 10.0 w
  | None -> Alcotest.fail "crossover expected");
  match r.Margins.phase_margin_deg with
  | Some pm -> check_close ~tol:1e-6 "pm 90" 90.0 pm
  | None -> Alcotest.fail "phase margin expected"

let test_margins_second_order () =
  (* L = wn^2 / s^2 would have 0 margin; add a zero for positive margin *)
  let tf = Tf.mul (Tf.scale 100.0 Tf.double_integrator) (Tf.first_order_zero 5.0) in
  let r = Margins.analyze (Tf.freq_response tf) ~lo:0.01 ~hi:1000.0 in
  match (r.Margins.unity_gain_freq, r.Margins.phase_margin_deg) with
  | Some w, Some pm ->
      check_true "crossover above 10 (zero boosts gain)" (w >= 10.0);
      let expected = Stats.deg (atan (w /. 5.0)) in
      check_close ~tol:1e-6 "margin is the zero's boost" expected pm
  | _ -> Alcotest.fail "margins expected"

let test_gain_margin () =
  (* third-order loop with finite gain margin:
     L(s) = 8 / (1+s)^3 crosses -180 at w = sqrt(3), |L| there = 1, so
     pick gain 4: GM = 20 log10 (8/4) = 6.02 dB *)
  let pole = Tf.first_order_pole 1.0 in
  let tf = Tf.scale 4.0 (Tf.mul pole (Tf.mul pole pole)) in
  let r = Margins.analyze (Tf.freq_response tf) ~lo:0.01 ~hi:100.0 in
  (match r.Margins.phase_cross_freq with
  | Some w -> check_close ~tol:1e-4 "phase crossover at sqrt(3)" (sqrt 3.0) w
  | None -> Alcotest.fail "phase crossover expected");
  match r.Margins.gain_margin_db with
  | Some gm -> check_close ~tol:1e-3 "gain margin 6.02 dB" (Stats.db 2.0) gm
  | None -> Alcotest.fail "gain margin expected"

let test_no_crossover () =
  (* |L| < 1 everywhere: no unity-gain crossover *)
  let tf = Tf.scale 0.1 (Tf.first_order_pole 1.0) in
  let r = Margins.analyze (Tf.freq_response tf) ~lo:0.01 ~hi:100.0 in
  check_true "no crossover" (Option.is_none r.Margins.unity_gain_freq);
  check_true "no margin" (Option.is_none r.Margins.phase_margin_deg)

let test_phase_margin_at () =
  let f w = Tf.freq_response (Tf.scale 10.0 Tf.integrator) w in
  check_close ~tol:1e-9 "pm at crossover" 90.0 (Margins.phase_margin_at f 10.0)

let prop_margins_scale_invariance =
  qcheck ~count:20 "crossover moves with gain for an integrator"
    (QCheck2.Gen.float_range 1.0 100.0) (fun k ->
      let r = Margins.analyze (Tf.freq_response (Tf.scale k Tf.integrator)) ~lo:0.01 ~hi:1000.0 in
      match r.Lti.Margins.unity_gain_freq with
      | Some w -> Float.abs (w -. k) < 1e-6 *. k
      | None -> false)

let suite =
  [
    case "first-order sweep" test_sweep_first_order;
    case "phase unwrap" test_unwrap;
    case "unwrap on swept system" test_unwrap_monotone_integrator2;
    case "integrator margins" test_margins_integrator;
    case "second-order margins" test_margins_second_order;
    case "gain margin" test_gain_margin;
    case "no crossover" test_no_crossover;
    case "phase_margin_at" test_phase_margin_at;
    prop_margins_scale_invariance;
  ]
