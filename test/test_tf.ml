open Numeric
open Helpers
module Tf = Lti.Tf

let lowpass = Tf.first_order_pole 10.0 (* 1/(1 + s/10) *)

let test_constructors () =
  check_cx "gain" (Cx.of_float 2.5) (Tf.eval (Tf.gain 2.5) (Cx.make 3.0 1.0));
  check_cx "integrator" (Cx.of_float 0.5) (Tf.eval Tf.integrator (Cx.of_float 2.0));
  check_cx "double integrator" (Cx.of_float 0.25)
    (Tf.eval Tf.double_integrator (Cx.of_float 2.0));
  check_cx "first order pole at dc" Cx.one (Tf.eval lowpass Cx.zero);
  check_cx "first order pole at corner"
    (Cx.div Cx.one (Cx.make 1.0 1.0))
    (Tf.freq_response lowpass 10.0);
  check_cx "first order zero at corner" (Cx.make 1.0 1.0)
    (Tf.freq_response (Tf.first_order_zero 10.0) 10.0);
  Alcotest.check_raises "nonpositive pole freq"
    (Invalid_argument "Tf.first_order_pole: frequency must be positive")
    (fun () -> ignore (Tf.first_order_pole 0.0))

let test_from_zpk () =
  let tf = Tf.from_zpk ~zeros:[ -1.0 ] ~poles:[ -2.0; -3.0 ] ~gain:4.0 in
  (* 4 (s+1) / ((s+2)(s+3)) at s=0: 4/6 *)
  check_cx "zpk dc" (Cx.of_float (4.0 /. 6.0)) (Tf.eval tf Cx.zero);
  check_close "dc_gain" (4.0 /. 6.0) (Tf.dc_gain tf)

let test_algebra () =
  let x = Cx.make 0.3 1.1 in
  let a = lowpass and b = Tf.first_order_zero 3.0 in
  check_cx "mul" (Cx.mul (Tf.eval a x) (Tf.eval b x)) (Tf.eval (Tf.mul a b) x);
  check_cx "scale" (Cx.scale 3.0 (Tf.eval a x)) (Tf.eval (Tf.scale 3.0 a) x)

let test_feedback () =
  let g = Tf.gain 9.0 in
  (* unity feedback of a gain: 9/10 *)
  check_close "static loop" 0.9 (Tf.dc_gain (Tf.feedback_unity g))

let test_poles_zeros () =
  (match Tf.poles lowpass with
  | [ p ] -> check_cx "pole at -10" (Cx.of_float (-10.0)) p
  | _ -> Alcotest.fail "one pole expected");
  check_true "integrator proper" (Tf.is_proper Tf.integrator);
  check_true "differentiator improper"
    (not (Tf.is_proper (Tf.make ~num:[ 0.0; 1.0 ] ~den:[ 1.0 ])))

let test_stability () =
  check_true "lowpass stable" (Tf.is_stable lowpass);
  check_true "integrator marginal -> unstable" (not (Tf.is_stable Tf.integrator));
  check_true "rhp pole unstable"
    (not (Tf.is_stable (Tf.make ~num:[ 1.0 ] ~den:[ -1.0; 1.0 ])));
  check_true "second order stable"
    (Tf.is_stable (Tf.make ~num:[ 1.0 ] ~den:[ 1.0; 0.5; 1.0 ]))

let test_coeff_access () =
  let tf = Tf.make ~num:[ 1.0; 2.0 ] ~den:[ 3.0; 4.0; 5.0 ] in
  Alcotest.(check (array (float 1e-12))) "num" [| 1.0; 2.0 |] (Tf.num_coeffs tf);
  Alcotest.(check (array (float 1e-12))) "den" [| 3.0; 4.0; 5.0 |] (Tf.den_coeffs tf)

let prop_freq_response_conj =
  qcheck ~count:40 "real tf: H(-jw) = conj H(jw)"
    (QCheck2.Gen.pair nonzero_float nonzero_float) (fun (wp, w) ->
      let wp = Float.abs wp +. 0.2 and w = Float.abs w in
      let tf = Tf.first_order_pole wp in
      Cx.approx (Tf.freq_response tf (-.w)) (Cx.conj (Tf.freq_response tf w)))

let prop_series_gain =
  qcheck ~count:40 "cascade multiplies magnitudes"
    (QCheck2.Gen.pair (QCheck2.Gen.float_range 0.5 20.0) (QCheck2.Gen.float_range 0.1 50.0))
    (fun (wp, w) ->
      let tf = Tf.first_order_pole wp in
      let double = Tf.mul tf tf in
      let m1 = Cx.abs (Tf.freq_response tf w) in
      let m2 = Cx.abs (Tf.freq_response double w) in
      Float.abs (m2 -. (m1 *. m1)) < 1e-9 *. (1.0 +. m2))

let suite =
  [
    case "constructors" test_constructors;
    case "zpk" test_from_zpk;
    case "algebra" test_algebra;
    case "feedback" test_feedback;
    case "poles/zeros/properness" test_poles_zeros;
    case "stability" test_stability;
    case "coefficient access" test_coeff_access;
    prop_freq_response_conj;
    prop_series_gain;
  ]
