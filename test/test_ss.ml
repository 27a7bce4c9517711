open Numeric
open Helpers
module Tf = Lti.Tf
module Ss = Lti.Ss

let sample_points = [ Cx.make 0.5 1.0; Cx.make (-0.2) 3.0; Cx.jomega 0.7 ]

let check_realization tf =
  let ss = Ss.of_tf tf in
  List.iter
    (fun s ->
      check_cx ~tol:1e-8 "ss eval matches tf eval" (Tf.eval tf s) (Ss.eval ss s))
    sample_points

let test_first_order () = check_realization (Tf.first_order_pole 2.0)

let test_with_zero () =
  check_realization (Tf.make ~num:[ 1.0; 0.5 ] ~den:[ 1.0; 0.3; 1.0 ])

let test_biproper () =
  (* D <> 0: num and den same degree *)
  check_realization (Tf.make ~num:[ 2.0; 1.0 ] ~den:[ 1.0; 1.0 ]);
  let ss = Ss.of_tf (Tf.make ~num:[ 2.0; 1.0 ] ~den:[ 1.0; 1.0 ]) in
  check_close "direct feedthrough" 1.0 ss.Ss.d

let test_static () =
  let ss = Ss.of_tf (Tf.gain 3.0) in
  check_int "order zero" 0 (Ss.order ss);
  check_cx "static eval" (Cx.of_float 3.0) (Ss.eval ss Cx.one)

let test_improper_rejected () =
  Alcotest.check_raises "improper"
    (Invalid_argument "Ss.of_tf: improper transfer function") (fun () ->
      ignore (Ss.of_tf (Tf.make ~num:[ 0.0; 1.0 ] ~den:[ 1.0 ])))

let test_derivative_output () =
  let ss = Ss.of_tf (Tf.first_order_pole 2.0) in
  (* x' = A x + B u; at x = 0, u = 1, dx = B *)
  let dx = Ss.derivative ss [| 0.0 |] 1.0 in
  check_close "dx = b" ss.Ss.b.(0) dx.(0);
  check_close "output at x" (ss.Ss.c.(0) *. 5.0) (Ss.output ss [| 5.0 |] 0.0)

let test_discretize_first_order () =
  (* x' = -x + u: phi = e^{-dt}, gamma = 1 - e^{-dt} *)
  let ss = { Ss.a = Rmat.of_rows [| [| -1.0 |] |]; b = [| 1.0 |]; c = [| 1.0 |]; d = 0.0 } in
  let phi, gamma = Ss.discretize ss ~dt:0.5 in
  check_close ~tol:1e-12 "phi" (exp (-0.5)) (Rmat.get phi 0 0);
  check_close ~tol:1e-12 "gamma" (1.0 -. exp (-0.5)) gamma.(0)

let test_impulse_state () =
  let ss = Ss.of_tf (Tf.first_order_pole 1.0) in
  let x = Ss.impulse_state ss 2.5 in
  check_close "impulse kick" (2.5 *. ss.Ss.b.(0)) x.(0)

let prop_realization_matches =
  qcheck ~count:30 "random stable 2nd-order realization matches"
    (QCheck2.Gen.triple (QCheck2.Gen.float_range 0.2 5.0)
       (QCheck2.Gen.float_range 0.2 5.0) (QCheck2.Gen.float_range (-3.0) 3.0))
    (fun (a, b, c) ->
      let tf = Tf.make ~num:[ c; 1.0 ] ~den:[ a *. b; a +. b; 1.0 ] in
      let ss = Ss.of_tf tf in
      List.for_all
        (fun s -> Cx.approx ~tol:1e-6 (Tf.eval tf s) (Ss.eval ss s))
        sample_points)

let suite =
  [
    case "first order" test_first_order;
    case "with zero" test_with_zero;
    case "biproper (D nonzero)" test_biproper;
    case "static gain" test_static;
    case "improper rejected" test_improper_rejected;
    case "derivative/output" test_derivative_output;
    case "exact discretization" test_discretize_first_order;
    case "impulse state" test_impulse_state;
    prop_realization_matches;
  ]
