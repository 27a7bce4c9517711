open Numeric
open Helpers

let test_bisect () =
  check_close ~tol:1e-9 "sqrt 2" (sqrt 2.0)
    (Optimize.bisect (fun x -> (x *. x) -. 2.0) 0.0 2.0);
  check_close "root at endpoint" 1.0 (Optimize.bisect (fun x -> x -. 1.0) 1.0 2.0);
  Alcotest.check_raises "no bracket" Optimize.No_bracket (fun () ->
      ignore (Optimize.bisect (fun x -> (x *. x) +. 1.0) (-1.0) 1.0))

let test_brent () =
  check_close ~tol:1e-10 "sqrt 2" (sqrt 2.0)
    (Optimize.brent (fun x -> (x *. x) -. 2.0) 0.0 2.0);
  check_close ~tol:1e-10 "cos crossing" (Float.pi /. 2.0)
    (Optimize.brent cos 1.0 2.0);
  (* nasty flat function near the root *)
  check_close ~tol:1e-6 "cubic root" 0.0
    (Optimize.brent (fun x -> x ** 3.0) (-1.0) 0.5);
  Alcotest.check_raises "no bracket" Optimize.No_bracket (fun () ->
      ignore (Optimize.brent (fun x -> (x *. x) +. 1.0) (-1.0) 1.0))

let test_spaces () =
  let lg = Optimize.logspace 1.0 100.0 3 in
  check_close "logspace mid" 10.0 lg.(1);
  check_close "logspace end" 100.0 lg.(2);
  Alcotest.check_raises "logspace negative"
    (Invalid_argument "Optimize.logspace: bounds must be positive") (fun () ->
      ignore (Optimize.logspace (-1.0) 1.0 5))

let test_crossings () =
  (* sin crosses zero at pi, 2pi, 3pi within [1, 10] *)
  let found = Optimize.find_all_crossings sin ~lo:1.0 ~hi:10.0 in
  check_int "three crossings" 3 (List.length found);
  List.iteri
    (fun i x ->
      check_close ~tol:1e-8 "crossing location" (float_of_int (i + 1) *. Float.pi) x)
    found;
  match Optimize.find_first_crossing sin ~lo:1.0 ~hi:10.0 with
  | Some x -> check_close ~tol:1e-8 "first crossing" Float.pi x
  | None -> Alcotest.fail "expected a crossing"

let test_no_crossing () =
  Alcotest.(check (option (float 1e-6))) "no crossing" None
    (Optimize.find_first_crossing (fun _ -> 1.0) ~lo:1.0 ~hi:10.0)

let test_golden_min () =
  check_close ~tol:1e-6 "parabola min" 3.0
    (Optimize.golden_min (fun x -> (x -. 3.0) ** 2.0) 0.0 10.0);
  check_close ~tol:1e-6 "cos min" Float.pi (Optimize.golden_min cos 2.0 4.0)

let prop_brent_finds_root =
  qcheck ~count:50 "brent residual tiny"
    (QCheck2.Gen.pair (QCheck2.Gen.float_range 0.2 5.0) (QCheck2.Gen.float_range (-3.0) 3.0))
    (fun (a, b) ->
      (* f(x) = a x + b has root -b/a; bracket generously *)
      let f x = (a *. x) +. b in
      let r = Optimize.brent f (-100.0) 100.0 in
      Float.abs (f r) < 1e-8 *. (1.0 +. Float.abs b))

let suite =
  [
    case "bisect" test_bisect;
    case "brent" test_brent;
    case "linspace/logspace" test_spaces;
    case "crossing search" test_crossings;
    case "no crossing" test_no_crossing;
    case "golden minimum" test_golden_min;
    prop_brent_finds_root;
  ]
