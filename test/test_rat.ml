open Numeric
open Helpers

(* 1 / (s + 1) *)
let lowpass = Rat.make Poly.one (Poly.of_real_coeffs [ 1.0; 1.0 ])

(* s / (s + 2) *)
let highpass = Rat.make Poly.s (Poly.of_real_coeffs [ 2.0; 1.0 ])

let test_eval () =
  check_cx "lowpass at 0" Cx.one (Rat.eval lowpass Cx.zero);
  check_cx "lowpass at 1" (Cx.of_float 0.5) (Rat.eval lowpass Cx.one);
  check_cx "s at 3" (Cx.of_float 3.0) (Rat.eval Rat.s (Cx.of_float 3.0))

let test_algebra () =
  let x = Cx.make 0.3 1.7 in
  check_cx "add" (Cx.add (Rat.eval lowpass x) (Rat.eval highpass x))
    (Rat.eval (Rat.add lowpass highpass) x);
  check_cx "mul" (Cx.mul (Rat.eval lowpass x) (Rat.eval highpass x))
    (Rat.eval (Rat.mul lowpass highpass) x);
  check_cx "inv" (Cx.inv (Rat.eval lowpass x)) (Rat.eval (Rat.inv lowpass) x)

let test_feedback () =
  let x = Cx.make 0.1 0.9 in
  let g = Rat.eval lowpass x in
  check_cx "unity feedback"
    (Cx.div g (Cx.add Cx.one g))
    (Rat.eval (Rat.feedback_unity lowpass) x)

let test_poles_zeros_degree () =
  check_true "lowpass strictly proper" (Rat.is_strictly_proper lowpass);
  check_true "highpass proper" (Rat.is_proper highpass);
  check_true "highpass not strictly proper" (not (Rat.is_strictly_proper highpass));
  (match Rat.poles lowpass with
  | [ p ] -> check_cx "pole" (Cx.of_float (-1.0)) p
  | _ -> Alcotest.fail "expected one pole");
  match Rat.zeros highpass with
  | [ z ] -> check_cx "zero" Cx.zero z
  | _ -> Alcotest.fail "expected one zero"

let test_derivative () =
  (* d/ds 1/(s+1) = -1/(s+1)^2 *)
  let d = Rat.derivative lowpass in
  let x = Cx.of_float 2.0 in
  check_cx "derivative value" (Cx.of_float (-1.0 /. 9.0)) (Rat.eval d x)

let test_reduce () =
  (* (s+1)(s+2) / (s+1)(s+3): the (s+1) pair cancels *)
  let r =
    Rat.make
      (Poly.from_roots [ Cx.of_float (-1.0); Cx.of_float (-2.0) ])
      (Poly.from_roots [ Cx.of_float (-1.0); Cx.of_float (-3.0) ])
  in
  let reduced = Rat.reduce r in
  check_int "num degree after cancel" 1 (Poly.degree reduced.Rat.num);
  check_int "den degree after cancel" 1 (Poly.degree reduced.Rat.den);
  check_true "same response" (Rat.equal_response r reduced);
  (* zero numerator reduces to literal zero *)
  let z = Rat.reduce (Rat.make Poly.zero (Poly.of_real_coeffs [ 1.0; 1.0 ])) in
  check_true "zero stays zero" (Poly.is_zero z.Rat.num)

let test_normalize () =
  let r = Rat.make (Poly.of_real_coeffs [ 2.0 ]) (Poly.of_real_coeffs [ 4.0; 2.0 ]) in
  let n = Rat.normalize r in
  check_cx "monic den lead" Cx.one (Poly.coeff n.Rat.den 1);
  check_true "same response" (Rat.equal_response r n)

let test_zero_den_raises () =
  Alcotest.check_raises "make with zero den" Division_by_zero (fun () ->
      ignore (Rat.make Poly.one Poly.zero));
  Alcotest.check_raises "inv of zero" Division_by_zero (fun () ->
      ignore (Rat.inv Rat.zero))

let gen_rat =
  QCheck2.Gen.map2
    (fun n d ->
      let d = if Poly.is_zero d then Poly.one else d in
      Rat.make n d)
    gen_poly gen_poly

let prop_add_comm =
  qcheck ~count:50 "addition commutative (as response)"
    (QCheck2.Gen.pair gen_rat gen_rat) (fun (a, b) ->
      Rat.equal_response ~tol:1e-5 (Rat.add a b) (Rat.add b a))

let prop_mul_inverse =
  qcheck ~count:50 "r * (1/r) = 1 away from poles/zeros" gen_rat (fun r ->
      QCheck2.assume (not (Poly.is_zero r.Rat.num));
      Rat.equal_response ~tol:1e-5 Rat.one (Rat.mul r (Rat.inv r)))

let suite =
  [
    case "evaluation" test_eval;
    case "field algebra" test_algebra;
    case "feedback composition" test_feedback;
    case "poles/zeros/degrees" test_poles_zeros_degree;
    case "derivative" test_derivative;
    case "pole-zero cancellation" test_reduce;
    case "normalization" test_normalize;
    case "division by zero" test_zero_den_raises;
    prop_add_comm;
    prop_mul_inverse;
  ]
