open Numeric
open Helpers
module Expr = Symbolic.Expr

let env_xy name =
  match name with
  | "x" -> Cx.of_float 2.0
  | "y" -> Cx.of_float 3.0
  | _ -> raise Not_found

let x = Expr.sym "x"
let y = Expr.sym "y"

let test_constant_folding () =
  check_true "2+3 folds" (Expr.equal (Expr.num 5.0) (Expr.add (Expr.num 2.0) (Expr.num 3.0)));
  check_true "2*3 folds" (Expr.equal (Expr.num 6.0) (Expr.mul (Expr.num 2.0) (Expr.num 3.0)));
  check_true "x+0 = x" (Expr.equal x (Expr.add x Expr.zero));
  check_true "x*1 = x" (Expr.equal x (Expr.mul x Expr.one));
  check_true "x*0 = 0" (Expr.equal Expr.zero (Expr.mul x Expr.zero));
  check_true "x^0 = 1" (Expr.equal Expr.one (Expr.pow x 0));
  check_true "x^1 = x" (Expr.equal x (Expr.pow x 1));
  check_true "(x^2)^3 = x^6" (Expr.equal (Expr.pow x 6) (Expr.pow (Expr.pow x 2) 3))

(* equal compares constants with Float.equal: a NaN constant, alone or
   deep inside an expression, equals itself *)
let test_equal_nan () =
  let x = Expr.sym "x" in
  check_true "nan = nan" (Expr.equal (Expr.num Float.nan) (Expr.num Float.nan));
  let nested () =
    Expr.coth (Expr.add x (Expr.pow (Expr.mul (Expr.num Float.nan) (Expr.sym "y")) 2))
  in
  check_true "nested nan constant = itself" (Expr.equal (nested ()) (nested ()));
  check_true "nan <> 1" (not (Expr.equal (Expr.num Float.nan) Expr.one));
  check_true "x <> y" (not (Expr.equal x (Expr.sym "y")))

let test_eval () =
  let e = Expr.add (Expr.mul x y) (Expr.pow x 2) in
  check_cx "2*3 + 4" (Cx.of_float 10.0) (Expr.eval env_xy e);
  check_close "real eval" 10.0 (Expr.eval_real (function "x" -> 2.0 | "y" -> 3.0 | _ -> raise Not_found) e);
  check_cx "division" (Cx.of_float (2.0 /. 3.0)) (Expr.eval env_xy (Expr.div x y));
  check_cx ~tol:1e-12 "coth" (Special.coth (Cx.of_float 2.0)) (Expr.eval env_xy (Expr.coth x))

let finite_diff e name h =
  let base v = Expr.eval_real (function n when n = name -> v | "x" -> 2.0 | "y" -> 3.0 | _ -> raise Not_found) e in
  (base (2.0 +. h) -. base (2.0 -. h)) /. (2.0 *. h)

let check_derivative ?(tol = 1e-6) e =
  let d = Expr.derivative ~wrt:"x" e in
  let sym_v =
    Expr.eval_real (function "x" -> 2.0 | "y" -> 3.0 | _ -> raise Not_found) d
  in
  let fd = finite_diff e "x" 1e-6 in
  check_close ~tol "derivative vs finite difference" fd sym_v

let test_derivatives () =
  check_derivative (Expr.pow x 3);
  check_derivative (Expr.mul x y);
  check_derivative (Expr.div Expr.one x);
  check_derivative (Expr.coth x);
  check_derivative (Expr.coth (Expr.pow x 2));
  check_derivative
    (Expr.div (Expr.add Expr.one (Expr.mul x y)) (Expr.add x (Expr.pow y 2)));
  check_true "d/dx y = 0"
    (Expr.equal Expr.zero (Expr.derivative ~wrt:"x" y))

let test_subst () =
  let e = Expr.add (Expr.pow x 2) y in
  let e' = Expr.subst "x" (Expr.num 5.0) e in
  check_cx "substituted" (Cx.of_float 28.0) (Expr.eval env_xy e');
  let chained = Expr.subst "y" (Expr.mul x x) e in
  check_cx "symbolic substitution" (Cx.of_float 8.0) (Expr.eval env_xy chained)

let test_symbols () =
  let e = Expr.add (Expr.mul x y) (Expr.coth x) in
  Alcotest.(check (list string)) "free symbols" [ "x"; "y" ] (Expr.symbols e);
  Alcotest.(check (list string)) "constants none" [] (Expr.symbols (Expr.num 3.0))

let test_printing () =
  Alcotest.(check string) "sum" "x + y" (Expr.to_string (Expr.add x y));
  Alcotest.(check string) "product precedence" "(x + y)*x"
    (Expr.to_string (Expr.mul (Expr.add x y) x));
  Alcotest.(check string) "power" "x^2" (Expr.to_string (Expr.pow x 2));
  Alcotest.(check string) "function" "coth(x)" (Expr.to_string (Expr.coth x))

let prop_eval_add_homomorphic =
  qcheck ~count:40 "eval is additive" (QCheck2.Gen.pair small_float small_float)
    (fun (a, b) ->
      let env = function "x" -> Cx.of_float a | "y" -> Cx.of_float b | _ -> raise Not_found in
      Cx.approx
        (Expr.eval env (Expr.add x y))
        (Cx.add (Expr.eval env x) (Expr.eval env y)))

let prop_derivative_linear =
  qcheck ~count:30 "d(a e1 + e2) = a de1 + de2"
    (QCheck2.Gen.float_range (-5.0) 5.0) (fun a ->
      let e1 = Expr.pow x 3 and e2 = Expr.coth x in
      let lhs =
        Expr.derivative ~wrt:"x" (Expr.add (Expr.mul (Expr.num a) e1) e2)
      in
      let rhs =
        Expr.add
          (Expr.mul (Expr.num a) (Expr.derivative ~wrt:"x" e1))
          (Expr.derivative ~wrt:"x" e2)
      in
      let at v e = Expr.eval_real (function "x" -> v | _ -> raise Not_found) e in
      Float.abs (at 1.3 lhs -. at 1.3 rhs) < 1e-9 *. (1.0 +. Float.abs (at 1.3 rhs)))

let suite =
  [
    case "constant folding" test_constant_folding;
    case "equal: NaN constants equal themselves" test_equal_nan;
    case "evaluation" test_eval;
    case "derivatives vs finite differences" test_derivatives;
    case "substitution" test_subst;
    case "free symbols" test_symbols;
    case "printing" test_printing;
    prop_eval_add_homomorphic;
    prop_derivative_linear;
  ]
