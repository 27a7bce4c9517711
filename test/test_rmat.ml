open Numeric
open Helpers

let test_basics () =
  let m = Rmat.init 2 3 (fun i k -> float_of_int ((10 * i) + k)) in
  check_int "rows" 2 (Rmat.rows m);
  check_close "get" 12.0 (Rmat.get m 1 2)

let test_mul_mv () =
  let a = Rmat.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Rmat.of_rows [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let c = Rmat.mul a b in
  check_close "mul" 19.0 (Rmat.get c 0 0);
  check_close "mul 11" 50.0 (Rmat.get c 1 1);
  let v = Rmat.mv a [| 1.0; 10.0 |] in
  check_close "mv" 21.0 v.(0);
  check_close "mv 1" 43.0 v.(1)

let test_solve_inverse () =
  let a = Rmat.of_rows [| [| 4.0; 7.0 |]; [| 2.0; 6.0 |] |] in
  let x = Rmat.solve a [| 18.0; 14.0 |] in
  (* solution of 4x+7y=18, 2x+6y=14: x=1, y=2 *)
  check_close ~tol:1e-10 "solve x" 1.0 x.(0);
  check_close ~tol:1e-10 "solve y" 2.0 x.(1);
  let inv = Rmat.inverse a in
  check_true "inverse" (Rmat.equal ~tol:1e-10 (Rmat.identity 2) (Rmat.mul a inv))

let test_expm_diagonal () =
  let a = Rmat.of_rows [| [| 1.0; 0.0 |]; [| 0.0; -2.0 |] |] in
  let e = Rmat.expm a in
  check_close ~tol:1e-12 "e^1" (exp 1.0) (Rmat.get e 0 0);
  check_close ~tol:1e-12 "e^-2" (exp (-2.0)) (Rmat.get e 1 1);
  check_close ~tol:1e-12 "off-diagonal" 0.0 (Rmat.get e 0 1)

let test_expm_nilpotent () =
  (* exp([[0,1],[0,0]]) = [[1,1],[0,1]] exactly *)
  let a = Rmat.of_rows [| [| 0.0; 1.0 |]; [| 0.0; 0.0 |] |] in
  let e = Rmat.expm a in
  check_close ~tol:1e-14 "upper" 1.0 (Rmat.get e 0 1);
  check_close ~tol:1e-14 "diag" 1.0 (Rmat.get e 0 0)

let test_expm_rotation () =
  (* exp(theta J) = rotation by theta *)
  let theta = 0.7 in
  let a = Rmat.of_rows [| [| 0.0; -.theta |]; [| theta; 0.0 |] |] in
  let e = Rmat.expm a in
  check_close ~tol:1e-12 "cos" (cos theta) (Rmat.get e 0 0);
  check_close ~tol:1e-12 "-sin" (-.sin theta) (Rmat.get e 0 1)

let test_expm_large_norm () =
  (* scaling-and-squaring path: big matrix norm *)
  let a = Rmat.of_rows [| [| -30.0; 0.0 |]; [| 0.0; -40.0 |] |] in
  let e = Rmat.expm a in
  check_close ~tol:1e-10 "e^-30" (exp (-30.0)) (Rmat.get e 0 0);
  check_close ~tol:1e-10 "e^-40" (exp (-40.0)) (Rmat.get e 1 1)

let test_expm_additivity () =
  (* e^{A(s+t)} = e^{As} e^{At} for commuting (same A) exponents *)
  let a = Rmat.of_rows [| [| 0.3; 1.0 |]; [| -0.5; -0.2 |] |] in
  let e1 = Rmat.expm a in
  let e_half = Rmat.expm (Rmat.scale 0.5 a) in
  check_true "semigroup" (Rmat.equal ~tol:1e-11 e1 (Rmat.mul e_half e_half))

let test_char_poly () =
  (* [[2,1],[1,2]]: char poly s^2 - 4s + 3, eigenvalues 1 and 3 *)
  let a = Rmat.of_rows [| [| 2.0; 1.0 |]; [| 1.0; 2.0 |] |] in
  let p = Rmat.char_poly a in
  check_cx ~tol:1e-12 "c0" (Cx.of_float 3.0) (Poly.coeff p 0);
  check_cx ~tol:1e-12 "c1" (Cx.of_float (-4.0)) (Poly.coeff p 1);
  check_cx ~tol:1e-12 "c2" Cx.one (Poly.coeff p 2);
  let eigs =
    List.sort (fun x y -> compare (Cx.re x) (Cx.re y)) (Rmat.eigenvalues a)
  in
  (match eigs with
  | [ e1; e2 ] ->
      check_cx ~tol:1e-9 "eig 1" Cx.one e1;
      check_cx ~tol:1e-9 "eig 3" (Cx.of_float 3.0) e2
  | _ -> Alcotest.fail "expected two eigenvalues")

let test_eigenvalues_complex () =
  (* rotation generator: eigenvalues +- j theta *)
  let a = Rmat.of_rows [| [| 0.0; -2.0 |]; [| 2.0; 0.0 |] |] in
  let eigs = Rmat.eigenvalues a in
  check_true "pure imaginary pair"
    (List.for_all (fun e -> Float.abs (Cx.re e) < 1e-9 && Float.abs (Float.abs (Cx.im e) -. 2.0) < 1e-9) eigs)

let prop_char_poly_cayley_hamilton =
  qcheck ~count:30 "trace = -c_{n-1}, det relation"
    (QCheck2.Gen.array_size (QCheck2.Gen.return 9) small_float) (fun xs ->
      let a = Rmat.init 3 3 (fun i k -> xs.((3 * i) + k)) in
      let p = Rmat.char_poly a in
      let trace = Rmat.get a 0 0 +. Rmat.get a 1 1 +. Rmat.get a 2 2 in
      (* char poly of 3x3: s^3 - tr s^2 + ... ; and c0 = -det *)
      Float.abs (Cx.re (Poly.coeff p 2) +. trace) < 1e-7 *. (1.0 +. Float.abs trace))

let suite =
  [
    case "basics" test_basics;
    case "multiplication" test_mul_mv;
    case "solve and inverse" test_solve_inverse;
    case "expm diagonal" test_expm_diagonal;
    case "expm nilpotent" test_expm_nilpotent;
    case "expm rotation" test_expm_rotation;
    case "expm scaling path" test_expm_large_norm;
    case "expm semigroup" test_expm_additivity;
    case "characteristic polynomial" test_char_poly;
    case "complex eigenvalues" test_eigenvalues_complex;
    prop_char_poly_cayley_hamilton;
  ]
