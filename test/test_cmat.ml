open Numeric
open Helpers

let m22 a b c d =
  Cmat.of_rows [| [| Cx.of_float a; Cx.of_float b |]; [| Cx.of_float c; Cx.of_float d |] |]

let test_construction () =
  let m = Cmat.init 2 3 (fun i k -> Cx.of_float (float_of_int ((10 * i) + k))) in
  check_int "rows" 2 (Cmat.rows m);
  check_int "cols" 3 (Cmat.cols m);
  check_cx "init" (Cx.of_float 12.0) (Cmat.get m 1 2);
  check_cx "identity diag" Cx.one (Cmat.get (Cmat.identity 3) 1 1);
  check_cx "identity off" Cx.zero (Cmat.get (Cmat.identity 3) 0 2)

let test_add_scale () =
  let a = m22 1.0 2.0 3.0 4.0 and b = m22 10.0 20.0 30.0 40.0 in
  check_cx "add" (Cx.of_float 22.0) (Cmat.get (Cmat.add a b) 0 1);
  check_cx "sub" (Cx.of_float 27.0) (Cmat.get (Cmat.sub b a) 1 0);
  check_cx "scale" (Cx.of_float 8.0) (Cmat.get (Cmat.scale (Cx.of_float 2.0) a) 1 1)

let test_mul () =
  let a = m22 1.0 2.0 3.0 4.0 and b = m22 5.0 6.0 7.0 8.0 in
  let c = Cmat.mul a b in
  check_cx "mul 00" (Cx.of_float 19.0) (Cmat.get c 0 0);
  check_cx "mul 01" (Cx.of_float 22.0) (Cmat.get c 0 1);
  check_cx "mul 10" (Cx.of_float 43.0) (Cmat.get c 1 0);
  check_cx "mul 11" (Cx.of_float 50.0) (Cmat.get c 1 1);
  check_true "identity neutral" (Cmat.equal a (Cmat.mul a (Cmat.identity 2)));
  check_true "identity neutral left" (Cmat.equal a (Cmat.mul (Cmat.identity 2) a))

let test_mv_vm () =
  let a = m22 1.0 2.0 3.0 4.0 in
  let v = Cvec.of_real_array [| 1.0; 10.0 |] in
  check_cx "mv" (Cx.of_float 21.0) (Cvec.get (Cmat.mv a v) 0);
  check_cx "mv row1" (Cx.of_float 43.0) (Cvec.get (Cmat.mv a v) 1)

let test_outer_rank_one () =
  let u = Cvec.of_real_array [| 1.0; 2.0 |] in
  let v = Cvec.of_real_array [| 3.0; 4.0 |] in
  let o = Cmat.outer u v in
  check_cx "outer 01" (Cx.of_float 4.0) (Cmat.get o 0 1);
  check_cx "outer 10" (Cx.of_float 6.0) (Cmat.get o 1 0);
  (* rank-one: (u v^T) w = u (v . w) *)
  let w = Cvec.of_real_array [| 5.0; 6.0 |] in
  let lhs = Cmat.mv o w in
  let rhs = Cvec.scale (Cvec.dot v w) u in
  check_cx "rank-one action 0" (Cvec.get rhs 0) (Cvec.get lhs 0);
  check_cx "rank-one action 1" (Cvec.get rhs 1) (Cvec.get lhs 1)

let test_transpose () =
  let a = Cmat.init 2 3 (fun i k -> Cx.make (float_of_int i) (float_of_int k)) in
  let t = Cmat.transpose a in
  check_int "transpose rows" 3 (Cmat.rows t);
  check_cx "transpose entry" (Cmat.get a 1 2) (Cmat.get t 2 1)

let test_aggregates () =
  let a = m22 1.0 2.0 3.0 4.0 in
  check_cx "sum_entries" (Cx.of_float 10.0) (Cmat.sum_entries a);
  check_close "frobenius" (sqrt 30.0) (Cmat.norm_frobenius a)

let test_row_col () =
  let a = m22 1.0 2.0 3.0 4.0 in
  check_cx "row" (Cx.of_float 4.0) (Cvec.get (Cmat.row a 1) 1);
  check_cx "col" (Cx.of_float 2.0) (Cvec.get (Cmat.col a 1) 0)

let prop_mul_assoc =
  qcheck ~count:50 "matrix multiplication associative"
    (QCheck2.Gen.array_size (QCheck2.Gen.return 12) gen_cx) (fun zs ->
      let pick off = Cmat.init 2 2 (fun i k -> zs.((2 * i) + k + off)) in
      let a = pick 0 and b = pick 4 and c = pick 8 in
      Cmat.equal ~tol:1e-7 (Cmat.mul (Cmat.mul a b) c) (Cmat.mul a (Cmat.mul b c)))

let prop_sum_entries_bilinear =
  qcheck ~count:50 "sum_entries m = l^T m l"
    (QCheck2.Gen.array_size (QCheck2.Gen.return 9) gen_cx) (fun zs ->
      let m = Cmat.init 3 3 (fun i k -> zs.((3 * i) + k)) in
      let l = Cvec.ones 3 in
      Cx.approx (Cmat.sum_entries m) (Cvec.dot l (Cmat.mv m l)))

let prop_transpose_involution =
  qcheck ~count:50 "transpose involution"
    (QCheck2.Gen.array_size (QCheck2.Gen.return 6) gen_cx) (fun zs ->
      let m = Cmat.init 2 3 (fun i k -> zs.((3 * i) + k)) in
      Cmat.equal m (Cmat.transpose (Cmat.transpose m)))

let suite =
  [
    case "construction" test_construction;
    case "add/scale" test_add_scale;
    case "multiplication" test_mul;
    case "matrix-vector products" test_mv_vm;
    case "outer product rank one" test_outer_rank_one;
    case "transpose" test_transpose;
    case "aggregates" test_aggregates;
    case "row/col extraction" test_row_col;
    prop_mul_assoc;
    prop_sum_entries_bilinear;
    prop_transpose_involution;
  ]
