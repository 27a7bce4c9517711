open Numeric
open Helpers

let v123 = Cvec.of_real_array [| 1.0; 2.0; 3.0 |]

let test_construction () =
  check_int "dim" 3 (Cvec.dim v123);
  check_cx "get" (Cx.of_float 2.0) (Cvec.get v123 1);
  check_cx "ones" Cx.one (Cvec.get (Cvec.ones 4) 3);
  let v = Cvec.init 3 (fun i -> Cx.of_float (float_of_int (i * i))) in
  check_cx "init" (Cx.of_float 4.0) (Cvec.get v 2)

let test_mutation_isolated () =
  let a = [| Cx.one; Cx.one |] in
  let v = Cvec.of_array a in
  a.(0) <- Cx.zero;
  check_cx "of_array copies" Cx.one (Cvec.get v 0)

let test_algebra () =
  let w = Cvec.of_real_array [| 10.0; 20.0; 30.0 |] in
  check_cx "add" (Cx.of_float 22.0) (Cvec.get (Cvec.add v123 w) 1);
  check_cx "sub" (Cx.of_float 18.0) (Cvec.get (Cvec.sub w v123) 1);
  check_cx "scale" (Cx.of_float 6.0) (Cvec.get (Cvec.scale (Cx.of_float 2.0) v123) 2)

let test_products () =
  check_cx "dot" (Cx.of_float 140.0)
    (Cvec.dot v123 (Cvec.of_real_array [| 10.0; 20.0; 30.0 |]));
  (* bilinear: no conjugation of complex entries *)
  let u = Cvec.of_array [| Cx.j |] and w = Cvec.of_array [| Cx.j |] in
  check_cx "dot (bilinear) j*j" (Cx.neg Cx.one) (Cvec.dot u w);
  check_cx "sum" (Cx.of_float 6.0) (Cvec.sum v123);
  check_close "norm2" (sqrt 14.0) (Cvec.norm2 v123);
  check_close "norm_inf" 3.0 (Cvec.norm_inf v123)

let test_dim_mismatch () =
  Alcotest.check_raises "add mismatch"
    (Invalid_argument "Cvec.lift2: dimension mismatch") (fun () ->
      ignore (Cvec.add v123 (Cvec.ones 2)))

let prop_dot_linear =
  qcheck "dot linear in first argument"
    (QCheck2.Gen.triple gen_cx gen_cx gen_cx) (fun (a, b, c) ->
      let u = Cvec.of_array [| a; b |] in
      let v = Cvec.of_array [| c; Cx.one |] in
      let w = Cvec.of_array [| Cx.j; c |] in
      Cx.approx ~tol:1e-8
        (Cvec.dot (Cvec.add u w) v)
        (Cx.add (Cvec.dot u v) (Cvec.dot w v)))

let prop_norm_triangle =
  qcheck "triangle inequality" (QCheck2.Gen.pair gen_cx gen_cx) (fun (a, b) ->
      let u = Cvec.of_array [| a; b |] and w = Cvec.of_array [| b; a |] in
      Cvec.norm2 (Cvec.add u w) <= Cvec.norm2 u +. Cvec.norm2 w +. 1e-9)

let prop_sum_is_dot_ones =
  qcheck "sum = dot with ones" (QCheck2.Gen.list_size (QCheck2.Gen.return 5) gen_cx)
    (fun zs ->
      let v = Cvec.of_array (Array.of_list zs) in
      Cx.approx (Cvec.sum v) (Cvec.dot v (Cvec.ones 5)))

let suite =
  [
    case "construction" test_construction;
    case "copies are isolated" test_mutation_isolated;
    case "algebra" test_algebra;
    case "products and norms" test_products;
    case "dimension mismatch" test_dim_mismatch;
    prop_dot_linear;
    prop_norm_triangle;
    prop_sum_is_dot_ones;
  ]
