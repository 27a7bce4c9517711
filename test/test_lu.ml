open Numeric
open Helpers

let test_solve_known () =
  (* [[2, 1], [1, 3]] x = [5, 10] -> x = [1, 3] *)
  let a = Cmat.of_rows
      [| [| Cx.of_float 2.0; Cx.of_float 1.0 |];
         [| Cx.of_float 1.0; Cx.of_float 3.0 |] |]
  in
  let x = Lu.solve_system a (Cvec.of_real_array [| 5.0; 10.0 |]) in
  check_cx "x0" Cx.one (Cvec.get x 0);
  check_cx "x1" (Cx.of_float 3.0) (Cvec.get x 1)

let test_complex_solve () =
  (* (1+j) x = 2 -> x = 1 - j *)
  let a = Cmat.of_rows [| [| Cx.make 1.0 1.0 |] |] in
  let x = Lu.solve_system a (Cvec.of_array [| Cx.of_float 2.0 |]) in
  check_cx "complex 1x1" (Cx.make 1.0 (-1.0)) (Cvec.get x 0)

let test_pivoting () =
  (* leading zero pivot forces a row swap *)
  let a = Cmat.of_rows
      [| [| Cx.zero; Cx.one |]; [| Cx.one; Cx.zero |] |]
  in
  let x = Lu.solve_system a (Cvec.of_real_array [| 3.0; 7.0 |]) in
  check_cx "swap x0" (Cx.of_float 7.0) (Cvec.get x 0);
  check_cx "swap x1" (Cx.of_float 3.0) (Cvec.get x 1)

let test_inverse () =
  let a = Cmat.of_rows
      [| [| Cx.of_float 4.0; Cx.of_float 7.0 |];
         [| Cx.of_float 2.0; Cx.of_float 6.0 |] |]
  in
  let inv = Lu.inverse a in
  check_true "A * A^-1 = I" (Cmat.equal ~tol:1e-10 (Cmat.identity 2) (Cmat.mul a inv));
  check_true "A^-1 * A = I" (Cmat.equal ~tol:1e-10 (Cmat.identity 2) (Cmat.mul inv a))

let test_det () =
  let a = Cmat.of_rows
      [| [| Cx.of_float 4.0; Cx.of_float 7.0 |];
         [| Cx.of_float 2.0; Cx.of_float 6.0 |] |]
  in
  check_cx "det 2x2" (Cx.of_float 10.0) (Lu.det a);
  check_cx "det identity" Cx.one (Lu.det (Cmat.identity 5));
  (* determinant changes sign when rows are swapped *)
  let swapped = Cmat.of_rows
      [| [| Cx.of_float 2.0; Cx.of_float 6.0 |];
         [| Cx.of_float 4.0; Cx.of_float 7.0 |] |]
  in
  check_cx "det sign under swap" (Cx.of_float (-10.0)) (Lu.det swapped);
  check_cx "det singular" Cx.zero
    (Lu.det (Cmat.of_rows [| [| Cx.one; Cx.one |]; [| Cx.one; Cx.one |] |]))

let test_singular_raises () =
  let a = Cmat.of_rows [| [| Cx.one; Cx.one |]; [| Cx.one; Cx.one |] |] in
  Alcotest.check_raises "singular" Lu.Singular (fun () ->
      ignore (Lu.decompose a))

let test_solve_mat () =
  let a = Cmat.of_rows
      [| [| Cx.of_float 2.0; Cx.zero |]; [| Cx.zero; Cx.of_float 4.0 |] |]
  in
  let x = Lu.solve_mat (Lu.decompose a) (Cmat.identity 2) in
  check_cx "diag inverse" (Cx.of_float 0.5) (Cmat.get x 0 0);
  check_cx "diag inverse 2" (Cx.of_float 0.25) (Cmat.get x 1 1)

let prop_solve_residual =
  qcheck ~count:60 "random diagonally-dominant solve has tiny residual"
    (QCheck2.Gen.array_size (QCheck2.Gen.return 12) gen_cx) (fun zs ->
      let n = 3 in
      let a =
        Cmat.init n n (fun i k ->
            let z = zs.((n * i) + k) in
            if i = k then Cx.add z (Cx.of_float 30.0) else z)
      in
      let b = Cvec.of_array (Array.sub zs 9 3) in
      let x = Lu.solve_system a b in
      let r = Cvec.sub (Cmat.mv a x) b in
      Cvec.norm_inf r <= 1e-9 *. (1.0 +. Cvec.norm_inf b))

let prop_det_product =
  qcheck ~count:40 "det multiplicative"
    (QCheck2.Gen.array_size (QCheck2.Gen.return 8) gen_cx) (fun zs ->
      let pick off = Cmat.init 2 2 (fun i k -> zs.((2 * i) + k + off)) in
      let a = pick 0 and b = pick 4 in
      Cx.approx ~tol:1e-7 (Lu.det (Cmat.mul a b)) (Cx.mul (Lu.det a) (Lu.det b)))

(* ------------------------------------------------------------------ *)
(* banded Cmatf LU = dense Cmatf LU, bit for bit                       *)

let bits x = Int64.bits_of_float x

let same_bits what a b =
  let are, aim = Cmatf.raw a and bre, bim = Cmatf.raw b in
  Array.iteri
    (fun p x ->
      if bits x <> bits bre.(p) || bits aim.(p) <> bits bim.(p) then
        Alcotest.failf "%s: entry %d differs (%h%+hi vs %h%+hi)" what p x aim.(p)
          bre.(p) bim.(p))
    are

(* random n×n matrix with lower/upper bandwidth kl/ku; [weak_diag]
   shrinks the diagonal so partial pivoting must swap rows *)
let random_banded g ~n ~kl ~ku ~weak_diag =
  let a = Cmatf.create n n in
  for i = 0 to n - 1 do
    for j = Stdlib.max 0 (i - kl) to Stdlib.min (n - 1) (i + ku) do
      let scale = if i = j && weak_diag then 1e-3 else 1.0 in
      Cmatf.set a i j
        (Cx.make (scale *. Prng.gaussian g) (scale *. Prng.gaussian g))
    done
  done;
  a

let random_rhs g n p =
  let b = Cmatf.create n p in
  for i = 0 to n - 1 do
    for c = 0 to p - 1 do
      Cmatf.set b i c (Cx.make (Prng.gaussian g) (Prng.gaussian g))
    done
  done;
  b

(* factor [a] with a dense and a banded workspace; the factors are
   returned with their workspaces (or the exception either raised) *)
let factor_both a ~kl ~ku =
  let n = Cmatf.rows a in
  let run ws =
    let f = Cmatf.copy a in
    match Cmatf.lu_decompose_inplace f ws with
    | () -> Ok (f, ws)
    | exception Lu.Singular -> Error f
  in
  (run (Cmatf.lu_ws n), run (Cmatf.lu_ws ~kl ~ku n))

let test_banded_lu_bit_identical () =
  let g = Prng.create ~seed:0xBA5DL in
  let swapped = ref 0 and trials = ref 0 in
  List.iter
    (fun n ->
      for kl = 0 to 3 do
        for ku = 0 to 3 do
          for trial = 1 to 3 do
            incr trials;
            let what = Printf.sprintf "n %d kl %d ku %d trial %d" n kl ku trial in
            let a = random_banded g ~n ~kl ~ku ~weak_diag:(trial > 1) in
            (* trial 3 declares a band wider than the matrix: clamped *)
            let dkl = if trial = 3 then kl + n else kl in
            match factor_both a ~kl:dkl ~ku with
            | Ok (fd, wd), Ok (fb, wb) ->
                same_bits (what ^ " factors") fd fb;
                let pd = Cmatf.lu_perm wd and pb = Cmatf.lu_perm wb in
                check_true (what ^ " perm") (pd = pb);
                if pd <> Array.init n Fun.id then incr swapped;
                (* solutions, all columns together and one alone *)
                let b = random_rhs g n 3 in
                let xd = Cmatf.copy b and xb = Cmatf.copy b in
                Cmatf.lu_solve_inplace fd wd xd;
                Cmatf.lu_solve_inplace fb wb xb;
                same_bits (what ^ " solution") xd xb;
                let col = Cmatf.create n 1 in
                for i = 0 to n - 1 do
                  Cmatf.set col i 0 (Cmatf.get b i 1)
                done;
                Cmatf.lu_solve_inplace fb wb col;
                for i = 0 to n - 1 do
                  let z = Cmatf.get col i 0 and w = Cmatf.get xd i 1 in
                  if
                    bits (Cx.re z) <> bits (Cx.re w)
                    || bits (Cx.im z) <> bits (Cx.im w)
                  then Alcotest.failf "%s: one-column solve row %d differs" what i
                done;
                (* the Hager estimate over the same factors *)
                let nrm = Cmatf.norm1 a in
                let cd = Cmatf.lu_cond_est_1 fd wd ~norm1_a:nrm
                and cb = Cmatf.lu_cond_est_1 fb wb ~norm1_a:nrm in
                check_true
                  (Printf.sprintf "%s cond %g vs %g" what cd cb)
                  (Float.abs (cd -. cb) <= 1e-12 *. Float.abs cd);
                (* and the checked entry point, band-aware norm included *)
                let checked ws =
                  Cmatf.lu_decompose_checked ~max_cond:infinity ~context:"t"
                    (Cmatf.copy a) ws
                in
                (match (checked (Cmatf.lu_ws n), checked (Cmatf.lu_ws ~kl:dkl ~ku n)) with
                | Ok x, Ok y ->
                    check_true (what ^ " checked estimate")
                      (Float.abs (x -. y) <= 1e-12 *. Float.abs x)
                | Error _, Error _ -> ()
                | _ -> Alcotest.failf "%s: checked verdicts differ" what)
            | Error fd, Error fb -> same_bits (what ^ " singular state") fd fb
            | _ -> Alcotest.failf "%s: only one kernel raised Singular" what
          done
        done
      done)
    [ 1; 2; 3; 17; 41 ];
  check_true
    (Printf.sprintf "row swaps exercised (%d of %d trials)" !swapped !trials)
    (!swapped > !trials / 4)

let test_banded_lu_singular () =
  let g = Prng.create ~seed:0x5151L in
  List.iter
    (fun (n, kl, ku, j) ->
      let a = random_banded g ~n ~kl ~ku ~weak_diag:false in
      (* zero column j inside the band *)
      for i = 0 to n - 1 do
        Cmatf.set a i j Cx.zero
      done;
      match factor_both a ~kl ~ku with
      | Error fd, Error fb ->
          same_bits (Printf.sprintf "n %d column %d singular state" n j) fd fb
      | _ -> Alcotest.failf "n %d kl %d ku %d: zero column %d not singular" n kl ku j)
    [ (1, 0, 0, 0); (3, 1, 1, 2); (17, 2, 1, 0); (17, 1, 3, 9); (41, 3, 2, 40) ]

let test_banded_lu_pivot_injection () =
  let g = Prng.create ~seed:0x1F1FL in
  Fun.protect ~finally:Robust.Inject.disarm (fun () ->
      List.iter
        (fun hit ->
          let a = random_banded g ~n:17 ~kl:2 ~ku:1 ~weak_diag:true in
          let run ws =
            Robust.Inject.configure (Printf.sprintf "lu-pivot:%d" hit);
            let f = Cmatf.copy a in
            let raised =
              match Cmatf.lu_decompose_inplace f ws with
              | () -> false
              | exception Lu.Singular -> true
            in
            (raised, Robust.Inject.hits Robust.Inject.Lu_pivot, f)
          in
          let rd, hd, fd = run (Cmatf.lu_ws 17)
          and rb, hb, fb = run (Cmatf.lu_ws ~kl:2 ~ku:1 17) in
          check_true (Printf.sprintf "lu-pivot:%d raised in both" hit) (rd && rb);
          check_int (Printf.sprintf "lu-pivot:%d same hit" hit) hd hb;
          check_int (Printf.sprintf "lu-pivot:%d fires on hit %d" hit hit) hit hd;
          same_bits (Printf.sprintf "lu-pivot:%d state" hit) fd fb)
        [ 1; 2; 9; 17 ])

(* lu_clear zeroes whatever a factorization left in the matrix — row
   swaps and an interrupted factorization included — so the cleared
   matrix is fill_zero's, bit for bit (+0.0 everywhere) *)
let test_lu_clear_is_fill_zero () =
  let g = Prng.create ~seed:0xC1EAL in
  let all_pos_zero what m =
    let n = Cmatf.rows m in
    for i = 0 to n - 1 do
      for k = 0 to n - 1 do
        let z = Cmatf.get m i k in
        if bits (Cx.re z) <> bits 0.0 || bits (Cx.im z) <> bits 0.0 then
          Alcotest.failf "%s: entry (%d,%d) = %s left behind" what i k (Cx.to_string z)
      done
    done
  in
  Fun.protect ~finally:Robust.Inject.disarm (fun () ->
      List.iter
        (fun (n, kl, ku, hit) ->
          let what = Printf.sprintf "n %d kl %d ku %d lu-pivot:%d" n kl ku hit in
          let ws = Cmatf.lu_ws ~kl ~ku n in
          let a = Cmatf.create n n in
          let swapped = ref false in
          for trial = 1 to 4 do
            (* the same storage through several factorizations *)
            let fresh = random_banded g ~n ~kl ~ku ~weak_diag:true in
            Cmatf.blit ~src:fresh ~dst:a;
            if hit > 0 && trial = 4 then
              Robust.Inject.configure (Printf.sprintf "lu-pivot:%d" hit);
            (match Cmatf.lu_decompose_inplace a ws with
            | () -> ()
            | exception Lu.Singular -> ());
            Robust.Inject.disarm ();
            if Cmatf.lu_perm ws <> Array.init n Fun.id then swapped := true;
            Cmatf.lu_clear a ws;
            all_pos_zero (Printf.sprintf "%s trial %d" what trial) a
          done;
          check_true (what ^ ": row swaps exercised") !swapped)
        [ (17, 2, 1, 0); (41, 3, 3, 0); (41, 1, 2, 9); (12, 11, 11, 5) ])

let suite =
  [
    case "known 2x2 solve" test_solve_known;
    case "complex solve" test_complex_solve;
    case "pivoting" test_pivoting;
    case "inverse" test_inverse;
    case "determinant" test_det;
    case "singular raises" test_singular_raises;
    case "matrix solve" test_solve_mat;
    prop_solve_residual;
    prop_det_product;
    case "banded Cmatf LU = dense, bit for bit" test_banded_lu_bit_identical;
    case "banded Cmatf LU: zero in-band column is singular"
      test_banded_lu_singular;
    case "banded Cmatf LU: lu-pivot fires on the dense hit"
      test_banded_lu_pivot_injection;
    case "lu_clear after a factorization = fill_zero, bit for bit"
      test_lu_clear_is_fill_zero;
  ]
