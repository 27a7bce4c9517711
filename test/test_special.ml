open Numeric
open Helpers

let test_coth_basics () =
  (* coth(x) = cosh x / sinh x; coth(1) ~ 1.3130352854993312 *)
  check_cx ~tol:1e-12 "coth(1)" (Cx.of_float 1.3130352854993312)
    (Special.coth Cx.one);
  (* odd function *)
  let z = Cx.make 0.7 0.4 in
  check_cx ~tol:1e-12 "coth odd" (Cx.neg (Special.coth z)) (Special.coth (Cx.neg z));
  (* large-argument limits *)
  check_cx "coth(+400)" Cx.one (Special.coth (Cx.of_float 400.0));
  check_cx "coth(-400)" (Cx.neg Cx.one) (Special.coth (Cx.of_float (-400.0)))

let test_coth_identity () =
  (* coth^2 - csch^2 = 1 *)
  let z = Cx.make 0.9 (-0.3) in
  let c = Special.coth z and k = Special.csch2 z in
  check_cx ~tol:1e-10 "coth^2 - csch^2 = 1" Cx.one (Cx.sub (Cx.mul c c) k)

let test_sinc () =
  check_close "sinc 0" 1.0 (Special.sinc 0.0);
  check_close "sinc pi" 0.0 (Special.sinc Float.pi) ~tol:1e-12;
  check_close "sinc 1" (sin 1.0) (Special.sinc 1.0)

(* the core invariant: closed-form lattice sums match brute force *)
let check_sum k z omega0 =
  let closed = Special.harmonic_sum ~k ~omega0 z in
  let brute = Special.harmonic_sum_truncated ~k ~omega0 ~terms:20000 z in
  (* k=1 truncation converges slowly (~1/M); loosen accordingly *)
  let tol = match k with 1 -> 2e-4 | 2 -> 1e-5 | _ -> 1e-7 in
  check_cx ~tol
    (Printf.sprintf "S_%d at %s" k (Cx.to_string z))
    closed brute

let test_s1 () =
  List.iter
    (fun z -> check_sum 1 z 2.0)
    [ Cx.of_float 0.3; Cx.make 0.5 0.4; Cx.make (-0.7) 0.2 ]

let test_s2 () =
  List.iter
    (fun z -> check_sum 2 z 3.0)
    [ Cx.of_float 0.3; Cx.make 0.5 0.4; Cx.make 1.5 (-0.8) ]

let test_s3_s4_s5 () =
  List.iter
    (fun k -> check_sum k (Cx.make 0.4 0.7) 1.0)
    [ 3; 4; 5 ]

let test_s2_known_value () =
  (* sum over all m of 1/(z + j m)^2 with a = 2*pi gives
     S_2(z, 2*pi) = (1/4) csch^2(z/2) at omega0 = 2 pi *)
  let z = Cx.of_float 1.0 in
  let expected =
    Cx.scale 0.25 (Special.csch2 (Cx.of_float 0.5))
  in
  check_cx ~tol:1e-10 "S2 closed value" expected
    (Special.harmonic_sum ~k:2 ~omega0:(2.0 *. Float.pi) z)

let test_periodicity () =
  (* S_k(z + j omega0) = S_k(z): the lattice sum is periodic *)
  let omega0 = 2.5 in
  let z = Cx.make 0.3 0.4 in
  let shifted = Cx.add z (Cx.jomega omega0) in
  List.iter
    (fun k ->
      check_cx ~tol:1e-9
        (Printf.sprintf "S_%d periodic" k)
        (Special.harmonic_sum ~k ~omega0 z)
        (Special.harmonic_sum ~k ~omega0 shifted))
    [ 1; 2; 3 ]

let test_invalid_k () =
  Alcotest.check_raises "k = 0 rejected"
    (Invalid_argument "Special.harmonic_sum: k must be >= 1") (fun () ->
      ignore (Special.harmonic_sum ~k:0 ~omega0:1.0 Cx.one))

let prop_s2_matches_truncation =
  qcheck ~count:30 "S2 closed form vs truncation"
    (QCheck2.Gen.pair
       (QCheck2.Gen.float_range 0.1 2.0)
       (QCheck2.Gen.float_range (-1.0) 1.0)) (fun (re, im) ->
      let z = Cx.make re im in
      let omega0 = 2.0 in
      let closed = Special.harmonic_sum ~k:2 ~omega0 z in
      let brute = Special.harmonic_sum_truncated ~k:2 ~omega0 ~terms:5000 z in
      Cx.approx ~tol:1e-3 closed brute)

let prop_derivative_recursion =
  qcheck ~count:30 "S_{k+1} = -(1/k) dS_k/dz (finite difference)"
    (QCheck2.Gen.pair
       (QCheck2.Gen.float_range 0.3 1.5)
       (QCheck2.Gen.float_range (-0.8) 0.8)) (fun (re, im) ->
      let z = Cx.make re im in
      let omega0 = 2.0 in
      let h = 1e-5 in
      let k = 2 in
      let d =
        Cx.scale (0.5 /. h)
          (Cx.sub
             (Special.harmonic_sum ~k ~omega0 (Cx.add z (Cx.of_float h)))
             (Special.harmonic_sum ~k ~omega0 (Cx.sub z (Cx.of_float h))))
      in
      let expected = Cx.scale (-1.0 /. float_of_int k) d in
      Cx.approx ~tol:1e-4 expected (Special.harmonic_sum ~k:(k + 1) ~omega0 z))

(* the prepared sum is the term-by-term fold of harmonic_sum, bit for
   bit, also where consecutive terms share a pole (and so a coth) *)
let test_lattice_sum_bit_identical () =
  let term pole order residue = { Partial_fraction.pole; order; residue } in
  let p0 = Cx.zero and p1 = Cx.make (-0.3) 0.8 in
  let terms =
    [ term p0 2 (Cx.make 1.5 0.0); term p0 1 (Cx.make (-0.4) 0.1);
      term p1 1 (Cx.make 0.2 (-0.7)); term p1 3 (Cx.make 0.05 0.02);
      term p0 1 (Cx.make 0.3 0.3) ]
  in
  let omega0 = 2.0 *. Float.pi *. 1.3 in
  let lam = Special.lattice_sum ~omega0 terms in
  let bits x = Int64.bits_of_float x in
  List.iter
    (fun s ->
      let fold =
        List.fold_left
          (fun acc { Partial_fraction.pole; order; residue } ->
            Cx.add acc
              (Cx.mul residue
                 (Special.harmonic_sum ~k:order ~omega0 (Cx.sub s pole))))
          Cx.zero terms
      in
      let got = lam s in
      check_true
        (Printf.sprintf "lattice_sum at %s" (Cx.to_string s))
        (Int64.equal (bits (Cx.re fold)) (bits (Cx.re got))
        && Int64.equal (bits (Cx.im fold)) (bits (Cx.im got))))
    [ Cx.make 0.01 0.2; Cx.jomega 3.7; Cx.make (-0.5) 11.0 ];
  Alcotest.check_raises "order 0"
    (Invalid_argument "Special.lattice_sum: order must be >= 1") (fun () ->
      let (_ : Cx.t -> Cx.t) = Special.lattice_sum ~omega0 [ term p0 0 Cx.one ] in
      ())

(* the unboxed evaluator against the boxed reference over many points:
   both sides of the |Re w| > 350 clamp (w = π(s − pole)/ω₀), runs of
   bit-equal poles that reuse one coth, orders up to 5, and points
   whose Q polynomial sees -0 entries *)
let test_lattice_sum_unboxed_vs_boxed () =
  let term pole order residue = { Partial_fraction.pole; order; residue } in
  let omega0 = 2.0 *. Float.pi in
  let p0 = Cx.zero and p1 = Cx.make (-0.3) 0.8 and p2 = Cx.make 0.0 (-0.0) in
  let terms =
    [ term p0 1 (Cx.make 1.5 0.0); term p0 2 (Cx.make (-0.4) 0.1);
      term p0 5 (Cx.make 0.01 0.0); term p1 1 (Cx.make 0.2 (-0.7));
      term p1 4 (Cx.make 0.05 0.02); term p2 3 (Cx.make (-0.0) 1.0);
      term p1 2 (Cx.make 0.3 0.3) ]
  in
  let lam = Special.lattice_sum ~omega0 terms in
  let fold s =
    List.fold_left
      (fun acc { Partial_fraction.pole; order; residue } ->
        Cx.add acc
          (Cx.mul residue (Special.harmonic_sum ~k:order ~omega0 (Cx.sub s pole))))
      Cx.zero terms
  in
  let bits x = Int64.bits_of_float x in
  let rng = Random.State.make [| 17 |] in
  let random_point () =
    (* Re(w) = Re(s)/2 here: ±(0 .. 1000) crosses the clamp at 350 *)
    let re = Random.State.float rng 2000.0 -. 1000.0 in
    Cx.make re (Random.State.float rng 40.0 -. 20.0)
  in
  let fixed =
    [ Cx.make 699.9 0.3; Cx.make 700.1 0.3; Cx.make (-700.1) (-2.0);
      Cx.make (-699.9) 5.0; Cx.make 700.0 0.3; Cx.make (-700.0) 1.1;
      Cx.make 0.0 0.0; Cx.make (-0.0) 0.5;
      Cx.make 1e-9 1e-9; Cx.jomega 3.0 ]
  in
  List.iter
    (fun s ->
      let want = fold s and got = lam s in
      check_true
        (Printf.sprintf "unboxed = boxed at %h%+hi" (Cx.re s) (Cx.im s))
        (Int64.equal (bits (Cx.re want)) (bits (Cx.re got))
        && Int64.equal (bits (Cx.im want)) (bits (Cx.im got))))
    (fixed @ List.init 400 (fun _ -> random_point ()));
  (* real poles and residues at real points: λ is real and the sign of
     its zero imaginary part is all that is left to compare, down to
     the -0 → +0 of poly_eval_c's Cx.of_float *)
  let real_terms =
    [ term (Cx.of_float (-0.4)) 1 (Cx.of_float 1.5);
      term (Cx.of_float (-0.4)) 2 (Cx.of_float (-0.3));
      term Cx.zero 3 (Cx.of_float 0.7); term (Cx.of_float 2.5) 2 (Cx.of_float (-1.1)) ]
  in
  let lam = Special.lattice_sum ~omega0 real_terms in
  let fold s =
    List.fold_left
      (fun acc { Partial_fraction.pole; order; residue } ->
        Cx.add acc
          (Cx.mul residue (Special.harmonic_sum ~k:order ~omega0 (Cx.sub s pole))))
      Cx.zero real_terms
  in
  List.iter
    (fun re ->
      let s = Cx.of_float re in
      let want = fold s and got = lam s in
      check_true
        (Printf.sprintf "real terms: unboxed = boxed at %h" re)
        (Int64.equal (bits (Cx.re want)) (bits (Cx.re got))
        && Int64.equal (bits (Cx.im want)) (bits (Cx.im got))))
    [ -3.7; -1.2; -0.1; 0.3; 0.9; 4.4; 700.0; -700.0 ]

(* fold_classes: a time-invariant loop's expansion comes back term for
   term; terms whose poles differ by multiples of jω₀ fold into their
   class, and the folded sum equals the unfolded one *)
let fold_omega0 = 2.0 *. Float.pi *. 1e6

let ti_expansion () =
  let p = pll_of spec_default in
  (Partial_fraction.expand
     (Lti.Tf.to_rat (Pll_lib.Pll.open_loop_tf p))).Partial_fraction.terms

let test_fold_classes_ti_unchanged () =
  let terms = ti_expansion () in
  let folded = Special.fold_classes ~omega0:fold_omega0 terms in
  check_int "same length" (List.length terms) (List.length folded);
  let bits x = Int64.bits_of_float x in
  let same a b =
    Int64.equal (bits (Cx.re a)) (bits (Cx.re b))
    && Int64.equal (bits (Cx.im a)) (bits (Cx.im b))
  in
  List.iter2
    (fun (a : Partial_fraction.term) (b : Partial_fraction.term) ->
      check_true "same pole" (same a.pole b.pole);
      check_int "same order" a.order b.order;
      check_true "same residue" (same a.residue b.residue))
    terms folded

let shifted_terms () =
  let term pole order residue = { Partial_fraction.pole; order; residue } in
  let jw k = Cx.jomega (float_of_int k *. fold_omega0) in
  let p1 = Cx.make (-0.31 *. fold_omega0) 0.0 in
  [
    term Cx.zero 2 (Cx.make 1.5e12 0.0);
    term Cx.zero 1 (Cx.make (-0.4e6) 0.1e6);
    term p1 1 (Cx.make 0.2e6 (-0.7e6));
    term (jw 3) 1 (Cx.make 0.3e6 0.3e6);
    term (Cx.add p1 (jw (-2))) 1 (Cx.make (-0.1e6) 0.05e6);
    term (jw (-1)) 2 (Cx.make 0.2e12 (-0.1e12));
    term (Cx.add p1 (jw 1)) 2 (Cx.make 0.5e12 0.0);
  ]

let test_fold_classes_shifted_pole () =
  let folded = Special.fold_classes ~omega0:fold_omega0 (shifted_terms ()) in
  (* classes {0: orders 2, 1} and {p1: orders 1, 2} *)
  check_int "four terms" 4 (List.length folded);
  let poles = List.map (fun (t : Partial_fraction.term) -> t.pole) folded in
  let orders = List.map (fun (t : Partial_fraction.term) -> t.order) folded in
  check_true "orders" (orders = [ 2; 1; 1; 2 ]);
  (match poles with
  | [ a; b; c; d ] ->
      check_true "3jω₀ shift joins the class at 0" (Cx.is_zero a && Cx.is_zero b);
      check_true "p1 class keeps its first pole"
        (Float.equal (Cx.re c) (-0.31 *. fold_omega0)
        && Float.equal (Cx.im c) 0.0 && c = d)
  | _ -> Alcotest.fail "four poles");
  let residue_at i = (List.nth folded i).Partial_fraction.residue in
  check_cx ~tol:1e-15 "order-1 residues summed at 0"
    (Cx.make (-0.1e6) 0.4e6) (residue_at 1)

let test_fold_classes_same_sum () =
  let terms = shifted_terms () @ ti_expansion () in
  let direct = Special.lattice_sum ~omega0:fold_omega0 terms in
  let folded =
    Special.lattice_sum ~omega0:fold_omega0
      (Special.fold_classes ~omega0:fold_omega0 terms)
  in
  List.iter
    (fun frac ->
      let s = Cx.make (0.013 *. fold_omega0) (frac *. fold_omega0) in
      let a = direct s and b = folded s in
      check_true
        (Printf.sprintf "folded = unfolded at %g·ω₀ (%s vs %s)" frac
           (Cx.to_string a) (Cx.to_string b))
        (Cx.abs (Cx.sub a b) <= 1e-13 *. Cx.abs a))
    [ 0.02; 0.11; 0.37; 0.49; 1.7 ]

let suite =
  [
    case "coth basics" test_coth_basics;
    case "coth/csch identity" test_coth_identity;
    case "sinc" test_sinc;
    case "S1 vs truncation" test_s1;
    case "S2 vs truncation" test_s2;
    case "S3..S5 vs truncation" test_s3_s4_s5;
    case "S2 closed value" test_s2_known_value;
    case "lattice periodicity" test_periodicity;
    case "invalid order" test_invalid_k;
    case "lattice_sum = fold of harmonic_sum, bit for bit"
      test_lattice_sum_bit_identical;
    case "fold_classes leaves a ti expansion unchanged"
      test_fold_classes_ti_unchanged;
    case "fold_classes: a pole shifted by 3jω₀ joins its class"
      test_fold_classes_shifted_pole;
    case "fold_classes: folded lattice_sum = unfolded (1e-13)"
      test_fold_classes_same_sum;
    prop_s2_matches_truncation;
    prop_derivative_recursion;
    case "unboxed lattice_sum = boxed fold: clamp, same pole, 400 points"
      test_lattice_sum_unboxed_vs_boxed;
  ]
