(* The per-point HTM queries (memo-held plans over Smat shapes) against
   the dense reference oracle (Htm.to_matrix_dense):

   - a deterministic randomized generator over every Htm constructor
     (lti, periodic_gain, sampler, identity, zero, scale, series,
     parallel, sub, feedback, custom) asserts entrywise agreement to
     1e-12 at random complex frequencies, and that Htm.to_matrix is
     bit-identical to a plan that evaluated a different point first (no
     stale plan storage);
   - the composition rules must stay low in the structure lattice
     (LTI chains diagonal, periodic gains banded, the sampled closed
     loop rank one all the way through feedback);
   - golden regression rows pin the closed-loop rank-one kernel at
     n_harm = 20 against test/golden/fig_metrics.txt, for both the
     analytic Sherman–Morrison form and the planned evaluation of the
     generic feedback HTM;
   - Smat.to_cmat boxes every shape (diagonal, banded, rank one,
     dense) with the bits Smat.get reads, entry by entry. *)

open Numeric
open Helpers
module Htm = Htm_core.Htm
module Plan = Htm_core.Plan
module Smat = Htm_core.Smat

(* ------------------------------------------------------------------ *)
(* deterministic random expression generator                           *)

let rint g n = int_of_float (Prng.float g *. float_of_int n)

let gen_cx_with g scale =
  Cx.make (scale *. Prng.gaussian g) (scale *. Prng.gaussian g)

(* an LTI block bounded on the imaginary axis: (a0 + a1 s)/(s + c) with
   re c >= 0.7, so random feedback loops stay comfortably away from
   exact singularity *)
let gen_lti g =
  let a0 = gen_cx_with g 0.8 and a1 = gen_cx_with g 0.4 in
  let c = Cx.add (Cx.of_float (0.7 +. Float.abs (Prng.gaussian g))) (gen_cx_with g 0.3) in
  let c = Cx.make (Float.abs (Cx.re c) +. 0.7) (Cx.im c) in
  Htm.lti (fun s -> Cx.div (Cx.add a0 (Cx.mul a1 s)) (Cx.add s c))

let gen_periodic g =
  let k = rint g 3 in
  let coeffs = Array.init ((2 * k) + 1) (fun _ -> gen_cx_with g 0.5) in
  Htm.periodic_gain coeffs

let gen_custom g =
  let z1 = gen_cx_with g 0.4 and z2 = gen_cx_with g 0.2 in
  Htm.custom (fun c s ->
      let n = Htm.dim c in
      Cmat.init n n (fun i k ->
          let fade = 1.0 /. float_of_int (1 + abs (i - k)) in
          Cx.scale fade (Cx.add z1 (Cx.mul z2 s))))

let rec gen_expr g depth =
  let leaf () =
    match rint g 6 with
    | 0 -> gen_lti g
    | 1 -> gen_periodic g
    | 2 -> Htm.sampler
    | 3 -> Htm.identity
    | 4 -> Htm.zero
    | _ -> gen_custom g
  in
  if depth = 0 then leaf ()
  else
    match rint g 10 with
    | 0 | 1 | 2 -> leaf ()
    | 3 -> Htm.scale (gen_cx_with g 0.7) (gen_expr g (depth - 1))
    | 4 | 5 -> Htm.series (gen_expr g (depth - 1)) (gen_expr g (depth - 1))
    | 6 -> Htm.parallel (gen_expr g (depth - 1)) (gen_expr g (depth - 1))
    | 7 -> Htm.sub (gen_expr g (depth - 1)) (gen_expr g (depth - 1))
    | _ ->
        (* keep the loop gain small so (I + G) stays well conditioned
           and the 1e-12 agreement bound is meaningful *)
        Htm.feedback (Htm.scale (gen_cx_with g 0.15) (gen_expr g (depth - 1)))

let gen_s g = Cx.make (0.5 *. Prng.gaussian g) (2.0 *. Prng.gaussian g)

let test_randomized_equivalence () =
  let g = Prng.create ~seed:0xA11CEL in
  let checked = ref 0 in
  for trial = 1 to 120 do
    let n_harm = 1 + rint g 4 in
    let c = Htm.ctx ~n_harm ~omega0:(Prng.uniform g ~lo:1.0 ~hi:3.0) in
    let t = gen_expr g 3 in
    let s = gen_s g in
    match (Htm.to_matrix_dense c t s, Htm.to_matrix c t s) with
    | exception Lu.Singular -> () (* both paths raise on exact singularity *)
    | dense, structured ->
        incr checked;
        if not (Cmat.equal ~tol:1e-12 dense structured) then
          Alcotest.failf
            "trial %d (n_harm %d): structured and dense evaluations disagree \
             beyond 1e-12"
            trial n_harm;
        (* a plan dirtied by another point first must reproduce
           Htm.to_matrix's bits: nothing of the earlier point survives *)
        let plan = Plan.make c t in
        (try ignore (Plan.eval plan (Cx.add s (Cx.make 0.25 1.5)))
         with Lu.Singular -> ());
        let reused = Plan.to_cmat plan s in
        let n = Htm.dim c in
        check_int "reused plan dim" n (Cmat.rows reused);
        for i = 0 to n - 1 do
          for k = 0 to n - 1 do
            let a = Cmat.get structured i k and b = Cmat.get reused i k in
            if
              not
                (Int64.equal (Int64.bits_of_float (Cx.re a))
                   (Int64.bits_of_float (Cx.re b))
                && Int64.equal (Int64.bits_of_float (Cx.im a))
                     (Int64.bits_of_float (Cx.im b)))
            then
              Alcotest.failf
                "trial %d (%d,%d): Htm.to_matrix %s vs reused plan %s"
                trial i k (Cx.to_string a) (Cx.to_string b)
          done
        done
  done;
  (* the singular guard must not have eaten the test *)
  check_true "almost all trials checked" (!checked >= 110)

let test_fast_paths_match_dense () =
  let g = Prng.create ~seed:0xFA57L in
  for trial = 1 to 40 do
    let n_harm = 1 + rint g 3 in
    let c = Htm.ctx ~n_harm ~omega0:(Prng.uniform g ~lo:1.0 ~hi:3.0) in
    let t = gen_expr g 2 in
    let w = Prng.uniform g ~lo:0.0 ~hi:3.0 in
    match Htm.to_matrix_dense c t (Cx.jomega w) with
    | exception Lu.Singular -> ()
    | dense ->
        let name fmt = Printf.sprintf "trial %d: %s" trial fmt in
        (* element fast path reads one entry without densifying *)
        for n = -n_harm to n_harm do
          check_cx ~tol:1e-12 (name "element")
            (Cmat.get dense (Htm.index_of_harmonic c n) (Htm.index_of_harmonic c 0))
            (Htm.element c t ~n ~m:0 (Cx.jomega w))
        done;
        (* apply_to_tone fast path extracts one structured column *)
        let m = rint g ((2 * n_harm) + 1) - n_harm in
        let col = Htm.apply_to_tone c t ~m w in
        for i = 0 to Htm.dim c - 1 do
          check_cx ~tol:1e-12 (name "apply_to_tone")
            (Cmat.get dense i (Htm.index_of_harmonic c m))
            (Cvec.get col i)
        done
  done

let test_structure_preserved () =
  let ctx = Htm.ctx ~n_harm:6 ~omega0:2.0 in
  let shape t = Plan.root_shape (Plan.make ctx t) in
  (* LTI chains stay diagonal *)
  let lti1 = Htm.lti (fun s -> Cx.inv (Cx.add s Cx.one)) in
  let lti2 = Htm.lti (fun s -> Cx.add s (Cx.of_float 2.0)) in
  check_true "lti is diag" (shape lti1 = `Diag);
  check_true "lti series stays diag" (shape (Htm.series lti1 lti2) = `Diag);
  check_true "lti feedback stays diag" (shape (Htm.feedback lti1) = `Diag);
  (* periodic gains stay banded, with bandwidths adding under series *)
  let pg = Htm.periodic_gain [| Cx.of_float 0.2; Cx.one; Cx.of_float 0.3 |] in
  check_true "periodic gain is band 1" (shape pg = `Band 1);
  check_true "band·band adds bandwidth" (shape (Htm.series pg pg) = `Band 2);
  check_true "diag·band stays band" (shape (Htm.series lti1 pg) = `Band 1);
  (* the sampler is rank one and everything times it stays rank one,
     through the Sherman–Morrison feedback included *)
  check_true "sampler is rank one" (shape Htm.sampler = `Rank1);
  let open_loop = Htm.series (Htm.series lti1 pg) Htm.sampler in
  check_true "chain·sampler stays rank one" (shape open_loop = `Rank1);
  check_true "closed loop stays rank one" (shape (Htm.feedback open_loop) = `Rank1)

(* ------------------------------------------------------------------ *)
(* golden regression: closed-loop rank-one kernel at n_harm = 20       *)

let check_golden tbl key actual =
  match Hashtbl.find_opt tbl key with
  | None -> Alcotest.failf "golden key %s missing from snapshot" key
  | Some expected -> check_close ~tol:1e-9 key expected actual

let test_closed_loop_rank_one_golden () =
  let tbl = Test_golden.load () in
  let p = Pll_lib.Design.synthesize Pll_lib.Design.default_spec in
  let w0 = Pll_lib.Pll.omega0 p in
  let ctx = Htm.ctx ~n_harm:20 ~omega0:w0 in
  let c0 = Htm.index_of_harmonic ctx 0 in
  let cl = Pll_lib.Pll.closed_loop_htm p in
  List.iter
    (fun frac ->
      let s = Cx.jomega (frac *. w0) in
      let key fmt = Printf.sprintf "cl_r1_n20_w%g.%s" frac fmt in
      (* the analytic Sherman–Morrison form ... *)
      let m = Pll_lib.Pll.closed_loop_rank_one ctx p s in
      check_golden tbl (key "h00_re") (Cx.re (Cmat.get m c0 c0));
      check_golden tbl (key "h00_im") (Cx.im (Cmat.get m c0 c0));
      check_golden tbl (key "h10_re") (Cx.re (Cmat.get m (c0 + 1) c0));
      check_golden tbl (key "h10_im") (Cx.im (Cmat.get m (c0 + 1) c0));
      check_golden tbl (key "hm10_re") (Cx.re (Cmat.get m (c0 - 1) c0));
      check_golden tbl (key "hm10_im") (Cx.im (Cmat.get m (c0 - 1) c0));
      check_golden tbl (key "frobenius") (Cmat.norm_frobenius m);
      (* ... and the one-point plan of the generic feedback HTM must
         land on the same snapshot *)
      let ms = Htm.to_matrix ctx cl s in
      check_golden tbl (key "h00_re") (Cx.re (Cmat.get ms c0 c0));
      check_golden tbl (key "h00_im") (Cx.im (Cmat.get ms c0 c0));
      check_golden tbl (key "h10_re") (Cx.re (Cmat.get ms (c0 + 1) c0));
      check_golden tbl (key "h10_im") (Cx.im (Cmat.get ms (c0 + 1) c0));
      check_golden tbl (key "hm10_re") (Cx.re (Cmat.get ms (c0 - 1) c0));
      check_golden tbl (key "hm10_im") (Cx.im (Cmat.get ms (c0 - 1) c0));
      check_golden tbl (key "frobenius") (Cmat.norm_frobenius ms))
    [ 0.07; 0.2; 0.45 ]

(* ------------------------------------------------------------------ *)
(* boxing: Smat.to_cmat = Smat.get, entry by entry                     *)

let bits_equal a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* every shape boxed straight from its storage carries the bits [get]
   reads, the band clamped at the matrix edges and signed zeros
   included *)
let test_to_cmat_matches_get () =
  let g = Prng.create ~seed:0xB0BL in
  let arr len =
    Array.init len (fun i -> if i mod 5 = 3 then -0.0 else Prng.gaussian g)
  in
  List.iter
    (fun n ->
      let kmax = Stdlib.min 2 n in
      let w = (2 * kmax) + 1 in
      let shapes =
        [
          ("diag", Smat.diag_of_arrays ~dre:(arr n) ~dim_:(arr n));
          ("band", Smat.band_of_arrays ~n ~kmax ~bre:(arr (n * w)) ~bim:(arr (n * w)));
          ( "rank1",
            Smat.rank1_of_arrays ~ure:(arr n) ~uim:(arr n) ~vre:(arr n) ~vim:(arr n) );
          ( "dense",
            Smat.of_cmat
              (Cmat.init n n (fun _ _ -> Cx.make (Prng.gaussian g) (Prng.gaussian g))) );
        ]
      in
      List.iter
        (fun (what, t) ->
          let m = Smat.to_cmat t in
          check_int (what ^ " rows") n (Cmat.rows m);
          check_int (what ^ " cols") n (Cmat.cols m);
          for i = 0 to n - 1 do
            for k = 0 to n - 1 do
              let a = Smat.get t i k and b = Cmat.get m i k in
              if not (bits_equal (Cx.re a) (Cx.re b) && bits_equal (Cx.im a) (Cx.im b))
              then
                Alcotest.failf "%s n %d (%d,%d): get %s, to_cmat %s" what n i k
                  (Cx.to_string a) (Cx.to_string b)
            done
          done)
        shapes)
    [ 1; 2; 5; 9 ]

let suite =
  [
    case "randomized structured = dense (1e-12)" test_randomized_equivalence;
    case "element/apply_to_tone fast paths" test_fast_paths_match_dense;
    case "structure lattice preserved" test_structure_preserved;
    case "closed-loop rank-one kernel vs snapshot (n=20)"
      test_closed_loop_rank_one_golden;
    case "Smat.to_cmat = Smat.get bit for bit (four shapes)" test_to_cmat_matches_get;
  ]
