(* The plan/execute evaluator (Htm_core.Plan) against the dense oracle:

   - a deterministic randomized generator over every Htm constructor
     (lti, lti_rat, periodic_gain, sampler, identity, zero, scale,
     series, parallel, sub, feedback, custom) asserts that a compiled
     plan, streamed over several points, and the one-point plan behind
     Htm.to_matrix both agree entrywise with the dense oracle
     Htm.to_matrix_dense to 1e-12, across every structure class and
     feedback nesting the generator can produce;
   - a custom block that returns a wrongly sized matrix is rejected by
     the plan before anything is written;
   - plan reuse is safe: one plan over two grids back-to-back, and a
     re-run of the first grid, are bit-identical to a fresh plan;
   - planned sweeps are pool-size independent: Sweep.grid_local over
     per-lane plans is bit-identical at 1 and 4 domains;
   - Rat.eval_into and Rat.eval_shifted_into (the allocation-free
     split-rational kernels plans are built on) are bit-identical to
     Rat.eval;
   - the grid-plan-nan injection site degrades poisoned points to the
     dense oracle, counted in Robust.Stats, and refuses under --strict;
   - golden regression rows pin a 64-point planned grid of the default
     closed loop at n_harm = 20 against test/golden/fig_metrics.txt;
   - the exact-λ fast path, the HTM-native metrics, and the HTM-native
     noise folding agree with their closed-form counterparts;
   - column demand: Plan.element and Htm.apply_to_tone are bit-identical
     to the same column of a full evaluation, also on a plan dirtied at
     another point and column (an entry of a loop closed around a banded
     open loop, which the two-sided elimination computes: equal to
     1e-12); loops closed around a mixing PFD (banded LU feedback) match
     the oracle; grid-plan-nan in column mode falls back and is counted;
     a mixing-PFD baseband point allocates at most 100 words at n_harm
     20 and 80;
   - row demand: every entry (Plan.element) and row (Plan.row) of
     diagonal, banded, rank-one (with and without the λ override),
     diagonal-loop and dense roots is bit-identical to a full
     evaluation (a banded loop's entries: to 1e-12), read on a plan
     dirtied at another point and row; the
     noise fold through Plan.row equals the full-evaluation fold bit
     for bit; the exact-λ baseband allocates the same per point at
     n_harm 8 and 80, behind a time-invariant and an ISF VCO;
   - exact λ behind an ISF VCO: the plan's entries equal the closed
     form Pll.htm_element_fn to 1e-12, its metrics do not move between
     n_harm 8 and 80, below n_harm = K the planner keeps the truncated
     plan, and golden rows pin H₀₀ and the metrics at n_harm 20;
   - the dense fallback of an exact-λ plan is the oracle of the same
     loop (G over 1 + λ): under grid-plan-nan a grid equals the clean
     grid, strict mode refuses, and plans without λ fall back to the
     dense oracle of their tree bit for bit;
   - a rank-one v that a constant carries is checked once, when the
     plan is made: a non-finite one (the sampler times a periodic gain
     with a NaN coefficient) still sends every point to the dense
     oracle, counted, with and without λ, and strict mode refuses;
   - a banded LU loop clears only its last factors' support between
     points: a plan dirtied at other points equals a fresh plan bit for
     bit;
   - entry demand on 27 seeded mixing-PFD designs, each behind a
     time-invariant (band 1) and an ISF VCO (band 3): the two-sided
     elimination's H₀₀ and H_{n,m}, n, m in −2…2, equal the banded LU's
     to 1e-12 at n_harm 8/20/80, and H₀₀ at n_harm 8/20/40/80 equals
     n_harm 200's to 1e-12 (the truncation has converged);
   - the plan memo behind the Htm queries: a seeded sequence of every
     query kind over 12 (ctx, tree) pairs equals fresh plans bit for
     bit, the memo holds the last 8 pairs of dimension 161 or less, a
     plan that fell back (smat-nan at make time, grid-plan-nan) or
     raised in strict mode is dropped, and two systhreads plus two
     sweep lanes on one pair get fresh-plan bits;
   - a mixing loop's plan at n_harm 200 allocates its n×n storage only
     when a column query first needs it;
   - the fallback reads the demanded part of the dense oracle:
     Htm_expr.row_dense equals every row of Htm.to_matrix_dense bit for
     bit over the randomized trees, fixed chains with every node kind
     on each side of a product, and trees with an infinite leaf entry;
     under grid-plan-nan:1 element, baseband, row, column and to_cmat
     of ti, isf (with and without λ) and mixing loops at n_harm
     8/20/40 equal the full oracle bit for bit, one fallback each; one
     ISF fallback point at n_harm 80 allocates under 50k words. *)

open Numeric
open Helpers
module Htm = Htm_core.Htm
module Smat = Htm_core.Smat
module Plan = Htm_core.Plan
module Pool = Parallel.Pool
module Sweep = Parallel.Sweep
module E = Robust.Pllscope_error

(* ------------------------------------------------------------------ *)
(* deterministic random expression generator (test_htm_struct's, plus
   lti_rat leaves so the split-rational fill path is exercised)         *)

let rint g n = int_of_float (Prng.float g *. float_of_int n)

let gen_cx_with g scale =
  Cx.make (scale *. Prng.gaussian g) (scale *. Prng.gaussian g)

(* an LTI block bounded on the imaginary axis: (a0 + a1 s)/(s + c) with
   re c >= 0.7, so random feedback loops stay comfortably away from
   exact singularity *)
let gen_lti_parts g =
  let a0 = gen_cx_with g 0.8 and a1 = gen_cx_with g 0.4 in
  let c = Cx.add (Cx.of_float (0.7 +. Float.abs (Prng.gaussian g))) (gen_cx_with g 0.3) in
  let c = Cx.make (Float.abs (Cx.re c) +. 0.7) (Cx.im c) in
  (a0, a1, c)

let gen_lti g =
  let a0, a1, c = gen_lti_parts g in
  Htm.lti (fun s -> Cx.div (Cx.add a0 (Cx.mul a1 s)) (Cx.add s c))

let gen_lti_rat g =
  let a0, a1, c = gen_lti_parts g in
  Htm.lti_rat
    (Rat.make (Poly.of_coeffs [ a0; a1 ]) (Poly.of_coeffs [ c; Cx.one ]))

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
    match rint g 7 with
    | 0 -> gen_lti g
    | 1 -> gen_lti_rat g
    | 2 -> gen_periodic g
    | 3 -> Htm.sampler
    | 4 -> Htm.identity
    | 5 -> Htm.zero
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

(* every test that may touch the global robustness state restores it *)
let clean f () =
  Fun.protect
    ~finally:(fun () ->
      Robust.Inject.disarm ();
      Robust.Config.reset ();
      Robust.Stats.reset ())
    f

let bits_equal a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_bits msg a b =
  if not (Cx.is_finite a && Cx.is_finite b) then
    Alcotest.failf "%s: non-finite (%s vs %s)" msg (Cx.to_string a)
      (Cx.to_string b);
  if not (bits_equal (Cx.re a) (Cx.re b) && bits_equal (Cx.im a) (Cx.im b))
  then
    Alcotest.failf "%s: not bit-identical (%s vs %s)" msg (Cx.to_string a)
      (Cx.to_string b)

(* |b − a| ≤ tol·scale, the scale |a| unless given *)
let check_rel ?(tol = 1e-12) ?scale msg a b =
  let scale = Option.value scale ~default:(Cx.abs a) in
  if not (Cx.is_finite b && Cx.abs (Cx.sub b a) <= tol *. scale) then
    Alcotest.failf "%s: %s vs %s, off by %.3g relative (tol %.1e)" msg
      (Cx.to_string a) (Cx.to_string b)
      (Cx.abs (Cx.sub b a) /. scale)
      tol

(* A loop closed around a banded open loop answers an entry query by
   the two-sided elimination, which equals the banded LU's entry to
   rounding (1e-12 relative), not bit for bit; every other root, and
   every column or row query, reads the bits of a full evaluation. *)
let twisted_root c (t : Htm.t) =
  match t with
  | Feedback g -> (
      match Plan.root_shape (Plan.make c g) with `Band _ -> true | _ -> false)
  | _ -> false

let check_entry ~twisted msg a b =
  if twisted then check_rel msg a b else check_bits msg a b

(* ------------------------------------------------------------------ *)
(* randomized differential: plan = dense oracle                        *)

let test_randomized_plan_vs_oracle () =
  let g = Prng.create ~seed:0x6B1DL in
  let checked = ref 0 in
  for trial = 1 to 120 do
    let n_harm = 1 + rint g 4 in
    let c = Htm.ctx ~n_harm ~omega0:(Prng.uniform g ~lo:1.0 ~hi:3.0) in
    let t = gen_expr g 3 in
    let plan = Plan.make c t in
    (* the same plan is streamed over several points: reuse inside the
       trial is part of what is being tested *)
    for point = 1 to 3 do
      let s = gen_s g in
      match
        (Htm.to_matrix_dense c t s, Htm.to_matrix c t s, Plan.to_cmat plan s)
      with
      | exception Lu.Singular -> () (* all paths raise on exact singularity *)
      | dense, one_point, planned ->
          incr checked;
          List.iter
            (fun (name, m) ->
              if not (Cmat.equal ~tol:1e-12 dense m) then
                Alcotest.failf
                  "trial %d point %d (n_harm %d): %s and dense disagree \
                   beyond 1e-12"
                  trial point n_harm name)
            [ ("reused plan", planned); ("one-point Htm.to_matrix", one_point) ];
          (* the element fast path reads off the same plan storage *)
          let n = rint g ((2 * n_harm) + 1) - n_harm in
          check_cx ~tol:1e-12
            (Printf.sprintf "trial %d element" trial)
            (Cmat.get dense (Htm.index_of_harmonic c n)
               (Htm.index_of_harmonic c 0))
            (Plan.element plan ~n ~m:0 s);
          (* column demand: one column of a random m, on a plan last
             evaluated at another point and column, is bit-identical to
             that column of a full evaluation (an entry of a banded
             loop: equal to rounding) *)
          let harm () = rint g ((2 * n_harm) + 1) - n_harm in
          let m = harm () and w = Cx.im s in
          let idx = Htm.index_of_harmonic c in
          let full = Plan.to_cmat plan s in
          let full_tone = Plan.to_cmat plan (Cx.jomega w) in
          ignore (Plan.element plan ~n:(harm ()) ~m:(harm ()) (gen_s g));
          check_entry ~twisted:(twisted_root c t)
            (Printf.sprintf "trial %d element column %d" trial m)
            (Cmat.get full (idx n) (idx m))
            (Plan.element plan ~n ~m s);
          let tone = Htm.apply_to_tone c t ~m w in
          for i = 0 to Htm.dim c - 1 do
            check_bits
              (Printf.sprintf "trial %d apply_to_tone column %d row %d" trial m i)
              (Cmat.get full_tone i (idx m))
              (Cvec.get tone i)
          done
    done
  done;
  (* the singular guard must not have eaten the test *)
  check_true "almost all trials checked" (!checked >= 330)

(* A custom block whose size changes between calls: right (dim × dim)
   at its first call, 3×3 after. The plan must refuse the wrong size
   instead of copying it into a slot that still holds the first point. *)
let test_custom_wrong_size_rejected () =
  let ctx = Htm.ctx ~n_harm:2 ~omega0:2.0 in
  let calls = ref 0 in
  let block =
    Htm.custom (fun c s ->
        let n = if !calls = 0 then Htm.dim c else 3 in
        incr calls;
        Cmat.init n n (fun i k -> Cx.add s (Cx.of_float (float_of_int (i - k)))))
  in
  let t = Htm.series (Htm.lti (fun s -> Cx.inv (Cx.add s Cx.one))) block in
  let plan = Plan.make ctx t in
  let first = Plan.to_cmat plan (Cx.make 0.1 0.3) in
  check_int "first point is dim x dim" (Htm.dim ctx) (Cmat.rows first);
  let rejected name f =
    match f () with
    | _ -> Alcotest.failf "%s accepted a 3x3 custom block at n_harm 2" name
    | exception Invalid_argument msg ->
        let pre = "Plan.eval:" in
        check_true
          (Printf.sprintf "%s: %S starts with %S" name msg pre)
          (String.length msg >= String.length pre
          && String.equal (String.sub msg 0 (String.length pre)) pre)
  in
  rejected "Plan.to_cmat" (fun () -> Plan.to_cmat plan (Cx.make 0.2 0.5));
  rejected "Htm.to_matrix" (fun () -> Htm.to_matrix ctx t (Cx.make 0.2 0.5))

(* ------------------------------------------------------------------ *)
(* plan reuse and pool-size independence                               *)

let closed_loop_fixture () =
  let p = pll_of spec_default in
  let w0 = Pll_lib.Pll.omega0 p in
  let ctx = Htm.ctx ~n_harm:8 ~omega0:w0 in
  (p, w0, ctx)

let test_plan_reuse_bit_identical () =
  let p, w0, ctx = closed_loop_fixture () in
  let t = Pll_lib.Pll.closed_loop_htm p in
  let grid lo hi =
    Array.map Cx.jomega (Optimize.logspace (lo *. w0) (hi *. w0) 48)
  in
  let ss1 = grid 1e-3 0.49 and ss2 = grid 3e-3 0.3 in
  let c0 = Htm.index_of_harmonic ctx 0 in
  let h00 plan ss = Array.map (fun s -> Smat.get (Plan.eval plan s) c0 c0) ss in
  let plan = Plan.make ctx t in
  let first = h00 plan ss1 in
  let _second = h00 plan ss2 in
  let again = h00 plan ss1 in
  let fresh = h00 (Plan.make ctx t) ss1 in
  Array.iteri
    (fun i v ->
      check_bits (Printf.sprintf "reused plan, point %d" i) first.(i) v;
      check_bits (Printf.sprintf "fresh plan, point %d" i) first.(i) fresh.(i))
    again

let test_pool_size_bit_identical () =
  let p, w0, ctx = closed_loop_fixture () in
  let t = Pll_lib.Pll.closed_loop_htm p in
  let ws = Optimize.logspace (w0 *. 1e-3) (w0 *. 0.49) 160 in
  let sweep pool =
    (* one plan per concurrent lane: with 4 domains and a small chunk
       size several plan instances are live at once *)
    Sweep.grid_local ~pool ~chunk:8
      ~local:(fun () -> Plan.make ctx t)
      (fun plan w -> Plan.baseband plan (Cx.jomega w))
      ws
  in
  let seq =
    let plan = Plan.make ctx t in
    Array.map (fun w -> Plan.baseband plan (Cx.jomega w)) ws
  in
  let one = Pool.with_pool ~domains:1 sweep in
  let four = Pool.with_pool ~domains:4 sweep in
  Array.iteri
    (fun i _ ->
      check_bits (Printf.sprintf "1-domain vs sequential, point %d" i)
        seq.(i) one.(i);
      check_bits (Printf.sprintf "4-domain vs sequential, point %d" i)
        seq.(i) four.(i))
    ws

(* ------------------------------------------------------------------ *)
(* Rat.eval_into: the split kernel under the plan's LTI fills          *)

let test_rat_split_bit_identical () =
  let g = Prng.create ~seed:0x5137L in
  for trial = 1 to 200 do
    let coeffs n = List.init n (fun _ -> gen_cx_with g 1.0) in
    let num = Poly.of_coeffs (coeffs (1 + rint g 4)) in
    let den = Poly.of_coeffs (coeffs (1 + rint g 3) @ [ Cx.one ]) in
    let r = Rat.make num den in
    let sp = Rat.split r in
    for _ = 1 to 5 do
      let x = gen_s g in
      let a = Rat.eval r x and b = Rat.eval_split sp x in
      if Cx.is_finite a then
        check_bits (Printf.sprintf "trial %d" trial) a b
    done;
    (* the plan's leaf fill: row i at x + j·shifts.(i), rows lo..hi *)
    let x = gen_s g and shifts = Array.init 7 (fun i -> float_of_int (i - 3) *. 1.7) in
    let ore = Array.make 7 0.0 and oim = Array.make 7 0.0 in
    Rat.eval_shifted_into sp x ~shifts ~lo:1 ~hi:5 ~out_re:ore ~out_im:oim;
    for i = 1 to 5 do
      let a = Rat.eval r (Cx.make (Cx.re x) (Cx.im x +. shifts.(i))) in
      if Cx.is_finite a then
        check_bits
          (Printf.sprintf "trial %d shifted row %d" trial i)
          a (Cx.make ore.(i) oim.(i))
    done;
    check_true "rows outside lo..hi untouched"
      (Float.equal ore.(0) 0.0 && Float.equal ore.(6) 0.0)
  done

(* ------------------------------------------------------------------ *)
(* fault injection: grid-plan-nan                                      *)

let test_injected_nan_falls_back =
  clean (fun () ->
      let p, w0, ctx = closed_loop_fixture () in
      let t = Pll_lib.Pll.closed_loop_htm p in
      let plan = Plan.make ctx t in
      let ss =
        Array.map Cx.jomega (Optimize.logspace (w0 *. 1e-2) (w0 *. 0.4) 8)
      in
      Robust.Stats.reset ();
      Robust.Inject.configure "grid-plan-nan:1";
      let planned = Array.map (Plan.to_cmat plan) ss in
      Robust.Inject.disarm ();
      (* every point — the poisoned one via the dense oracle — must
         still match the reference *)
      Array.iteri
        (fun i s ->
          let oracle = Htm.to_matrix_dense ctx t s in
          if not (Cmat.equal ~tol:1e-9 oracle planned.(i)) then
            Alcotest.failf "point %d disagrees with oracle after injection" i)
        ss;
      let st = Robust.Stats.snapshot () in
      check_int "one dense fallback" 1 st.Robust.Stats.dense_fallbacks;
      check_int "counted as non-finite" 1 st.Robust.Stats.nonfinite_guards)

let test_injected_nan_strict_refuses =
  clean (fun () ->
      let p, w0, ctx = closed_loop_fixture () in
      let t = Pll_lib.Pll.closed_loop_htm p in
      let plan = Plan.make ctx t in
      let s = Cx.jomega (0.1 *. w0) in
      Robust.Inject.configure "grid-plan-nan:1";
      Robust.Config.set_strict true;
      (match Plan.eval plan s with
      | exception E.Error (E.Non_finite _) -> ()
      | exception e ->
          Alcotest.failf "expected typed Non_finite, got %s"
            (Printexc.to_string e)
      | _ -> Alcotest.fail "strict mode accepted an injected NaN");
      Robust.Config.set_strict false;
      Robust.Inject.disarm ();
      (* the plan workspace is still usable after the refusal *)
      let oracle = Htm.to_matrix_dense ctx t s in
      if not (Cmat.equal ~tol:1e-9 oracle (Plan.to_cmat plan s)) then
        Alcotest.fail "plan unusable after strict refusal")

(* ------------------------------------------------------------------ *)
(* golden regression: 64-point planned grid at n_harm = 20             *)

let test_planned_grid_golden () =
  let tbl = Test_golden.load () in
  let check_golden key actual =
    match Hashtbl.find_opt tbl key with
    | None -> Alcotest.failf "golden key %s missing from snapshot" key
    | Some expected -> check_close ~tol:1e-9 key expected actual
  in
  let p = pll_of spec_default in
  let w0 = Pll_lib.Pll.omega0 p in
  let ctx = Htm.ctx ~n_harm:20 ~omega0:w0 in
  let c0 = Htm.index_of_harmonic ctx 0 in
  let ss =
    Array.map Cx.jomega (Optimize.logspace (w0 *. 1e-3) (w0 *. 0.49) 64)
  in
  let plan = Pll_lib.Pll.closed_loop_plan ctx p in
  let h00s = Array.map (fun s -> Smat.get (Plan.eval plan s) c0 c0) ss in
  Array.iteri
    (fun i h ->
      check_golden (Printf.sprintf "grid_n20.p%d.re" i) (Cx.re h);
      check_golden (Printf.sprintf "grid_n20.p%d.im" i) (Cx.im h))
    h00s;
  let sm = Plan.eval plan ss.(31) in
  check_golden "grid_n20.p31.h10_re" (Cx.re (Smat.get sm (c0 + 1) c0));
  check_golden "grid_n20.p31.h10_im" (Cx.im (Smat.get sm (c0 + 1) c0));
  check_golden "grid_n20.p31.hm10_re" (Cx.re (Smat.get sm (c0 - 1) c0));
  check_golden "grid_n20.p31.hm10_im" (Cx.im (Smat.get sm (c0 - 1) c0));
  check_golden "grid_n20.p31.frobenius"
    (Cmat.norm_frobenius (Smat.to_cmat sm))

(* ------------------------------------------------------------------ *)
(* exact-λ fast path and the HTM-native analysis entry points          *)

let test_exact_lambda_matches_closed_form () =
  let p = pll_of spec_default in
  let w0 = Pll_lib.Pll.omega0 p in
  let ctx = Htm.ctx ~n_harm:20 ~omega0:w0 in
  let plan = Pll_lib.Pll.closed_loop_plan ctx p in
  List.iter
    (fun frac ->
      let s = Cx.jomega (frac *. w0) in
      check_cx ~tol:1e-9
        (Printf.sprintf "h00 at %g·ω₀" frac)
        (Pll_lib.Pll.h00 p s) (Plan.baseband plan s))
    [ 1e-3; 0.01; 0.07; 0.2; 0.45 ]

let test_metrics_htm_matches_closed_form () =
  let p = pll_of spec_default in
  let m = Pll_lib.Analysis.closed_loop_metrics p in
  let mh = Pll_lib.Analysis.closed_loop_metrics_htm ~n_harm:12 p in
  check_close ~tol:1e-6 "dc_mag" m.Pll_lib.Analysis.dc_mag
    mh.Pll_lib.Analysis.dc_mag;
  check_close ~tol:1e-6 "peak_db" m.Pll_lib.Analysis.peak_db
    mh.Pll_lib.Analysis.peak_db;
  check_close ~tol:1e-6 "peak_freq" m.Pll_lib.Analysis.peak_freq
    mh.Pll_lib.Analysis.peak_freq;
  match (m.Pll_lib.Analysis.bandwidth_3db, mh.Pll_lib.Analysis.bandwidth_3db)
  with
  | Some a, Some b -> check_close ~tol:1e-6 "bandwidth_3db" a b
  | None, None -> ()
  | _ -> Alcotest.fail "bandwidth_3db presence disagrees"

let test_noise_htm_matches_folded () =
  let p = pll_of spec_default in
  let w0 = Pll_lib.Pll.omega0 p in
  let s_ref = Pll_lib.Noise.lorentzian ~level:1e-12 ~corner:(0.02 *. w0) in
  let ws = [| 0.01 *. w0; 0.05 *. w0; 0.15 *. w0; 0.35 *. w0 |] in
  let htm = Pll_lib.Noise.reference_noise_out_htm p ~n_harm:12 s_ref ws in
  Array.iteri
    (fun i w ->
      let reference = Pll_lib.Noise.reference_noise_out p s_ref w in
      (* n_harm = 12 truncates the folding sum that the reference path
         carries to ±50 bands: agreement is up to the folding tail *)
      check_close ~tol:3e-2
        (Printf.sprintf "S_out at %g" w)
        reference htm.(i))
    ws

(* ------------------------------------------------------------------ *)
(* loops closed around a banded open loop: banded LU, column demand    *)

(* the default loop behind a time-invariant or an ISF VCO (band 2), with
   the sampling PFD or a mixing one (band 1) *)
let loop ~isf ~mixing =
  let spec = spec_default in
  let base = pll_of spec in
  let vco =
    if isf then
      Pll_lib.Vco.with_isf ~kvco:spec.Pll_lib.Design.kvco
        ~n_div:spec.Pll_lib.Design.n_div ~fref:spec.Pll_lib.Design.fref
        ~harmonics:[ Cx.of_float 0.3; Cx.make 0.05 (-0.04) ]
    else base.Pll_lib.Pll.vco
  in
  let pfd = if mixing then Pll_lib.Pfd.mixing ~gain:1.3 else Pll_lib.Pfd.sampling in
  Pll_lib.Pll.make ~fref:spec.Pll_lib.Design.fref ~n_div:spec.Pll_lib.Design.n_div
    ~filter:base.Pll_lib.Pll.filter ~vco ~pfd ()

(* a mixing PFD (band 1) behind a time-invariant or an ISF VCO (band
   2 + 1 = 3) *)
let mixing_loop ~isf = loop ~isf ~mixing:true

let test_mixing_loops_match_oracle () =
  List.iter
    (fun isf ->
      let p = mixing_loop ~isf in
      let w0 = Pll_lib.Pll.omega0 p in
      let t = Pll_lib.Pll.closed_loop_htm p in
      List.iter
        (fun n_harm ->
          let c = Htm.ctx ~n_harm ~omega0:w0 in
          let plan = Pll_lib.Pll.closed_loop_plan c p in
          let what = Printf.sprintf "%s n_harm %d" (if isf then "isf+mix" else "mix") n_harm in
          if n_harm >= 8 then
            check_true (what ^ ": dense LU root") (Plan.root_shape plan = `Dense);
          List.iter
            (fun frac ->
              let w = frac *. w0 in
              let s = Cx.jomega w in
              let dense = Htm.to_matrix_dense c t s in
              if not (Cmat.equal ~tol:1e-12 dense (Plan.to_cmat plan s)) then
                Alcotest.failf "%s at %g·ω₀: plan and dense disagree" what frac;
              let idx = Htm.index_of_harmonic c in
              let h = Stdlib.min n_harm 2 in
              List.iter
                (fun (n, m) ->
                  check_cx ~tol:1e-12
                    (Printf.sprintf "%s element (%d,%d)" what n m)
                    (Cmat.get dense (idx n) (idx m))
                    (Plan.element plan ~n ~m s))
                [ (0, 0); (h, 0); (-h, h); (0, -h) ];
              let tone = Htm.apply_to_tone c t ~m:(-h) w in
              for i = 0 to Htm.dim c - 1 do
                check_cx ~tol:1e-12
                  (Printf.sprintf "%s tone row %d" what i)
                  (Cmat.get dense i (idx (-h))) (Cvec.get tone i)
              done)
            [ 1e-3; 0.02; 0.2; 0.45 ])
        [ 0; 1; 8; 20 ])
    [ false; true ]

let test_injected_nan_column_mode =
  clean (fun () ->
      let p = mixing_loop ~isf:false in
      let w0 = Pll_lib.Pll.omega0 p in
      let c = Htm.ctx ~n_harm:8 ~omega0:w0 in
      let t = Pll_lib.Pll.closed_loop_htm p in
      let plan = Pll_lib.Pll.closed_loop_plan c p in
      let s = Cx.jomega (0.07 *. w0) in
      (* dirty the plan's other columns first *)
      ignore (Plan.to_cmat plan (Cx.jomega (0.3 *. w0)));
      Robust.Stats.reset ();
      Robust.Inject.configure "grid-plan-nan:1";
      let e = Plan.element plan ~n:1 ~m:2 s in
      Robust.Inject.disarm ();
      let st = Robust.Stats.snapshot () in
      check_int "one dense fallback" 1 st.Robust.Stats.dense_fallbacks;
      check_int "counted as non-finite" 1 st.Robust.Stats.nonfinite_guards;
      let oracle = Htm.to_matrix_dense c t s in
      check_bits "fallback = oracle"
        (Cmat.get oracle (Htm.index_of_harmonic c 1) (Htm.index_of_harmonic c 2))
        e)

(* the mixing-PFD grid path stays off the heap: the leaf fills box no
   shifted frequency, and the entry elimination no scalar *)
let test_mixing_alloc_budget () =
  let p = mixing_loop ~isf:false in
  let w0 = Pll_lib.Pll.omega0 p in
  List.iter
    (fun n_harm ->
      let c = Htm.ctx ~n_harm ~omega0:w0 in
      let plan = Pll_lib.Pll.closed_loop_plan c p in
      let ss = Array.map Cx.jomega (Optimize.logspace (w0 *. 1e-4) (w0 *. 0.49) 100) in
      ignore (Plan.baseband plan ss.(0));
      let w_before = Gc.minor_words () in
      Array.iter (fun s -> ignore (Plan.baseband plan s)) ss;
      let per_pt = (Gc.minor_words () -. w_before) /. 100.0 in
      check_true
        (Printf.sprintf "n_harm %d: %.0f words/pt within the 100 budget" n_harm per_pt)
        (per_pt <= 100.0))
    [ 20; 80 ]

(* 27 seeded mixing-PFD designs (reference frequency, loop ratio, phase
   margin and mixer gain 0.5–2.0 drawn), each behind a time-invariant
   VCO (band 1) and behind an ISF VCO (band 3) *)
let mixing_designs =
  lazy
    (let g = Prng.create ~seed:0x3A1EL in
     List.concat
       (List.init 27 (fun _ ->
            let u lo hi = Prng.uniform g ~lo ~hi in
            let spec =
              {
                Pll_lib.Design.default_spec with
                fref = 1e6 *. u 0.8 1.25;
                ratio = u 0.03 0.2;
                phase_margin_deg = u 45.0 65.0;
              }
            in
            let gain = u 0.5 2.0 in
            let h1 = u 0.05 0.4 and h2 = Cx.make (u (-0.1) 0.1) (u (-0.1) 0.1) in
            let base = pll_of spec in
            let make vco =
              Pll_lib.Pll.make ~fref:spec.fref ~n_div:spec.n_div
                ~filter:base.Pll_lib.Pll.filter ~vco
                ~pfd:(Pll_lib.Pfd.mixing ~gain) ()
            in
            [
              ("ti", make base.Pll_lib.Pll.vco);
              ( "isf",
                make
                  (Pll_lib.Vco.with_isf ~kvco:spec.kvco ~n_div:spec.n_div
                     ~fref:spec.fref ~harmonics:[ Cx.of_float h1; h2 ]) );
            ])))

(* Entry demand on a loop closed around a banded open loop takes the
   two-sided elimination: H₀₀ and every H_{n,m} with n, m in −2…2 equal
   the banded LU's (a column query: that column of a full evaluation,
   bit for bit) to 1e-12, at n_harm 8, 20 and 80 — relative to |H₀₀|
   for the baseband, and to the largest entry of column m for H_{n,m}:
   an entry several harmonics off the diagonal can sit 1e-15 below its
   column, where neither solve carries relative digits *)
let test_twisted_matches_lu () =
  List.iteri
    (fun d (kind, p) ->
      let w0 = Pll_lib.Pll.omega0 p in
      List.iter
        (fun n_harm ->
          let ctx = Htm.ctx ~n_harm ~omega0:w0 in
          let plan = Pll_lib.Pll.closed_loop_plan ctx p in
          let idx = Htm.index_of_harmonic ctx in
          List.iter
            (fun frac ->
              let s = Cx.jomega (frac *. w0) in
              let what = Printf.sprintf "design %d (%s) n_harm %d at %g·ω₀" d kind n_harm frac in
              let cols = Array.init 5 (fun j -> Plan.column plan ~m:(j - 2) s) in
              check_rel (what ^ ": baseband") (Cvec.get cols.(2) (idx 0)) (Plan.baseband plan s);
              for n = -2 to 2 do
                for m = -2 to 2 do
                  check_rel ~scale:(Cvec.norm_inf cols.(m + 2))
                    (Printf.sprintf "%s: element (%d,%d)" what n m)
                    (Cvec.get cols.(m + 2) (idx n))
                    (Plan.element plan ~n ~m s)
                done
              done)
            [ 1e-4; 1e-3; 0.01; 0.1; 0.3; 0.4999 ])
        [ 8; 20; 80 ])
    (Lazy.force mixing_designs);
  check_int "no fallback" 0 (Robust.Stats.snapshot ()).Robust.Stats.dense_fallbacks

(* The truncation a mixing loop's plan evaluates: its baseband entry at
   n_harm 8, 20, 40 and 80 equals the one at n_harm 200 to 1e-12
   relative (the harmonic coupling of a mixer behind an integrating
   VCO decays too fast for the band edge to reach row 0) *)
let test_mixing_truncation_converged () =
  List.iteri
    (fun d (kind, p) ->
      let w0 = Pll_lib.Pll.omega0 p in
      let plan n_harm = Pll_lib.Pll.closed_loop_plan (Htm.ctx ~n_harm ~omega0:w0) p in
      let ss = Array.map Cx.jomega (Optimize.logspace (w0 *. 1e-4) (w0 *. 0.4999) 9) in
      let reference = Array.map (Plan.baseband (plan 200)) ss in
      List.iter
        (fun n_harm ->
          let pl = plan n_harm in
          Array.iteri
            (fun j s ->
              check_rel
                (Printf.sprintf "design %d (%s) point %d: n_harm %d vs 200" d kind j n_harm)
                reference.(j) (Plan.baseband pl s))
            ss)
        [ 8; 20; 40; 80 ])
    (Lazy.force mixing_designs)

(* ------------------------------------------------------------------ *)
(* row demand: entries, rows and the noise fold                        *)

(* an ISF-VCO loop (banded open loop, rank-one feedback) *)
let isf_loop () = loop ~isf:true ~mixing:false

(* Every entry and every row of a plan under entry demand, each read
   on a plan last evaluated at another point and another row, is
   bit-identical to that entry of a full evaluation — an entry of a
   banded loop ([twisted]) equal to rounding. *)
let check_row_demand ?(twisted = false) what c plan =
  let g = Prng.create ~seed:0x40D1L in
  let n_harm = c.Htm.n_harm and n = Htm.dim c in
  let idx = Htm.index_of_harmonic c in
  let harm () = rint g n - n_harm in
  List.iter
    (fun s ->
      let full = Plan.to_cmat plan s in
      for i = -n_harm to n_harm do
        for k = -n_harm to n_harm do
          ignore (Plan.element plan ~n:(harm ()) ~m:(harm ()) (gen_s g));
          check_entry ~twisted
            (Printf.sprintf "%s element (%d,%d)" what i k)
            (Cmat.get full (idx i) (idx k))
            (Plan.element plan ~n:i ~m:k s)
        done;
        ignore (Plan.element plan ~n:(harm ()) ~m:(harm ()) (gen_s g));
        let r = Plan.row plan ~n:i s in
        for k = 0 to n - 1 do
          check_bits
            (Printf.sprintf "%s row %d entry %d" what i k)
            (Cmat.get full (idx i) k) (Cvec.get r k)
        done
      done)
    [ Cx.make 0.07 0.4; Cx.jomega 1.3 ]

let test_row_demand_roots () =
  let c = Htm.ctx ~n_harm:4 ~omega0:2.0 in
  let g = Prng.create ~seed:0x20E5L in
  let lti () = gen_lti_rat g and lti_fn () = gen_lti g in
  let gain k =
    Htm.periodic_gain (Array.init ((2 * k) + 1) (fun _ -> gen_cx_with g 0.4))
  in
  let custom = gen_custom g in
  let small z t = Htm.scale (Cx.of_float z) t in
  let cases =
    [
      ("diagonal", Htm.series (lti ()) (lti_fn ()), `Diag);
      (* periodic gain · LTI · periodic gain: bandwidth 3, and the
         right-hand gain reads rows widened by the left-hand band *)
      ("banded", Htm.series (Htm.series (gain 2) (lti ())) (gain 1), `Band 3);
      ( "banded sum",
        Htm.sub
          (Htm.scale (Cx.make 0.3 0.1) (Htm.series (gain 1) (lti ())))
          (lti_fn ()),
        `Band 1 );
      (* A·(u vᵀ) behind a banded A, and (u vᵀ)·B *)
      ( "rank one, banded A",
        Htm.series (gain 2) (Htm.series (lti ()) Htm.sampler),
        `Rank1 );
      ( "rank one, (u vᵀ)·B",
        Htm.series Htm.sampler (Htm.series (gain 1) (lti ())),
        `Rank1 );
      ( "rank-one loop",
        Htm.feedback
          (small 0.2 (Htm.series (gain 1) (Htm.series (lti ()) Htm.sampler))),
        `Rank1 );
      ( "diagonal loop",
        Htm.feedback (Htm.series (lti ()) (small 0.3 (lti_fn ()))),
        `Diag );
      ( "dense (banded LU)",
        Htm.feedback (small 0.2 (Htm.series (lti ()) (gain 1))),
        `Dense );
      ( "dense (custom)",
        Htm.series (lti ()) (Htm.series custom (gain 1)),
        `Dense );
    ]
  in
  List.iter
    (fun (what, t, shape) ->
      let plan = Plan.make c t in
      check_true (what ^ ": root shape") (Plan.root_shape plan = shape);
      check_row_demand ~twisted:(twisted_root c t) what c plan)
    cases;
  (* the closed loops of the PLL classes: the exact-λ override on the
     time-invariant loop and behind an ISF VCO's banded open loop, rank
     one without it, and the mixing PFD's LU *)
  let ti = pll_of spec_default and isf = isf_loop () in
  let w0 = Pll_lib.Pll.omega0 ti in
  let cp = Htm.ctx ~n_harm:3 ~omega0:w0 in
  List.iter
    (fun (what, twisted, plan) -> check_row_demand ~twisted what cp plan)
    [
      ("ti, exact λ", false, Pll_lib.Pll.closed_loop_plan cp ti);
      ( "ti, no override",
        false,
        Plan.make cp (Pll_lib.Pll.closed_loop_htm ti) );
      ("isf, exact λ", false, Pll_lib.Pll.closed_loop_plan cp isf);
      ( "isf, no override",
        false,
        Plan.make cp (Pll_lib.Pll.closed_loop_htm isf) );
      ("mix", true, Pll_lib.Pll.closed_loop_plan cp (mixing_loop ~isf:false));
    ]

(* The noise fold reads row 0 through Plan.row: each term is the entry
   of a full evaluation, and the sum is the one a full evaluation gives,
   bit for bit, on the three loop classes (and the ISF loop's row
   terms without the λ override). *)
let test_noise_row_demand () =
  List.iter
    (fun (what, p, exact_lambda) ->
      let w0 = Pll_lib.Pll.omega0 p in
      let n_harm = 8 in
      let c = Htm.ctx ~n_harm ~omega0:w0 in
      let s_ref = Pll_lib.Noise.lorentzian ~level:1e-12 ~corner:(0.02 *. w0) in
      let ws = [| 0.01 *. w0; 0.15 *. w0; 0.35 *. w0 |] in
      let plan =
        if exact_lambda then Pll_lib.Pll.closed_loop_plan c p
        else Plan.make c (Pll_lib.Pll.closed_loop_htm p)
      in
      (* Noise folds through the planner, which always takes λ *)
      let got =
        if exact_lambda then
          Some (Pll_lib.Noise.reference_noise_out_htm p ~n_harm s_ref ws)
        else None
      in
      let i0 = Htm.index_of_harmonic c 0 in
      Array.iteri
        (fun j w ->
          let row = Plan.row plan ~n:0 (Cx.jomega w) in
          let sm = Plan.eval plan (Cx.jomega w) in
          let acc = ref 0.0 in
          for m = -n_harm to n_harm do
            let h = Smat.get sm i0 (Htm.index_of_harmonic c m) in
            check_bits
              (Printf.sprintf "%s at %g: term %d" what w m)
              h
              (Cvec.get row (Htm.index_of_harmonic c m));
            acc := !acc +. (Cx.norm2 h *. s_ref (w +. (float_of_int m *. w0)))
          done;
          Option.iter
            (fun got ->
              check_true
                (Printf.sprintf "%s at %g: folded sum bit-identical" what w)
                (bits_equal !acc got.(j)))
            got)
        ws)
    [
      ("ti", pll_of spec_default, true);
      ("isf", isf_loop (), true);
      ("isf, no override", isf_loop (), false);
      ("mix", mixing_loop ~isf:false, true);
    ]

(* Behind the exact λ the baseband entry is a window of leaf
   evaluations plus λ — two leaves for a time-invariant VCO, ±K rows
   behind an ISF VCO: its allocation must not grow with the truncation *)
let test_exact_lambda_alloc_flat () =
  List.iter
    (fun (what, p) ->
      let w0 = Pll_lib.Pll.omega0 p in
      let ss = Array.map Cx.jomega (Optimize.logspace (w0 *. 1e-4) (w0 *. 0.49) 100) in
      let words_per_pt n_harm =
        let plan = Pll_lib.Pll.closed_loop_plan (Htm.ctx ~n_harm ~omega0:w0) p in
        ignore (Plan.baseband plan ss.(0));
        let w_before = Gc.minor_words () in
        Array.iter (fun s -> ignore (Plan.baseband plan s)) ss;
        (Gc.minor_words () -. w_before) /. 100.0
      in
      let w8 = words_per_pt 8 and w80 = words_per_pt 80 in
      check_true
        (Printf.sprintf "%s n_harm 80: %.1f words/pt, n_harm 8: %.1f (within 8)" what
           w80 w8)
        (Float.abs (w80 -. w8) <= 8.0))
    [ ("ti", pll_of spec_default); ("isf", isf_loop ()) ]

(* ------------------------------------------------------------------ *)
(* exact λ behind an ISF VCO                                           *)

(* The exact plan's entries are the closed form u_n/(1 + λ) wherever
   row n of the truncated u carries all 2K+1 taps (|n| ≤ n_harm − K),
   for every column m: an oracle independent of the plan's kernels. *)
let test_isf_plan_matches_closed_form () =
  let p = isf_loop () in
  let w0 = Pll_lib.Pll.omega0 p in
  let n_harm = 6 and k = 2 in
  let plan = Pll_lib.Pll.closed_loop_plan (Htm.ctx ~n_harm ~omega0:w0) p in
  List.iter
    (fun frac ->
      let s = Cx.jomega (frac *. w0) in
      for n = -(n_harm - k) to n_harm - k do
        let expected = Pll_lib.Pll.htm_element_fn p Pll_lib.Pll.Exact ~n s in
        List.iter
          (fun m ->
            check_cx ~tol:1e-12
              (Printf.sprintf "element (%d,%d) at %g·ω₀" n m frac)
              expected (Plan.element plan ~n ~m s))
          [ -n_harm; 0; 3 ]
      done)
    [ 1e-3; 0.07; 0.2; 0.45 ]

(* Without the λ the metrics move with the truncation; with it they do
   not, and they are the closed form's. The closed form's |H₀₀| differs
   from the plan's by rounding, which moves the refined peak and -3 dB
   frequencies on their flat extrema by ~1e-9 relative: 1e-6 there. *)
let test_isf_metrics_flat_in_n_harm () =
  let p = isf_loop () in
  let open Pll_lib.Analysis in
  let m80 = closed_loop_metrics_htm ~n_harm:80 p in
  List.iter
    (fun (what, m, freq_tol) ->
      let rel ?(tol = 1e-9) field a b =
        check_true
          (Printf.sprintf "%s %s: %.17g vs %.17g (n_harm 80)" what field a b)
          (Float.abs (a -. b) <= tol *. Float.abs b)
      in
      rel "dc_mag" m.dc_mag m80.dc_mag;
      rel "peak_mag" m.peak_mag m80.peak_mag;
      rel ~tol:freq_tol "peak_freq" m.peak_freq m80.peak_freq;
      match (m.bandwidth_3db, m80.bandwidth_3db) with
      | Some a, Some b -> rel ~tol:freq_tol "bandwidth_3db" a b
      | None, None -> ()
      | _ -> Alcotest.fail "bandwidth_3db presence disagrees")
    [
      ("n_harm 8", closed_loop_metrics_htm ~n_harm:8 p, 1e-9);
      ("closed form", closed_loop_metrics p, 1e-6);
    ]

(* Below n_harm = K row 0's u is itself truncated: the planner keeps
   the truncated vᵀu there, so the plan is the no-override plan *)
let test_isf_below_k_keeps_truncated () =
  let p = isf_loop () in
  let w0 = Pll_lib.Pll.omega0 p in
  let c = Htm.ctx ~n_harm:1 ~omega0:w0 in
  let exact = Pll_lib.Pll.closed_loop_plan c p in
  let plain = Plan.make c (Pll_lib.Pll.closed_loop_htm p) in
  List.iter
    (fun frac ->
      let s = Cx.jomega (frac *. w0) in
      let a = Plan.to_cmat exact s and b = Plan.to_cmat plain s in
      for i = 0 to Htm.dim c - 1 do
        for k = 0 to Htm.dim c - 1 do
          check_bits
            (Printf.sprintf "(%d,%d) at %g·ω₀" i k frac)
            (Cmat.get b i k) (Cmat.get a i k)
        done
      done)
    [ 1e-3; 0.2; 0.45 ]

(* A point of an exact-λ plan that falls back degrades to the dense
   oracle of the same loop — u·lᵀ over 1 + λ(s) — not to the truncated
   (I + G)⁻¹·G: under grid-plan-nan the grid equals the clean grid *)
let test_exact_lambda_fallback =
  clean (fun () ->
      List.iter
        (fun (what, p) ->
          let w0 = Pll_lib.Pll.omega0 p in
          let c = Htm.ctx ~n_harm:20 ~omega0:w0 in
          let plan = Pll_lib.Pll.closed_loop_plan c p in
          let ss =
            Array.map Cx.jomega (Optimize.logspace (w0 *. 1e-3) (w0 *. 0.49) 400)
          in
          let grid () = Array.map (fun s -> Plan.baseband plan s) ss in
          let clean_grid = grid () in
          let full = Plan.to_cmat plan ss.(77) in
          Robust.Stats.reset ();
          Robust.Inject.configure ~seed:7 "grid-plan-nan:~0.05";
          let faulted = grid () in
          Robust.Inject.configure "grid-plan-nan:1";
          let full_faulted = Plan.to_cmat plan ss.(77) in
          Robust.Inject.disarm ();
          let st = Robust.Stats.snapshot () in
          check_true
            (Printf.sprintf "%s: %d fallbacks counted" what st.Robust.Stats.dense_fallbacks)
            (st.Robust.Stats.dense_fallbacks > 1);
          Array.iteri
            (fun i h ->
              check_true
                (Printf.sprintf "%s point %d = clean grid (1e-12)" what i)
                (Cx.abs (Cx.sub h clean_grid.(i)) <= 1e-12 *. Cx.abs clean_grid.(i)))
            faulted;
          check_true (what ^ ": fallen-back matrix = clean matrix")
            (Cmat.equal ~tol:1e-12 full full_faulted))
        [ ("ti", pll_of spec_default); ("isf", isf_loop ()) ])

let test_exact_lambda_strict_refuses =
  clean (fun () ->
      let p = isf_loop () in
      let w0 = Pll_lib.Pll.omega0 p in
      let plan = Pll_lib.Pll.closed_loop_plan (Htm.ctx ~n_harm:8 ~omega0:w0) p in
      Robust.Inject.configure "grid-plan-nan:1";
      Robust.Config.set_strict true;
      match Plan.baseband plan (Cx.jomega (0.1 *. w0)) with
      | exception E.Error (E.Non_finite _) -> ()
      | exception e ->
          Alcotest.failf "expected typed Non_finite, got %s" (Printexc.to_string e)
      | _ -> Alcotest.fail "strict mode accepted an injected NaN")

(* a plan without λ still falls back to the dense oracle of its tree,
   bit for bit *)
let test_plain_fallback_unchanged =
  clean (fun () ->
      let p = isf_loop () in
      let w0 = Pll_lib.Pll.omega0 p in
      let c = Htm.ctx ~n_harm:8 ~omega0:w0 in
      let plan = Plan.make c (Pll_lib.Pll.closed_loop_htm p) in
      let s = Cx.jomega (0.13 *. w0) in
      Robust.Inject.configure "grid-plan-nan:1";
      let e = Plan.element plan ~n:1 ~m:0 s in
      Robust.Inject.disarm ();
      let oracle = Htm.to_matrix_dense c (Pll_lib.Pll.closed_loop_htm p) s in
      check_bits "fallback = oracle"
        (Cmat.get oracle (Htm.index_of_harmonic c 1) (Htm.index_of_harmonic c 0))
        e)

(* golden rows: the exact ISF H₀₀ and metrics at n_harm 20 *)
let test_isf_golden () =
  let check_golden = Test_golden.check_golden (Test_golden.load ()) in
  let p = isf_loop () in
  let w0 = Pll_lib.Pll.omega0 p in
  let plan = Pll_lib.Pll.closed_loop_plan (Htm.ctx ~n_harm:20 ~omega0:w0) p in
  List.iter
    (fun frac ->
      let h = Plan.baseband plan (Cx.jomega (frac *. w0)) in
      let key f = Printf.sprintf "isf_exact_n20_w%g.%s" frac f in
      check_golden (key "h00_re") (Cx.re h);
      check_golden (key "h00_im") (Cx.im h))
    [ 0.07; 0.2; 0.45 ];
  let m = Pll_lib.Analysis.closed_loop_metrics_htm ~n_harm:20 p in
  let open Pll_lib.Analysis in
  check_golden "isf_exact_n20.dc_mag" m.dc_mag;
  check_golden "isf_exact_n20.peak_db" m.peak_db;
  check_golden "isf_exact_n20.peak_freq" m.peak_freq;
  check_golden "isf_exact_n20.bandwidth_3db"
    (Option.value ~default:Float.nan m.bandwidth_3db)

(* ------------------------------------------------------------------ *)
(* constant rank-one v, checked once; banded LU storage reuse          *)

(* A rank-one node shares the v of a constant it is built from, and
   that v is checked finite once, when the plan is made. A non-finite
   constant v — the sampler times a periodic gain with a NaN
   coefficient — still fails every point's guard: each point falls back
   to the dense oracle of the loop, counted, and strict mode refuses it *)
let test_const_v_nan_falls_back =
  clean (fun () ->
      let c = Htm.ctx ~n_harm:4 ~omega0:2.0 in
      let g = Prng.create ~seed:0xC0EFL in
      let coeffs = [| Cx.make 0.1 0.05; Cx.make Float.nan 0.0; Cx.make 0.2 (-0.1) |] in
      let open_loop =
        Htm.series (gen_lti_rat g) (Htm.series Htm.sampler (Htm.periodic_gain coeffs))
      in
      let t = Htm.feedback open_loop in
      let lam s = Cx.make (0.3 +. (0.1 *. Cx.re s)) (0.2 *. Cx.im s) in
      let ss = [| Cx.make 0.07 0.4; Cx.jomega 1.3; Cx.make (-0.2) 0.9 |] in
      List.iter
        (fun (what, plan, oracle) ->
          check_true (what ^ ": rank-one root") (Plan.root_shape plan = `Rank1);
          Robust.Stats.reset ();
          Array.iter
            (fun s ->
              let i0 = Htm.index_of_harmonic c 0 in
              let want = Cmat.get (oracle s) i0 i0 and got = Plan.baseband plan s in
              check_true
                (Printf.sprintf "%s at %s: oracle entry (%s vs %s)" what
                   (Cx.to_string s) (Cx.to_string want) (Cx.to_string got))
                (bits_equal (Cx.re want) (Cx.re got) && bits_equal (Cx.im want) (Cx.im got)))
            ss;
          let st = Robust.Stats.snapshot () in
          check_int (what ^ ": one fallback per point") (Array.length ss)
            st.Robust.Stats.dense_fallbacks;
          Robust.Config.set_strict true;
          (match Plan.baseband plan ss.(0) with
          | exception E.Error (E.Non_finite _) -> ()
          | exception e ->
              Alcotest.failf "%s: expected typed Non_finite, got %s" what
                (Printexc.to_string e)
          | _ -> Alcotest.failf "%s: strict mode accepted a NaN v" what);
          Robust.Config.set_strict false)
        [
          ("no λ", Plan.make c t, fun s -> Htm.to_matrix_dense c t s);
          ( "λ override",
            Plan.make ~lambda:lam c t,
            fun s ->
              Cmat.scale
                (Cx.inv (Cx.add Cx.one (lam s)))
                (Htm.to_matrix_dense c open_loop s) );
        ])

(* A banded LU closed loop keeps its factors' storage from point to
   point and clears only their support: a plan dirtied at other points
   (with row swaps) gives the bits of a fresh plan, every column, and
   the baseband entry of its two-sided elimination, which equals the
   full evaluation's to rounding *)
let test_banded_lu_reuse_bit_identical () =
  List.iter
    (fun isf ->
      let p = mixing_loop ~isf in
      let w0 = Pll_lib.Pll.omega0 p in
      let c = Htm.ctx ~n_harm:6 ~omega0:w0 in
      let t = Pll_lib.Pll.closed_loop_htm p in
      let plan = Plan.make c t in
      let ss =
        Array.map Cx.jomega (Optimize.logspace (w0 *. 1e-3) (w0 *. 0.49) 12)
      in
      Array.iteri
        (fun j s ->
          ignore (Plan.to_cmat plan ss.((j + 5) mod Array.length ss));
          let fresh = Plan.to_cmat (Plan.make c t) s in
          let reused = Plan.to_cmat plan s in
          let n = Htm.dim c in
          for i = 0 to n - 1 do
            for k = 0 to n - 1 do
              check_bits
                (Printf.sprintf "isf %b point %d (%d,%d)" isf j i k)
                (Cmat.get fresh i k) (Cmat.get reused i k)
            done
          done;
          ignore (Plan.baseband plan ss.((j + 3) mod Array.length ss));
          let h00 = Plan.baseband plan s in
          check_bits
            (Printf.sprintf "isf %b point %d: baseband" isf j)
            (Plan.baseband (Plan.make c t) s)
            h00;
          check_rel
            (Printf.sprintf "isf %b point %d: baseband = full" isf j)
            (Cmat.get fresh (Htm.index_of_harmonic c 0) (Htm.index_of_harmonic c 0))
            h00)
        ss)
    [ false; true ]

(* ------------------------------------------------------------------ *)
(* the plan memo behind the per-point Htm queries                      *)

let check_mat_bits msg a b =
  check_int (msg ^ ": rows") (Cmat.rows a) (Cmat.rows b);
  for i = 0 to Cmat.rows a - 1 do
    for k = 0 to Cmat.cols a - 1 do
      check_bits (Printf.sprintf "%s (%d,%d)" msg i k) (Cmat.get a i k) (Cmat.get b i k)
    done
  done

let check_vec_bits msg a b =
  check_int (msg ^ ": dim") (Cvec.dim a) (Cvec.dim b);
  for i = 0 to Cvec.dim a - 1 do
    check_bits (Printf.sprintf "%s row %d" msg i) (Cvec.get a i) (Cvec.get b i)
  done

(* a tree whose custom block counts the plans compiled for it: [f ctx]
   runs once per plan *)
let counting_tree () =
  let compiles = ref 0 in
  let block =
    Htm.custom (fun c ->
        incr compiles;
        let n = Htm.dim c in
        fun s ->
          Cmat.init n n (fun i k ->
              Cx.scale (0.1 /. float_of_int (1 + abs (i - k))) (Cx.add Cx.one s)))
  in
  let lti = Htm.lti (fun s -> Cx.inv (Cx.add s (Cx.of_float 2.0))) in
  (compiles, Htm.feedback (Htm.series lti block))

(* One seeded sequence of every query kind over 12 (ctx, tree) pairs —
   time-invariant, ISF, mixing and ISF-mixing loops at three n_harm,
   more pairs than the memo holds, so entries are evicted and
   recompiled — gives at every step the bits of a fresh plan asked the
   same question. [is_lti] and [max_singular_value] read a realized
   HTM: their reference is the same query on the same loop built
   again, a tree the memo has never seen. *)
let test_memo_interleaved_bits =
  clean (fun () ->
      let g = Prng.create ~seed:0x3E30L in
      let loops =
        List.map
          (fun (isf, mixing) -> loop ~isf ~mixing)
          [ (false, false); (true, false); (false, true); (true, true) ]
      in
      let w0 = Pll_lib.Pll.omega0 (List.hd loops) in
      let pairs =
        Array.of_list
          (List.concat_map
             (fun p ->
               List.map
                 (fun n_harm -> (p, Htm.ctx ~n_harm ~omega0:w0, Pll_lib.Pll.closed_loop_htm p))
                 [ 3; 5; 8 ])
             loops)
      in
      for q = 1 to 400 do
        let p, c, t = pairs.(rint g (Array.length pairs)) in
        let harm () = rint g 5 - 2 in
        let w = w0 *. (10.0 ** (-3.0 +. (2.69 *. Prng.float g))) in
        let s = Cx.jomega w in
        let fresh () = Plan.make c t in
        let what kind = Printf.sprintf "query %d (%s, n_harm %d)" q kind c.Htm.n_harm in
        match rint g 6 with
        | 0 -> check_mat_bits (what "to_matrix") (Plan.to_cmat (fresh ()) s) (Htm.to_matrix c t s)
        | 1 ->
            let n = harm () and m = harm () in
            check_bits (what "element") (Plan.element (fresh ()) ~n ~m s) (Htm.element c t ~n ~m s)
        | 2 -> check_bits (what "baseband") (Plan.baseband (fresh ()) s) (Htm.baseband c t w)
        | 3 ->
            let m = harm () in
            check_vec_bits (what "apply_to_tone") (Plan.column (fresh ()) ~m s)
              (Htm.apply_to_tone c t ~m w)
        | 4 ->
            check_true (what "is_lti")
              (Bool.equal (Htm.is_lti c (Pll_lib.Pll.closed_loop_htm p) s) (Htm.is_lti c t s))
        | _ ->
            let a = Htm.max_singular_value c (Pll_lib.Pll.closed_loop_htm p) w in
            check_true (what "max_singular_value")
              (bits_equal a (Htm.max_singular_value c t w))
      done;
      check_int "no fallback" 0 (Robust.Stats.snapshot ()).Robust.Stats.dense_fallbacks)

(* The memo holds the last 8 (ctx, tree) pairs of a domain: a pair
   queried again compiles nothing while 7 others came between, and
   compiles again after 8 others pushed it out *)
let test_memo_lru_of_eight () =
  let compiles, t = counting_tree () in
  let c = Htm.ctx ~n_harm:3 ~omega0:1.5 in
  let others =
    List.init 8 (fun i ->
        (Htm.ctx ~n_harm:(1 + i) ~omega0:1.5, Htm.lti (fun s -> Cx.inv (Cx.add s Cx.one))))
  in
  let touch k = List.iteri (fun i (c, t) -> if i < k then ignore (Htm.baseband c t 0.3)) others in
  for _ = 1 to 5 do
    ignore (Htm.element c t ~n:1 ~m:0 (Cx.jomega 0.4))
  done;
  check_int "five queries, one plan" 1 !compiles;
  touch 7;
  ignore (Htm.to_matrix c t (Cx.jomega 0.7));
  check_int "7 pairs between: still held" 1 !compiles;
  touch 8;
  ignore (Htm.apply_to_tone c t ~m:(-1) 0.7);
  check_int "8 pairs between: compiled again" 2 !compiles;
  (* the same context rebuilt is the same key; another omega0 is not *)
  ignore (Htm.baseband (Htm.ctx ~n_harm:3 ~omega0:1.5) t 0.2);
  check_int "an equal ctx hits" 2 !compiles;
  ignore (Htm.baseband (Htm.ctx ~n_harm:3 ~omega0:(Float.succ 1.5)) t 0.2);
  check_int "another omega0 misses" 3 !compiles

(* Plans of dimension above 161 (n_harm 80) are not kept: a second
   query at n_harm 81 compiles again, one at n_harm 80 does not *)
let test_memo_dimension_cap () =
  let compiles, t = counting_tree () in
  let twice n_harm =
    let c = Htm.ctx ~n_harm ~omega0:1.5 in
    for _ = 1 to 2 do
      ignore (Htm.baseband c t 0.3)
    done
  in
  twice 80;
  check_int "n_harm 80: one plan" 1 !compiles;
  twice 81;
  check_int "n_harm 81: a plan per query" 3 !compiles

(* A query that fell back drops its plan: a constant poisoned when the
   plan was made (smat-nan fires in [Plan.make]'s realization of the
   periodic gain times the sampler) would send every later point to
   the dense oracle, and a root poisoned at one point (grid-plan-nan)
   is dropped too. With injection disarmed, the next query compiles
   afresh and equals a fresh plan, with no further fallback. *)
let test_memo_drops_fallen_back =
  clean (fun () ->
      let c = Htm.ctx ~n_harm:4 ~omega0:2.0 in
      let g = Prng.create ~seed:0xD40DL in
      let coeffs = [| Cx.make 0.1 0.05; Cx.make 0.3 0.0; Cx.make 0.2 (-0.1) |] in
      let t =
        Htm.feedback
          (Htm.series (gen_lti_rat g) (Htm.series (Htm.periodic_gain coeffs) Htm.sampler))
      in
      let s = Cx.make 0.05 0.8 and s' = Cx.jomega 1.1 in
      List.iter
        (fun spec ->
          Robust.Stats.reset ();
          Robust.Inject.configure spec;
          let first = Htm.to_matrix c t s in
          Robust.Inject.disarm ();
          let fallbacks () = (Robust.Stats.snapshot ()).Robust.Stats.dense_fallbacks in
          check_int (spec ^ ": the first query fell back") 1 (fallbacks ());
          if not (Cmat.equal ~tol:1e-9 (Htm.to_matrix_dense c t s) first) then
            Alcotest.failf "%s: the fallback is not the oracle" spec;
          check_bits (spec ^ ": next element = fresh plan")
            (Plan.element (Plan.make c t) ~n:1 ~m:0 s')
            (Htm.element c t ~n:1 ~m:0 s');
          check_mat_bits (spec ^ ": next to_matrix = fresh plan")
            (Plan.to_cmat (Plan.make c t) s) (Htm.to_matrix c t s);
          check_int (spec ^ ": no fallback after it") 1 (fallbacks ()))
        [ "smat-nan:1"; "grid-plan-nan:1" ])

(* A strict-mode refusal raises out of the query with the plan taken:
   the plan is dropped, the memo keeps serving, and the next query
   compiles once and equals a fresh plan *)
let test_memo_strict_raise =
  clean (fun () ->
      let compiles, t = counting_tree () in
      let c = Htm.ctx ~n_harm:3 ~omega0:2.0 in
      let s = Cx.jomega 0.9 in
      ignore (Htm.baseband c t 0.9);
      check_int "primed" 1 !compiles;
      Robust.Inject.configure "grid-plan-nan:1";
      Robust.Config.set_strict true;
      (match Htm.element c t ~n:0 ~m:0 s with
      | exception E.Error (E.Non_finite _) -> ()
      | exception e -> Alcotest.failf "expected typed Non_finite, got %s" (Printexc.to_string e)
      | _ -> Alcotest.fail "strict mode accepted an injected NaN");
      Robust.Config.set_strict false;
      Robust.Inject.disarm ();
      check_int "the refusal compiled nothing" 1 !compiles;
      let h00 = Htm.baseband c t 0.9 in
      check_int "the refused plan was dropped" 2 !compiles;
      let h10 = Htm.element c t ~n:1 ~m:0 s in
      check_int "the new one is held" 2 !compiles;
      let fresh = Plan.make c t in
      check_bits "after the raise = fresh plan" (Plan.baseband fresh s) h00;
      check_bits "held plan = fresh plan" (Plan.element fresh ~n:1 ~m:0 s) h10)

(* Two systhreads (which share the main domain's memo) and a sweep on
   two domains (each lane with its domain's memo) query one (ctx,
   tree) at once; every answer is a fresh plan's *)
let test_memo_threads_and_lanes () =
  let p = mixing_loop ~isf:true in
  let w0 = Pll_lib.Pll.omega0 p in
  let c = Htm.ctx ~n_harm:8 ~omega0:w0 in
  let t = Pll_lib.Pll.closed_loop_htm p in
  let ws = Optimize.logspace (w0 *. 1e-3) (w0 *. 0.49) 48 in
  let h00 = Array.map (fun w -> Plan.baseband (Plan.make c t) (Cx.jomega w)) ws in
  let tone = Array.map (fun w -> Plan.column (Plan.make c t) ~m:1 (Cx.jomega w)) ws in
  let bad = Atomic.make 0 in
  let same a b =
    bits_equal (Cx.re a) (Cx.re b) && bits_equal (Cx.im a) (Cx.im b)
  in
  let hammer () =
    for _ = 1 to 30 do
      Array.iteri
        (fun i w ->
          if not (same h00.(i) (Htm.baseband c t w)) then Atomic.incr bad;
          let v = Htm.apply_to_tone c t ~m:1 w in
          for r = 0 to Cvec.dim v - 1 do
            if not (same (Cvec.get tone.(i) r) (Cvec.get v r)) then Atomic.incr bad
          done)
        ws;
      Thread.yield ()
    done
  in
  let threads = List.init 2 (fun _ -> Thread.create hammer ()) in
  let idx = Array.init (Array.length ws) Fun.id in
  Pool.with_pool ~domains:2 (fun pool ->
      for _ = 1 to 30 do
        let got = Sweep.grid ~pool ~chunk:4 (fun i -> Htm.baseband c t ws.(i)) idx in
        Array.iteri (fun i v -> if not (same h00.(i) v) then Atomic.incr bad) got
      done);
  List.iter Thread.join threads;
  check_int "answers off a fresh plan's bits" 0 (Atomic.get bad)

(* A loop closed around a banded open loop allocates its n×n dense
   result and LU factors at the first query that needs them: the plan
   and its entry queries cost O(n·k) storage (a mixing loop at n_harm
   200: ~0.17 MB, against 5.3 MB when both were made up front), a
   column query then adds the n×n storage, and the entry it answers
   next has the bits it had before *)
let test_mixing_plan_defers_dense () =
  let p = mixing_loop ~isf:false in
  let w0 = Pll_lib.Pll.omega0 p in
  let c = Htm.ctx ~n_harm:200 ~omega0:w0 in
  let s = Cx.jomega (0.2 *. w0) in
  let bytes f =
    Gc.minor ();
    let b0 = Gc.allocated_bytes () in
    let r = f () in
    Gc.minor ();
    (r, Gc.allocated_bytes () -. b0)
  in
  let (plan, h00), small =
    bytes (fun () ->
        let plan = Pll_lib.Pll.closed_loop_plan c p in
        let h00 = ref Cx.zero in
        for _ = 1 to 10 do
          h00 := Plan.baseband plan s
        done;
        (plan, !h00))
  in
  let n = Htm.dim c in
  let nn = float_of_int (16 * n * n) in
  check_true (Printf.sprintf "plan + 10 entries: %.0f B < n² floats" small) (small < nn);
  let col, big = bytes (fun () -> Plan.column plan ~m:0 s) in
  check_true (Printf.sprintf "a column adds the n×n storage: %.0f B" big) (big >= 2.0 *. nn);
  check_rel "baseband = column entry" (Cvec.get col (Htm.index_of_harmonic c 0)) h00;
  check_bits "baseband after the column" h00 (Plan.baseband plan s)

(* ------------------------------------------------------------------ *)
(* the demanded part of the dense oracle                               *)

(* equal bits, a NaN matching a NaN (every NaN here is made by an
   invalid operation, so it has the default NaN's bits anyway) *)
let check_same_bits msg a b =
  let same x y = bits_equal x y || (Float.is_nan x && Float.is_nan y) in
  if not (same (Cx.re a) (Cx.re b) && same (Cx.im a) (Cx.im b)) then
    Alcotest.failf "%s: not bit-identical (%s vs %s)" msg (Cx.to_string a)
      (Cx.to_string b)

(* every row of [Htm_expr.row_dense] against the same row of the
   oracle; an exactly singular loop raises in both *)
let check_oracle_rows ?(check = check_bits) what c t s =
  match Htm.to_matrix_dense c t s with
  | exception Lu.Singular -> false
  | dense ->
      for i = 0 to Htm.dim c - 1 do
        let r = Htm_core.Htm_expr.row_dense c t s i in
        for k = 0 to Htm.dim c - 1 do
          check (Printf.sprintf "%s: row %d column %d" what i k) (Cmat.get dense i k)
            (Cvec.get r k)
        done
      done;
      true

(* Row demand of the oracle over the randomized trees (every node kind,
   nested on both sides of a product, feedback and custom blocks
   inside), plus fixed trees that put each kind of node on each side of
   a left-associated chain. *)
let test_row_dense_bits () =
  let g = Prng.create ~seed:0x20D5L in
  let checked = ref 0 in
  for trial = 1 to 150 do
    let n_harm = 1 + rint g 4 in
    let c = Htm.ctx ~n_harm ~omega0:(Prng.uniform g ~lo:1.0 ~hi:3.0) in
    let t = gen_expr g (3 + rint g 2) in
    for point = 1 to 2 do
      if check_oracle_rows (Printf.sprintf "trial %d point %d" trial point) c t (gen_s g)
      then incr checked
    done
  done;
  check_true "almost all trials checked" (!checked >= 280);
  let c = Htm.ctx ~n_harm:3 ~omega0:1.7 in
  let fb t = Htm.feedback (Htm.scale (Cx.of_float 0.1) t) in
  let leaves =
    [ gen_lti g; gen_lti_rat g; gen_periodic g; Htm.sampler; Htm.identity; Htm.zero;
      gen_custom g; fb (gen_lti_rat g);
      Htm.scale (gen_cx_with g 0.7) (gen_periodic g);
      Htm.parallel (gen_lti g) Htm.sampler; Htm.sub (gen_periodic g) (gen_lti_rat g);
      Htm.series (gen_periodic g) (gen_lti g) ]
  in
  List.iteri
    (fun a left ->
      List.iteri
        (fun b right ->
          let t = Htm.series_list [ left; right; gen_periodic g; left ] in
          ignore (check_oracle_rows (Printf.sprintf "chain %d·%d" a b) c t (gen_s g)))
        leaves)
    leaves

(* A leaf with an infinite entry on one harmonic: a non-finite left
   entry turns the zeros of the right factor into NaNs, and a zero left
   entry must not meet the infinity at all. *)
let test_row_dense_non_finite () =
  let c = Htm.ctx ~n_harm:3 ~omega0:1.0 in
  let s = Cx.jomega 0.25 in
  let spike m0 =
    Htm.lti (fun z ->
        if Float.abs (Cx.im z -. (0.25 +. float_of_int m0)) < 1e-9 then
          Cx.make Float.infinity 0.5
        else Cx.div Cx.one (Cx.add z (Cx.of_float 2.0)))
  in
  let g = Prng.create ~seed:0x5B1CL in
  List.iteri
    (fun j t ->
      ignore
        (check_oracle_rows ~check:check_same_bits (Printf.sprintf "tree %d" j) c t s))
    [
      Htm.series (spike 1) (gen_periodic g);
      Htm.series (spike (-2)) Htm.sampler;
      Htm.series_list [ gen_lti_rat g; Htm.identity; spike 0 ];
      Htm.series_list [ gen_periodic g; spike 2; gen_lti g ];
      Htm.series_list [ spike 1; gen_periodic g; Htm.zero ];
      Htm.series (gen_custom g) (spike (-1));
      Htm.parallel (Htm.series (spike 0) (gen_periodic g)) Htm.sampler;
    ]

(* Under grid-plan-nan:1 every query kind of every loop class falls
   back once and reads the full oracle's bits: the open loop over
   1 + λ(s) behind a sampling PFD with the λ override, the closed
   loop's tree otherwise. *)
let test_fallback_demand_bits =
  clean (fun () ->
      let loops =
        [
          ("ti", pll_of spec_default, true);
          ("isf", isf_loop (), true);
          ("isf, no λ", isf_loop (), false);
          ("mix", mixing_loop ~isf:false, true);
        ]
      in
      List.iter
        (fun (what, p, planner) ->
          let w0 = Pll_lib.Pll.omega0 p in
          List.iter
            (fun n_harm ->
              let c = Htm.ctx ~n_harm ~omega0:w0 in
              let s = Cx.jomega (0.17 *. w0) in
              let plan, oracle =
                match p.Pll_lib.Pll.pfd with
                | Pll_lib.Pfd.Sampling when planner ->
                    ( Pll_lib.Pll.closed_loop_plan c p,
                      Cmat.scale
                        (Cx.inv (Cx.add Cx.one (Pll_lib.Pll.lambda p s)))
                        (Htm.to_matrix_dense c (Pll_lib.Pll.open_loop_htm p) s) )
                | _ ->
                    let t = Pll_lib.Pll.closed_loop_htm p in
                    (Plan.make c t, Htm.to_matrix_dense c t s)
              in
              let what = Printf.sprintf "%s n_harm %d" what n_harm in
              let idx = Htm.index_of_harmonic c in
              let faulted f =
                Robust.Stats.reset ();
                Robust.Inject.configure "grid-plan-nan:1";
                let r = Fun.protect ~finally:Robust.Inject.disarm f in
                check_int (what ^ ": one dense fallback") 1
                  (Robust.Stats.snapshot ()).Robust.Stats.dense_fallbacks;
                r
              in
              List.iter
                (fun (n, m) ->
                  check_bits
                    (Printf.sprintf "%s: element (%d, %d)" what n m)
                    (Cmat.get oracle (idx n) (idx m))
                    (faulted (fun () -> Plan.element plan ~n ~m s)))
                [ (1, 0); (-2, 1); (n_harm, -n_harm); (0, 2) ];
              check_bits (what ^ ": baseband")
                (Cmat.get oracle (idx 0) (idx 0))
                (faulted (fun () -> Plan.baseband plan s));
              List.iter
                (fun h ->
                  let r = faulted (fun () -> Plan.row plan ~n:h s) in
                  let col = faulted (fun () -> Plan.column plan ~m:h s) in
                  for k = 0 to Htm.dim c - 1 do
                    check_bits
                      (Printf.sprintf "%s: row %d, column %d" what h k)
                      (Cmat.get oracle (idx h) k) (Cvec.get r k);
                    check_bits
                      (Printf.sprintf "%s: column %d, row %d" what h k)
                      (Cmat.get oracle k (idx h)) (Cvec.get col k)
                  done)
                [ 0; -1 ];
              let full = faulted (fun () -> Plan.to_cmat plan s) in
              for i = 0 to Htm.dim c - 1 do
                for k = 0 to Htm.dim c - 1 do
                  check_bits
                    (Printf.sprintf "%s: to_cmat (%d, %d)" what i k)
                    (Cmat.get oracle i k) (Cmat.get full i k)
                done
              done)
            [ 8; 20; 40 ])
        loops)

(* One fallback point of an ISF loop at n_harm 80 reads one row of its
   open loop: far below the 2.0M words of the whole n×n oracle. *)
let test_fallback_alloc_bound =
  clean (fun () ->
      let p = isf_loop () in
      let w0 = Pll_lib.Pll.omega0 p in
      let plan = Pll_lib.Pll.closed_loop_plan (Htm.ctx ~n_harm:80 ~omega0:w0) p in
      let s = Cx.jomega (0.21 *. w0) in
      ignore (Plan.baseband plan s);
      Robust.Stats.reset ();
      Robust.Inject.configure "grid-plan-nan:1";
      let w_before = Gc.minor_words () in
      ignore (Plan.baseband plan s);
      let words = Gc.minor_words () -. w_before in
      Robust.Inject.disarm ();
      check_int "one dense fallback" 1
        (Robust.Stats.snapshot ()).Robust.Stats.dense_fallbacks;
      check_true
        (Printf.sprintf "%.0f words for the fallback point, under 50k" words)
        (words < 50_000.0))

let suite =
  [
    case "randomized planned = per-point = dense (1e-12)"
      test_randomized_plan_vs_oracle;
    case "custom block of the wrong size rejected"
      test_custom_wrong_size_rejected;
    case "plan reuse over grids is bit-identical" test_plan_reuse_bit_identical;
    case "planned sweeps pool-size independent (1 vs 4 domains)"
      test_pool_size_bit_identical;
    case "Rat.eval_into bit-identical to Rat.eval" test_rat_split_bit_identical;
    case "grid-plan-nan degrades to the dense oracle"
      test_injected_nan_falls_back;
    case "grid-plan-nan refused under strict mode"
      test_injected_nan_strict_refuses;
    case "64-point planned grid vs snapshot (n=20)" test_planned_grid_golden;
    case "exact-λ plan h00 = closed form" test_exact_lambda_matches_closed_form;
    case "HTM-native metrics = closed-form metrics"
      test_metrics_htm_matches_closed_form;
    case "HTM-native noise folding = reference folding"
      test_noise_htm_matches_folded;
    case "mixing-PFD loops (band 1, band 3) = dense oracle"
      test_mixing_loops_match_oracle;
    case "grid-plan-nan in column mode degrades to the oracle"
      test_injected_nan_column_mode;
    case "mixing-PFD baseband allocation budget (n_harm 20, 80)"
      test_mixing_alloc_budget;
    case "row demand: entries and rows = full evaluation, bit for bit"
      test_row_demand_roots;
    case "noise fold through Plan.row = full evaluation, bit for bit"
      test_noise_row_demand;
    case "exact-λ baseband allocation flat in n_harm (ti, isf)"
      test_exact_lambda_alloc_flat;
    case "exact ISF plan = closed-form elements (1e-12)"
      test_isf_plan_matches_closed_form;
    case "exact ISF metrics flat in n_harm (8 vs 80) = closed form"
      test_isf_metrics_flat_in_n_harm;
    case "ISF below n_harm = K keeps the truncated plan"
      test_isf_below_k_keeps_truncated;
    case "exact-λ fallback = clean grid (ti, isf)" test_exact_lambda_fallback;
    case "exact-λ fallback refused under strict mode"
      test_exact_lambda_strict_refuses;
    case "fallback without λ = dense oracle, bit for bit"
      test_plain_fallback_unchanged;
    case "exact ISF H00 and metrics vs snapshot (n=20)" test_isf_golden;
    case "non-finite constant rank-one v: fallback counted, strict refuses"
      test_const_v_nan_falls_back;
    case "banded LU loop reusing its factor storage = fresh plan, bit for bit"
      test_banded_lu_reuse_bit_identical;
    case "mixing-PFD entries by two-sided elimination = banded LU (1e-12)"
      (clean test_twisted_matches_lu);
    case "mixing-PFD baseband at n_harm 8..80 = n_harm 200 (1e-12)"
      test_mixing_truncation_converged;
    case "memo: interleaved queries over 12 pairs = fresh plans, bit for bit"
      test_memo_interleaved_bits;
    case "memo: the last 8 (ctx, tree) pairs per domain" test_memo_lru_of_eight;
    case "memo: plans above dimension 161 are not kept" test_memo_dimension_cap;
    case "memo: a fallen-back plan is dropped (smat-nan, grid-plan-nan)"
      test_memo_drops_fallen_back;
    case "memo: a strict-mode raise leaves it usable" test_memo_strict_raise;
    case "memo: two systhreads + two sweep lanes = fresh plans"
      test_memo_threads_and_lanes;
    case "mixing plan defers its n×n storage to the first column"
      test_mixing_plan_defers_dense;
    case "oracle row demand = oracle rows, bit for bit" test_row_dense_bits;
    case "oracle row demand with non-finite leaves = oracle rows"
      test_row_dense_non_finite;
    case "fallback at every demand = full oracle, bit for bit (ti, isf, mix)"
      test_fallback_demand_bits;
    case "one ISF fallback at n_harm 80 under 50k words"
      test_fallback_alloc_bound;
  ]
