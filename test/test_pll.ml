open Numeric
open Helpers
module Pll = Pll_lib.Pll
module Htm = Htm_core.Htm

let pll = pll_of spec_default
let w0 = Pll.omega0 pll

let test_basics () =
  check_close "omega0" (2.0 *. Float.pi *. 1e6) w0;
  check_close "period" 1e-6 (Pll.period pll);
  Alcotest.check_raises "bad fref"
    (Invalid_argument "Pll.make: fref must be positive") (fun () ->
      ignore
        (Pll.make ~fref:0.0 ~n_div:1.0 ~filter:pll.Pll.filter ~vco:pll.Pll.vco ()))

let test_open_loop_formula () =
  (* eq. 35: A(s) = (w0/2pi) (v0/s) H_LF(s) *)
  let s = Cx.jomega (0.27 *. w0) in
  let expected =
    Cx.mul
      (Cx.of_float (w0 /. (2.0 *. Float.pi) *. pll.Pll.vco.Pll_lib.Vco.v0))
      (Cx.mul (Cx.inv s) (Lti.Tf.eval (Pll_lib.Loop_filter.tf pll.Pll.filter) s))
  in
  check_cx ~tol:1e-10 "A(s) assembly" expected (Pll.a_of_s pll s)

let test_open_loop_shape () =
  (* Fig. 5 shape: 3 poles (2 at dc) and one zero *)
  let a = Pll.open_loop_tf pll in
  let poles = Lti.Tf.poles a in
  check_int "three poles" 3 (List.length poles);
  check_int "two at dc" 2
    (List.length (List.filter (fun p -> Cx.abs p < 1e-3 *. w0) poles));
  check_int "one zero" 1 (List.length (Lti.Tf.zeros a));
  check_true "strictly proper"
    (Rat.is_strictly_proper (Lti.Tf.to_rat a))

let test_lambda_methods_agree () =
  let exact = Pll.lambda_fn pll Pll.Exact in
  let trunc = Pll.lambda_fn pll (Pll.Truncated 4000) in
  List.iter
    (fun frac ->
      let s = Cx.jomega (frac *. w0) in
      check_cx ~tol:1e-4 "exact vs truncated" (exact s) (trunc s))
    [ 0.07; 0.21; 0.33; 0.46 ]

let test_lambda_matrix_agrees () =
  let exact = Pll.lambda_fn pll Pll.Exact in
  let ctx = Htm.ctx ~n_harm:400 ~omega0:w0 in
  let s = Cx.jomega (0.31 *. w0) in
  check_cx ~tol:2e-3 "eq. 37 via matrix entries" (exact s)
    (Pll.lambda_matrix ctx pll s)

let test_lambda_periodicity () =
  (* lambda(s + j w0) = lambda(s) *)
  let lam = Pll.lambda_fn pll Pll.Exact in
  let s = Cx.jomega (0.23 *. w0) in
  check_cx ~tol:1e-9 "periodic along jw" (lam s) (lam (Cx.add s (Cx.jomega w0)))

let test_lambda_reduces_to_a_for_slow_loop () =
  (* for w_UG << w0, lambda(jw) ~ A(jw) near crossover — the regime
     where classical LTI analysis is valid *)
  let slow = pll_of spec_slow in
  let w_ug = Pll_lib.Design.omega_ug spec_slow in
  let s = Cx.jomega w_ug in
  let a = Pll.a_of_s slow s in
  let lam = Pll.lambda slow s in
  check_cx ~tol:0.05 "lambda ~ A for slow loops" a lam

let test_h00_formula () =
  (* eq. 38: H00 = A / (1 + lambda) *)
  let s = Cx.jomega (0.17 *. w0) in
  let lam = Pll.lambda pll s in
  check_cx "h00 assembly"
    (Cx.div (Pll.a_of_s pll s) (Cx.add Cx.one lam))
    (Pll.h00 pll s)

let test_h00_tracks_at_dc () =
  (* type-2 loop: |H00| -> 1 at low frequency *)
  let h = Pll.h00 pll (Cx.jomega (1e-4 *. w0)) in
  check_close ~tol:1e-3 "unity tracking" 1.0 (Cx.abs h)

let test_h00_lti () =
  let s = Cx.jomega (0.1 *. w0) in
  let a = Pll.a_of_s pll s in
  check_cx "A/(1+A)" (Cx.div a (Cx.add Cx.one a)) (Pll.h00_lti pll s)

let test_htm_element () =
  (* eq. 36: H_{n,m} = A(s + j n w0)/(1 + lambda(s)), independent of m *)
  let s = Cx.jomega (0.12 *. w0) in
  let lam = Pll.lambda pll s in
  let el1 = Pll.htm_element_fn pll Pll.Exact ~n:1 in
  check_cx "shifted numerator"
    (Cx.div (Pll.a_of_s pll (Cx.add s (Cx.jomega w0))) (Cx.add Cx.one lam))
    (el1 s);
  let el0 = Pll.htm_element_fn pll Pll.Exact ~n:0 in
  check_cx "n=0 is h00" (Pll.h00 pll s) (el0 s)

let test_rank_one_vs_generic () =
  (* the Sherman-Morrison closed form (eq. 34) must agree with the
     truncated LU closed loop (eq. 28) *)
  let ctx = Htm.ctx ~n_harm:25 ~omega0:w0 in
  let s = Cx.jomega (0.19 *. w0) in
  let rank_one = Pll.closed_loop_rank_one ctx pll s in
  let generic = Htm.to_matrix ctx (Pll.closed_loop_htm pll) s in
  (* compare central elements (truncation edges differ slightly) *)
  let c = Htm.index_of_harmonic ctx 0 in
  for dn = -2 to 2 do
    for dm = -2 to 2 do
      check_cx ~tol:2e-3 "rank-one vs LU"
        (Cmat.get generic (c + dn) (c + dm))
        (Cmat.get rank_one (c + dn) (c + dm))
    done
  done

let test_rank_one_columns_equal () =
  (* H = V l^T / (1+lambda): all columns identical *)
  let ctx = Htm.ctx ~n_harm:6 ~omega0:w0 in
  let m = Pll.closed_loop_rank_one ctx pll (Cx.jomega (0.22 *. w0)) in
  let c0 = Cmat.col m 0 in
  for k = 1 to Cmat.cols m - 1 do
    let ck = Cmat.col m k in
    for i = 0 to Cmat.rows m - 1 do
      check_cx "columns equal" (Cvec.get c0 i) (Cvec.get ck i)
    done
  done

let test_rank_one_matches_closed_form_elements () =
  (* the truncated Sherman-Morrison matrix should reproduce eq. 36 *)
  let ctx = Htm.ctx ~n_harm:200 ~omega0:w0 in
  let s = Cx.jomega (0.25 *. w0) in
  let m = Pll.closed_loop_rank_one ctx pll s in
  let el n = Pll.htm_element_fn pll Pll.Exact ~n s in
  let c = Htm.index_of_harmonic ctx 0 in
  for n = -2 to 2 do
    check_cx ~tol:2e-3 "matrix vs analytic element" (el n)
      (Cmat.get m (c + n) c)
  done

let test_v_tilde () =
  (* eq. 29/30: G = V l^T; so lambda = sum of V entries *)
  let ctx = Htm.ctx ~n_harm:50 ~omega0:w0 in
  let s = Cx.jomega (0.3 *. w0) in
  let v = Pll.v_tilde ctx pll s in
  check_int "dimension" (Htm.dim ctx) (Cvec.dim v);
  check_cx "lambda = l^T V" (Pll.lambda_matrix ctx pll s) (Cvec.sum v);
  (* for a time-invariant VCO, V_n = A(s + j n w0) *)
  let c = Htm.index_of_harmonic ctx 0 in
  for n = -2 to 2 do
    check_cx ~tol:1e-9 "V_n = A(s + jnw0)"
      (Pll.a_of_s pll (Cx.add s (Cx.jomega (float_of_int n *. w0))))
      (Cvec.get v (c + n))
  done

(* Ṽ read from the forward chain's band has the bits of the row sums of
   the chain's dense realization (Cmat.mv against the ones vector), and
   of the dense oracle's after a fallback *)
let test_v_tilde_band_bits () =
  let bits a b =
    Int64.equal (Int64.bits_of_float (Cx.re a)) (Int64.bits_of_float (Cx.re b))
    && Int64.equal (Int64.bits_of_float (Cx.im a)) (Int64.bits_of_float (Cx.im b))
  in
  let isf harmonics =
    Pll.make ~fref:1e6 ~n_div:64.0 ~filter:pll.Pll.filter
      ~vco:(Pll_lib.Vco.with_isf ~kvco:20e6 ~n_div:64.0 ~fref:1e6 ~harmonics)
      ()
  in
  let row_sums ctx p m =
    Cvec.scale
      (Cx.of_float (Pll.omega0 p /. (2.0 *. Float.pi)))
      (Cmat.mv m (Cvec.ones (Htm.dim ctx)))
  in
  List.iter
    (fun (what, p) ->
      let w0 = Pll.omega0 p in
      let chain =
        Htm.series (Pll_lib.Vco.htm p.Pll.vco)
          (Htm.lti_rat (Lti.Tf.to_rat (Pll_lib.Loop_filter.tf p.Pll.filter)))
      in
      List.iter
        (fun n_harm ->
          let ctx = Htm.ctx ~n_harm ~omega0:w0 in
          List.iter
            (fun s ->
              let check label expected got =
                for i = 0 to Htm.dim ctx - 1 do
                  if not (bits (Cvec.get expected i) (Cvec.get got i)) then
                    Alcotest.failf "%s n_harm %d %s: entry %d %s vs %s" what n_harm label
                      i (Cx.to_string (Cvec.get expected i))
                      (Cx.to_string (Cvec.get got i))
                done
              in
              check "clean"
                (row_sums ctx p (Htm.to_matrix ctx chain s))
                (Pll.v_tilde ctx p s);
              Robust.Inject.configure "grid-plan-nan:1";
              let got =
                Fun.protect ~finally:Robust.Inject.disarm (fun () -> Pll.v_tilde ctx p s)
              in
              check "fallback" (row_sums ctx p (Htm.to_matrix_dense ctx chain s)) got)
            [ Cx.jomega (0.3 *. w0); Cx.make (-0.02 *. w0) (0.11 *. w0); Cx.of_float (0.05 *. w0) ])
        [ 0; 1; 3; 20 ])
    [
      ("ti", pll);
      ("isf K=1", isf [ Cx.of_float 0.2 ]);
      ("isf K=2", isf [ Cx.of_float 0.3; Cx.make 0.05 (-0.04) ]);
    ];
  Robust.Stats.reset ()

let test_mixing_pfd_rejected_in_rank_one () =
  let p =
    Pll.make ~fref:1e6 ~n_div:64.0 ~filter:pll.Pll.filter ~vco:pll.Pll.vco
      ~pfd:(Pll_lib.Pfd.mixing ~gain:1.0) ()
  in
  let ctx = Htm.ctx ~n_harm:4 ~omega0:w0 in
  Alcotest.check_raises "mixing rejected"
    (Invalid_argument "Pll.v_tilde: rank-one form requires a sampling PFD")
    (fun () -> ignore (Pll.v_tilde ctx p Cx.one))

let test_time_varying_vco_closed_loop () =
  (* with ISF harmonics, the rank-one machinery still matches the LU
     closed loop *)
  let vco =
    Pll_lib.Vco.with_isf ~kvco:20e6 ~n_div:64.0 ~fref:1e6
      ~harmonics:[ Cx.of_float 0.2 ]
  in
  let p = Pll.make ~fref:1e6 ~n_div:64.0 ~filter:pll.Pll.filter ~vco () in
  let ctx = Htm.ctx ~n_harm:25 ~omega0:w0 in
  let s = Cx.jomega (0.21 *. w0) in
  let rank_one = Pll.closed_loop_rank_one ctx p s in
  let generic = Htm.to_matrix ctx (Pll.closed_loop_htm p) s in
  let c = Htm.index_of_harmonic ctx 0 in
  for dn = -1 to 1 do
    check_cx ~tol:5e-3 "tv-vco rank-one vs LU"
      (Cmat.get generic (c + dn) c)
      (Cmat.get rank_one (c + dn) c)
  done

let test_closed_loop_plus_error_is_identity () =
  (* theta + e = theta_ref: (I+G)^{-1}G + (I+G)^{-1} = I, realized on
     truncated matrices *)
  let ctx = Htm.ctx ~n_harm:10 ~omega0:w0 in
  let s = Cx.jomega (0.17 *. w0) in
  let g = Htm.to_matrix ctx (Pll.open_loop_htm pll) s in
  let i_plus_g = Cmat.add (Cmat.identity (Htm.dim ctx)) g in
  let f = Lu.decompose i_plus_g in
  let h = Lu.solve_mat f g in
  let e = Lu.solve_mat f (Cmat.identity (Htm.dim ctx)) in
  check_true "H + E = I" (Cmat.equal ~tol:1e-10 (Cmat.identity (Htm.dim ctx)) (Cmat.add h e))

let test_worst_case_gain_exceeds_baseband () =
  (* the LPTV worst-case gain accounts for band conversion: it is at
     least the baseband peaking the paper plots *)
  let ctx = Htm.ctx ~n_harm:10 ~omega0:w0 in
  let w = 0.15 *. w0 in
  let sv = Htm.max_singular_value ctx (Pll.closed_loop_htm pll) w in
  let h00 = Cx.abs (Pll.h00 pll (Cx.jomega w)) in
  check_true "sigma_max >= |H00|" (sv >= h00 -. 1e-9);
  check_true "but of the same order" (sv < 10.0 *. h00)

let prop_h00_conjugate_symmetry =
  qcheck ~count:20 "H00(-jw) = conj H00(jw)"
    (QCheck2.Gen.float_range 0.01 0.45) (fun frac ->
      let s = Cx.jomega (frac *. w0) in
      Cx.approx ~tol:1e-8
        (Pll.h00 pll (Cx.neg s))
        (Cx.conj (Pll.h00 pll s)))

(* ------------------------------------------------------------------ *)
(* exact λ behind an ISF VCO                                           *)

let isf_pll harmonics =
  let spec = spec_default in
  let vco =
    Pll_lib.Vco.with_isf ~kvco:spec.Pll_lib.Design.kvco
      ~n_div:spec.Pll_lib.Design.n_div ~fref:spec.Pll_lib.Design.fref
      ~harmonics
  in
  Pll.make ~fref:spec.Pll_lib.Design.fref ~n_div:spec.Pll_lib.Design.n_div
    ~filter:pll.Pll.filter ~vco ()

let isf2 = isf_pll [ Cx.of_float 0.3; Cx.make 0.05 (-0.04) ]

let same_bits a b =
  Int64.equal (Int64.bits_of_float (Cx.re a)) (Int64.bits_of_float (Cx.re b))
  && Int64.equal (Int64.bits_of_float (Cx.im a)) (Int64.bits_of_float (Cx.im b))

let test_isf_k0_is_ti () =
  (* an ISF with no harmonics is the time-invariant VCO: same λ, bit
     for bit *)
  let k0 = isf_pll [] in
  let ti = Pll.lambda_fn pll Pll.Exact and isf = Pll.lambda_fn k0 Pll.Exact in
  List.iter
    (fun frac ->
      let s = Cx.jomega (frac *. w0) in
      check_true (Printf.sprintf "K = 0 λ at %g·ω₀" frac) (same_bits (ti s) (isf s)))
    [ 1e-3; 0.11; 0.37; 0.49 ]

(* λ of the truncated matrix at [n_harm], summed from the structured
   open loop (u·lᵀ: the sum of column 0 is lᵀu) — the same truncated
   sum as [Pll.lambda_matrix] without its dense dim² matrix *)
let lambda_truncated n_harm p s =
  let ctx = Htm.ctx ~n_harm ~omega0:w0 in
  let plan = Htm_core.Plan.make ctx (Pll.open_loop_htm p) in
  Cvec.sum (Htm_core.Plan.column plan ~m:0 s)

let test_isf_lambda_tail () =
  let exact = Pll.lambda_fn isf2 Pll.Exact in
  let s = Cx.jomega (0.23 *. w0) in
  check_cx ~tol:1e-12 "structured truncated λ = lambda_matrix"
    (Pll.lambda_matrix (Htm.ctx ~n_harm:20 ~omega0:w0) isf2 s)
    (lambda_truncated 20 isf2 s);
  (* the truncated λ converges to the closed form as 1/n_harm, with no
     constant offset: n·gap is the same at n_harm 320 and 1280 *)
  List.iter
    (fun frac ->
      let s = Cx.jomega (frac *. w0) in
      let e = exact s in
      let tail n =
        float_of_int n *. Cx.abs (Cx.sub e (lambda_truncated n isf2 s)) /. Cx.abs e
      in
      let t320 = tail 320 and t1280 = tail 1280 in
      check_true
        (Printf.sprintf "n·gap at %g·ω₀: %.5f (320) vs %.5f (1280)" frac t320 t1280)
        (Float.abs (t320 -. t1280) <= 0.01 *. t1280))
    [ 0.11; 0.37 ]

let test_isf_lambda_truncated_method () =
  (* Truncated sums rows -T..T of the full ISF column: it approaches
     the closed form as T grows *)
  let exact = Pll.lambda_fn isf2 Pll.Exact in
  let trunc = Pll.lambda_fn isf2 (Pll.Truncated 4000) in
  List.iter
    (fun frac ->
      let s = Cx.jomega (frac *. w0) in
      check_cx ~tol:1e-4 "ISF exact vs truncated" (exact s) (trunc s))
    [ 0.07; 0.33 ]

let test_isf_elements () =
  (* H_{n,m} = u_n/(1 + λ): the large-truncation rank-one matrix
     converges to it, and H₀₀ is the n = 0 element *)
  let ctx = Htm.ctx ~n_harm:200 ~omega0:w0 in
  let s = Cx.jomega (0.25 *. w0) in
  let m = Pll.closed_loop_rank_one ctx isf2 s in
  let c = Htm.index_of_harmonic ctx 0 in
  for n = -2 to 2 do
    check_cx ~tol:5e-3 "ISF matrix vs analytic element"
      (Pll.htm_element_fn isf2 Pll.Exact ~n s)
      (Cmat.get m (c + n) c)
  done;
  check_true "h00 = element (0, 0)"
    (same_bits (Pll.h00 isf2 s) (Pll.htm_element_fn isf2 Pll.Exact ~n:0 s));
  check_true "ISF h00 differs from the time-invariant h00"
    (Cx.abs (Cx.sub (Pll.h00 isf2 s) (Pll.h00 pll s)) > 1e-3 *. Cx.abs (Pll.h00 pll s))

let test_isf_effective_report () =
  (* the effective margins read the ISF loop's own λ, not the
     time-invariant one of the same design *)
  let isf = Pll_lib.Analysis.effective_report isf2 in
  let ti =
    Pll_lib.Analysis.effective_report
      { isf2 with Pll.vco = { isf2.Pll.vco with Pll_lib.Vco.harmonics = None } }
  in
  match (isf.Pll_lib.Analysis.phase_margin_deg, ti.Pll_lib.Analysis.phase_margin_deg) with
  | Some a, Some b ->
      check_true (Printf.sprintf "PM %.4f° (ISF) vs %.4f° (ti)" a b)
        (Float.abs (a -. b) > 1e-3)
  | _ -> Alcotest.fail "phase margins missing"

let suite =
  [
    case "basics" test_basics;
    case "open loop assembly (eq. 35)" test_open_loop_formula;
    case "open loop shape (Fig. 5)" test_open_loop_shape;
    case "lambda: exact vs truncated" test_lambda_methods_agree;
    case "lambda: matrix route (eq. 37)" test_lambda_matrix_agrees;
    case "lambda periodicity" test_lambda_periodicity;
    case "lambda -> A for slow loops" test_lambda_reduces_to_a_for_slow_loop;
    case "H00 (eq. 38)" test_h00_formula;
    case "H00 tracks at dc" test_h00_tracks_at_dc;
    case "LTI H00" test_h00_lti;
    case "HTM elements (eq. 36)" test_htm_element;
    case "rank-one vs generic LU (eq. 34 vs 28)" test_rank_one_vs_generic;
    case "rank-one columns equal" test_rank_one_columns_equal;
    case "rank-one vs analytic elements" test_rank_one_matches_closed_form_elements;
    case "V-tilde structure (eq. 29)" test_v_tilde;
    case "mixing PFD rejected in rank-one path" test_mixing_pfd_rejected_in_rank_one;
    case "time-varying VCO closed loop" test_time_varying_vco_closed_loop;
    case "closed loop + error transfer = identity" test_closed_loop_plus_error_is_identity;
    case "worst-case LPTV gain" test_worst_case_gain_exceeds_baseband;
    case "ISF with K = 0: λ = time-invariant λ, bit for bit" test_isf_k0_is_ti;
    case "ISF exact λ: truncated matrix tail ~ 1/n_harm" test_isf_lambda_tail;
    case "ISF λ: exact vs truncated method" test_isf_lambda_truncated_method;
    case "ISF closed-loop elements u_n/(1 + λ)" test_isf_elements;
    case "ISF effective report uses the ISF λ" test_isf_effective_report;
    prop_h00_conjugate_symmetry;
    case "V-tilde from the chain's band = dense row sums, bit for bit"
      test_v_tilde_band_bits;
  ]
