open Numeric
open Helpers
module Htm = Htm_core.Htm

let ctx3 = Htm.ctx ~n_harm:3 ~omega0:2.0
let s0 = Cx.make 0.1 0.4

let test_ctx () =
  check_int "dim" 7 (Htm.dim ctx3);
  check_int "harmonic of index" (-3) (Htm.harmonic_of_index ctx3 0);
  check_int "index of harmonic" 3 (Htm.index_of_harmonic ctx3 0);
  check_int "round trip" 2 (Htm.harmonic_of_index ctx3 (Htm.index_of_harmonic ctx3 2));
  Alcotest.check_raises "negative n_harm"
    (Invalid_argument "Htm.ctx: n_harm must be >= 0") (fun () ->
      ignore (Htm.ctx ~n_harm:(-1) ~omega0:1.0));
  Alcotest.check_raises "bad omega0"
    (Invalid_argument "Htm.ctx: omega0 must be positive") (fun () ->
      ignore (Htm.ctx ~n_harm:2 ~omega0:0.0))

let test_lti_diagonal () =
  (* eq. 12: H_{m,m}(s) = H(s + j m w0), zero off-diagonal *)
  let h = Htm.lti (fun s -> Cx.inv (Cx.add s Cx.one)) in
  let m = Htm.to_matrix ctx3 h s0 in
  for i = 0 to 6 do
    for k = 0 to 6 do
      if i = k then begin
        let shift = float_of_int (Htm.harmonic_of_index ctx3 i) *. 2.0 in
        let expected = Cx.inv (Cx.add (Cx.add s0 (Cx.jomega shift)) Cx.one) in
        check_cx "diagonal entry" expected (Cmat.get m i k)
      end
      else check_cx "off-diagonal zero" Cx.zero (Cmat.get m i k)
    done
  done;
  check_true "is_lti detects diagonal" (Htm.is_lti ctx3 h s0)

let test_periodic_gain_toeplitz () =
  (* eq. 13: H_{n,m} = P_{n-m} *)
  let coeffs = [| Cx.of_float 0.5; Cx.of_float 2.0; Cx.of_float 0.5 |] in
  let h = Htm.periodic_gain coeffs in
  let m = Htm.to_matrix ctx3 h s0 in
  for i = 0 to 6 do
    for k = 0 to 6 do
      let expected =
        match i - k with
        | 0 -> Cx.of_float 2.0
        | 1 | -1 -> Cx.of_float 0.5
        | _ -> Cx.zero
      in
      check_cx "toeplitz" expected (Cmat.get m i k)
    done
  done;
  check_true "multiplier is not LTI" (not (Htm.is_lti ctx3 h s0));
  Alcotest.check_raises "even coefficient array"
    (Invalid_argument "Htm.periodic_gain: coefficient array must have odd length")
    (fun () -> ignore (Htm.periodic_gain [| Cx.one; Cx.one |]))

let test_sampler () =
  (* eq. 19-20: every entry equals w0/2pi *)
  let m = Htm.to_matrix ctx3 Htm.sampler s0 in
  let expected = Cx.of_float (2.0 /. (2.0 *. Float.pi)) in
  for i = 0 to 6 do
    for k = 0 to 6 do
      check_cx "sampler entry" expected (Cmat.get m i k)
    done
  done

let test_identity_zero_scale () =
  check_true "identity" (Cmat.equal (Cmat.identity 7) (Htm.to_matrix ctx3 Htm.identity s0));
  check_true "zero"
    (Cmat.equal (Cmat.zeros 7 7) (Htm.to_matrix ctx3 Htm.zero s0));
  let h = Htm.scale (Cx.of_float 3.0) Htm.identity in
  check_cx "scale" (Cx.of_float 3.0) (Cmat.get (Htm.to_matrix ctx3 h s0) 2 2)

let test_composition () =
  let a = Htm.lti (fun s -> Cx.add s Cx.one) in
  let b = Htm.periodic_gain [| Cx.zero; Cx.of_float 2.0; Cx.j |] in
  let ma = Htm.to_matrix ctx3 a s0 and mb = Htm.to_matrix ctx3 b s0 in
  (* eq. 11: series = matrix product, left applied second *)
  check_true "series"
    (Cmat.equal (Cmat.mul ma mb) (Htm.to_matrix ctx3 (Htm.series a b) s0));
  (* eq. 10: parallel = sum *)
  check_true "parallel"
    (Cmat.equal (Cmat.add ma mb) (Htm.to_matrix ctx3 (Htm.parallel a b) s0));
  check_true "sub"
    (Cmat.equal (Cmat.sub ma mb) (Htm.to_matrix ctx3 (Htm.sub a b) s0));
  check_true "series_list"
    (Cmat.equal
       (Cmat.mul ma (Cmat.mul mb ma))
       (Htm.to_matrix ctx3 (Htm.series_list [ a; b; a ]) s0));
  check_true "series_list empty is identity"
    (Cmat.equal (Cmat.identity 7) (Htm.to_matrix ctx3 (Htm.series_list []) s0))

let test_feedback () =
  (* feedback of a small-gain LTI block: (I+G)^{-1} G *)
  let g = Htm.lti (fun s -> Cx.div (Cx.of_float 0.5) (Cx.add s Cx.one)) in
  let mg = Htm.to_matrix ctx3 g s0 in
  let expected =
    Lu.solve_mat (Lu.decompose (Cmat.add (Cmat.identity 7) mg)) mg
  in
  check_true "feedback = (I+G)^-1 G"
    (Cmat.equal ~tol:1e-12 expected (Htm.to_matrix ctx3 (Htm.feedback g) s0));
  (* for an LTI block, feedback must agree entrywise with the scalar
     closed loop at shifted frequencies *)
  let fb = Htm.to_matrix ctx3 (Htm.feedback g) s0 in
  for i = 0 to 6 do
    let sh = Cx.add s0 (Cx.jomega (float_of_int (Htm.harmonic_of_index ctx3 i) *. 2.0)) in
    let gv = Cx.div (Cx.of_float 0.5) (Cx.add sh Cx.one) in
    check_cx "scalar closed loop" (Cx.div gv (Cx.add Cx.one gv)) (Cmat.get fb i i)
  done

let test_element_baseband () =
  let h = Htm.periodic_gain [| Cx.of_float 0.25; Cx.one; Cx.of_float 0.75 |] in
  check_cx "element (1,0)" (Cx.of_float 0.75) (Htm.element ctx3 h ~n:1 ~m:0 s0);
  check_cx "element (0,1)" (Cx.of_float 0.25) (Htm.element ctx3 h ~n:0 ~m:1 s0);
  check_cx "baseband" Cx.one (Htm.baseband ctx3 h 0.3);
  Alcotest.check_raises "out of truncation"
    (Invalid_argument "Htm.element: harmonic outside truncation") (fun () ->
      ignore (Htm.element ctx3 h ~n:4 ~m:0 s0))

let test_apply_to_tone () =
  (* multiplier column: content entering band m leaves via P_{n-m} *)
  let coeffs = [| Cx.of_float 0.25; Cx.one; Cx.of_float 0.75 |] in
  let h = Htm.periodic_gain coeffs in
  let col = Htm.apply_to_tone ctx3 h ~m:1 0.3 in
  let expected = Htm_core.Lptv.tone_response_multiplier coeffs ~omega0:2.0 ~m:1 in
  List.iter
    (fun (n, amp) ->
      if abs n <= 3 then
        check_cx
          (Printf.sprintf "band %d" n)
          amp
          (Cvec.get col (Htm.index_of_harmonic ctx3 n)))
    expected

let test_custom () =
  let h = Htm.custom (fun c _ -> Cmat.identity (Htm.dim c)) in
  check_true "custom" (Cmat.equal (Cmat.identity 7) (Htm.to_matrix ctx3 h s0))

let test_max_singular_value () =
  (* diagonal: sigma_max = max |entry| *)
  let h = Htm.lti (fun s -> s) in
  (* at jw, the diagonal entries are j(w + n w0): the largest modulus is
     at the outermost harmonic *)
  let sv = Htm.max_singular_value ctx3 h 0.5 in
  check_close ~tol:1e-8 "diagonal sigma" (0.5 +. (3.0 *. 2.0)) sv;
  (* rank-one sampler: sigma = (w0/2pi) * dim (|l| * |l|) *)
  let sv2 = Htm.max_singular_value ctx3 Htm.sampler 0.3 in
  check_close ~tol:1e-8 "rank-one sigma" (2.0 /. (2.0 *. Float.pi) *. 7.0) sv2;
  (* identity *)
  check_close ~tol:1e-8 "identity sigma" 1.0 (Htm.max_singular_value ctx3 Htm.identity 1.0);
  (* zero *)
  check_close "zero sigma" 0.0 (Htm.max_singular_value ctx3 Htm.zero 1.0)

let test_max_singular_rank_one_stall () =
  (* regression: the power iteration used to start from the fixed ramp
     v0_i = 1 + 0.1(i+1)j. For a rank-one HTM M = u vᴴ with v ⊥ v0 the
     very first product M v0 is exactly zero, so the old iteration
     stalled and reported σ = 0 instead of |u||v|. The seeded random
     start (plus null-space restarts) must recover the true value. *)
  let ctx1 = Htm.ctx ~n_harm:1 ~omega0:2.0 in
  let v0 = Array.init 3 (fun i -> Cx.make 1.0 (0.1 *. float_of_int (i + 1))) in
  (* vᴴ v0 = conj(v_0) v0_0 + conj(v_1) v0_1 = v0_1 v0_0 - v0_0 v0_1 = 0 *)
  let v = [| Cx.conj v0.(1); Cx.neg (Cx.conj v0.(0)); Cx.zero |] in
  let u = [| Cx.make 0.3 0.7; Cx.make (-1.1) 0.2; Cx.make 0.0 2.0 |] in
  let h =
    Htm.custom (fun c _s ->
        Cmat.init (Htm.dim c) (Htm.dim c) (fun i k ->
            Cx.mul u.(i) (Cx.conj v.(k))))
  in
  let norm a =
    sqrt (Array.fold_left (fun acc z -> acc +. Cx.norm2 z) 0.0 a)
  in
  let expected = norm u *. norm v in
  (* confirm the stall construction: vᴴ v0 is exactly zero *)
  let vh_v0 = ref Cx.zero in
  Array.iteri
    (fun k z -> vh_v0 := Cx.add !vh_v0 (Cx.mul (Cx.conj v.(k)) z))
    v0;
  check_cx "old start vector is in the null space" Cx.zero !vh_v0;
  let sv = Htm.max_singular_value ctx1 h 0.4 in
  check_close ~tol:1e-8 "rank-one sigma recovered" expected sv;
  (* the result is deterministic: same seed, same value *)
  check_true "seeded start is deterministic"
    (sv = Htm.max_singular_value ctx1 h 0.4);
  (* the checked API must certify convergence on the same problem *)
  match Htm.max_singular_value_checked ctx1 h 0.4 with
  | Ok cert ->
      check_true "certificate converged" cert.Htm.converged;
      check_true "certificate residual within tolerance"
        (cert.Htm.residual <= 1e-10 *. (1.0 +. cert.Htm.sigma));
      check_close ~tol:1e-8 "certified sigma matches" expected cert.Htm.sigma
  | Error e ->
      Alcotest.failf "unexpected non-convergence: %s"
        (Robust.Pllscope_error.to_string e)

let test_max_singular_bounds_baseband () =
  (* sigma_max of a multiplier dominates any single element *)
  let h = Htm.periodic_gain [| Cx.of_float 0.4; Cx.one; Cx.of_float 0.4 |] in
  let sv = Htm.max_singular_value ctx3 h 0.2 in
  check_true "sigma >= |H00|" (sv >= Cx.abs (Htm.baseband ctx3 h 0.2) -. 1e-12);
  (* and is bounded by the induced norms *)
  let m = Htm.to_matrix ctx3 h (Cx.jomega 0.2) in
  check_true "sigma <= frobenius" (sv <= Cmat.norm_frobenius m +. 1e-9)

let prop_sampler_rank_one =
  qcheck ~count:20 "sampler rows all equal (rank one)"
    (QCheck2.Gen.int_range 1 6) (fun n ->
      let c = Htm.ctx ~n_harm:n ~omega0:1.5 in
      let m = Htm.to_matrix c Htm.sampler (Cx.make 0.2 0.3) in
      let first = Cmat.row m 0 in
      let ok = ref true in
      for i = 1 to Htm.dim c - 1 do
        let r = Cmat.row m i in
        for k = 0 to Htm.dim c - 1 do
          if not (Cx.approx (Cvec.get first k) (Cvec.get r k)) then ok := false
        done
      done;
      !ok)

let prop_series_associative =
  qcheck ~count:20 "series associative"
    (QCheck2.Gen.triple gen_cx gen_cx gen_cx) (fun (a, b, c) ->
      let ha = Htm.periodic_gain [| a; Cx.one; b |] in
      let hb = Htm.lti (fun s -> Cx.add s c) in
      let hc = Htm.periodic_gain [| b; c; a |] in
      let m1 = Htm.to_matrix ctx3 (Htm.series (Htm.series ha hb) hc) s0 in
      let m2 = Htm.to_matrix ctx3 (Htm.series ha (Htm.series hb hc)) s0 in
      Cmat.equal ~tol:1e-8 m1 m2)

let suite =
  [
    case "context" test_ctx;
    case "LTI diagonal (eq. 12)" test_lti_diagonal;
    case "periodic gain Toeplitz (eq. 13)" test_periodic_gain_toeplitz;
    case "sampler (eqs. 19-20)" test_sampler;
    case "identity/zero/scale" test_identity_zero_scale;
    case "composition (eqs. 10-11)" test_composition;
    case "feedback (eq. 28)" test_feedback;
    case "element access" test_element_baseband;
    case "tone response" test_apply_to_tone;
    case "custom block" test_custom;
    case "max singular value" test_max_singular_value;
    case "rank-one null-space stall (regression)" test_max_singular_rank_one_stall;
    case "singular value bounds" test_max_singular_bounds_baseband;
    prop_sampler_rank_one;
    prop_series_associative;
  ]
