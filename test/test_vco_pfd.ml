open Numeric
open Helpers
module Vco = Pll_lib.Vco
module Pfd = Pll_lib.Pfd
module Htm = Htm_core.Htm

let test_time_invariant_sensitivity () =
  let vco = Vco.time_invariant ~kvco:20e6 ~n_div:64.0 ~fref:1e6 in
  check_close "v0 = Kvco/(N fref)" (20e6 /. 64e6) vco.Vco.v0;
  check_true "flagged time-invariant" (Vco.is_time_invariant vco);
  Alcotest.check_raises "bad kvco"
    (Invalid_argument "Vco.sensitivity: kvco, n_div and fref must be positive")
    (fun () ->
      ignore (Vco.time_invariant ~kvco:0.0 ~n_div:64.0 ~fref:1e6))

let test_tf () =
  let vco = Vco.time_invariant ~kvco:20e6 ~n_div:64.0 ~fref:1e6 in
  (* v0/s *)
  check_cx "tf at s=1" (Cx.of_float vco.Vco.v0) (Lti.Tf.eval (Vco.tf vco) Cx.one);
  check_cx "tf at s=2j"
    (Cx.div (Cx.of_float vco.Vco.v0) (Cx.jomega 2.0))
    (Lti.Tf.eval (Vco.tf vco) (Cx.jomega 2.0))

let test_isf_construction () =
  let vco =
    Vco.with_isf ~kvco:20e6 ~n_div:64.0 ~fref:1e6
      ~harmonics:[ Cx.of_float 0.3; Cx.make 0.0 0.1 ]
  in
  check_true "time-varying" (not (Vco.is_time_invariant vco));
  let coeffs = Vco.isf_coeffs vco ~max_harmonic:3 in
  check_int "padded length" 7 (Array.length coeffs);
  check_cx "dc slot" (Cx.of_float vco.Vco.v0) coeffs.(3);
  check_cx "k=1 scaled by v0" (Cx.scale vco.Vco.v0 (Cx.of_float 0.3)) coeffs.(4);
  check_cx "k=-1 conjugate" (Cx.conj coeffs.(4)) coeffs.(2);
  check_cx "k=2" (Cx.scale vco.Vco.v0 (Cx.make 0.0 0.1)) coeffs.(5);
  check_cx "k=3 zero padded" Cx.zero coeffs.(6);
  check_true "real ISF" (Htm_core.Lptv.conj_symmetric coeffs)

let test_isf_truncation () =
  let vco =
    Vco.with_isf ~kvco:20e6 ~n_div:64.0 ~fref:1e6
      ~harmonics:[ Cx.of_float 0.3; Cx.of_float 0.2; Cx.of_float 0.1 ]
  in
  let coeffs = Vco.isf_coeffs vco ~max_harmonic:1 in
  check_int "truncated length" 3 (Array.length coeffs);
  check_cx "k=1 kept" (Cx.scale vco.Vco.v0 (Cx.of_float 0.3)) coeffs.(2)

let test_vco_htm_time_invariant () =
  (* eq. 25 with v_k = 0 for k <> 0: diagonal v0/(s + j n w0) *)
  let vco = Vco.time_invariant ~kvco:20e6 ~n_div:64.0 ~fref:1e6 in
  let omega0 = 2.0 *. Float.pi *. 1e6 in
  let ctx = Htm.ctx ~n_harm:2 ~omega0 in
  let s = Cx.jomega (0.3 *. omega0) in
  let m = Htm.to_matrix ctx (Vco.htm vco) s in
  for i = 0 to 4 do
    let n = float_of_int (Htm.harmonic_of_index ctx i) in
    let expected =
      Cx.div (Cx.of_float vco.Vco.v0) (Cx.add s (Cx.jomega (n *. omega0)))
    in
    check_cx "diagonal v0/(s+jnw0)" expected (Cmat.get m i i)
  done;
  check_true "diagonal overall" (Htm.is_lti ctx (Vco.htm vco) s)

let test_vco_htm_time_varying () =
  (* eq. 25 general: H_{n,m} = v_{n-m} / (s + j n w0) *)
  let vco =
    Vco.with_isf ~kvco:20e6 ~n_div:64.0 ~fref:1e6 ~harmonics:[ Cx.of_float 0.4 ]
  in
  let omega0 = 2.0 *. Float.pi *. 1e6 in
  let ctx = Htm.ctx ~n_harm:2 ~omega0 in
  let s = Cx.jomega (0.2 *. omega0) in
  let m = Htm.to_matrix ctx (Vco.htm vco) s in
  let coeffs = Vco.isf_coeffs vco ~max_harmonic:4 in
  for i = 0 to 4 do
    for k = 0 to 4 do
      let n = Htm.harmonic_of_index ctx i in
      let vk = coeffs.(i - k + 4) in
      let expected =
        Cx.div vk (Cx.add s (Cx.jomega (float_of_int n *. omega0)))
      in
      check_cx "eq. 25 entry" expected (Cmat.get m i k)
    done
  done

let test_pfd_sampling () =
  check_close "lti gain is 1/T" (1.0 /. 2.0 /. Float.pi *. 3.0)
    (Pfd.lti_gain Pfd.sampling ~omega0:3.0);
  let ctx = Htm.ctx ~n_harm:4 ~omega0:2.0 in
  check_int "sampler rank one" 1 (Pfd.sampler_matrix_rank ctx)

let test_pfd_mixing () =
  let pfd = Pfd.mixing ~gain:2.0 in
  check_close "mixer has no baseband gain" 0.0 (Pfd.lti_gain pfd ~omega0:1.0);
  let ctx = Htm.ctx ~n_harm:2 ~omega0:1.0 in
  let m = Htm.to_matrix ctx (Pfd.htm pfd) Cx.one in
  (* multiplication by gain*cos: +-1 diagonals at gain/2 *)
  check_cx "upper diag" Cx.one (Cmat.get m 1 2);
  check_cx "lower diag" Cx.one (Cmat.get m 2 1);
  check_cx "main diag empty" Cx.zero (Cmat.get m 2 2)

let suite =
  [
    case "time-invariant sensitivity" test_time_invariant_sensitivity;
    case "vco transfer function" test_tf;
    case "isf construction" test_isf_construction;
    case "isf truncation" test_isf_truncation;
    case "vco HTM time-invariant (eq. 25)" test_vco_htm_time_invariant;
    case "vco HTM time-varying (eq. 25)" test_vco_htm_time_varying;
    case "sampling pfd" test_pfd_sampling;
    case "mixing pfd" test_pfd_mixing;
  ]
