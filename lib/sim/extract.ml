open Numeric

type measurement = {
  omega : float;
  measured : Cx.t;
  predicted : Cx.t;
  predicted_lti : Cx.t;
  rel_err : float;
}

let default_warmup pll ~window_periods =
  (* ~6 closed-loop time constants, and at least two full windows so the
     periodic steady state is established *)
  let omega0 = Pll_lib.Pll.omega0 pll in
  let period = Pll_lib.Pll.period pll in
  let lti = Pll_lib.Pll.open_loop_tf pll in
  let wug =
    match
      Lti.Margins.unity_gain_crossover (Lti.Tf.freq_response lti)
        ~lo:(omega0 *. 1e-5) ~hi:(omega0 *. 10.0)
    with
    | Some w -> w
    | None -> omega0 /. 10.0
  in
  let settle = 6.0 *. 2.0 *. Float.pi /. wug in
  Stdlib.max (2 * window_periods) (int_of_float (ceil (settle /. period)))

(* Simulate with [stimulus], then correlate the recorded theta against
   the absolute-time carrier at [omega_m] over exactly [window_periods]
   reference periods. Because omega_m = harmonic * w0 / window_periods,
   every spectral component the LPTV loop produces (omega_m + k w0)
   completes an integer number of cycles inside the window: the
   correlation is leakage-free and isolates the baseband element. *)
let correlate pll ~stimulus ~omega_m ~eps ~warmup_periods ~window_periods
    ~steps_per_period =
  let period = Pll_lib.Pll.period pll in
  let warmup =
    match warmup_periods with
    | Some w -> w
    | None -> default_warmup pll ~window_periods
  in
  let total = warmup + window_periods in
  let record =
    Behavioral.run
      { (Behavioral.default_config pll) with Behavioral.steps_per_period }
      stimulus
      ~t_end:(float_of_int total *. period)
  in
  let theta = record.Behavioral.theta in
  let dt = period /. float_of_int steps_per_period in
  let start_index = warmup * steps_per_period in
  let n_window = window_periods * steps_per_period in
  if Waveform.length theta < start_index + n_window then
    failwith "Extract.correlate: simulation record too short";
  let samples =
    Array.init n_window (fun i -> Waveform.value theta (start_index + i))
  in
  let t_start = float_of_int warmup *. period in
  let corr = Fft.goertzel samples ~dt ~omega:omega_m in
  let corr = Cx.mul corr (Cx.cis (-.omega_m *. t_start)) in
  (* the stimulus is eps sin(w t) = Re(-j eps e^{jwt}); goertzel returns
     the complex amplitude Y of Re(Y e^{jwt}), so gain = j Y / eps *)
  let gain = Cx.scale (1.0 /. eps) (Cx.mul Cx.j corr) in
  (* a diverging time march (unstable loop, bad step size) feeds the
     correlator NaN/inf samples; report that as a typed error rather
     than letting the bogus gain flow into a comparison table *)
  if not (Float.is_finite (Cx.re gain) && Float.is_finite (Cx.im gain)) then
    Robust.Pllscope_error.raise_
      (Non_finite { where = "Sim.Extract.correlate: measured gain" });
  gain

let check_args ~harmonic ~window_periods =
  if harmonic < 1 then invalid_arg "Extract.measure_h00: harmonic >= 1";
  if window_periods < 2 * harmonic then
    invalid_arg "Extract.measure_h00: window too short for the harmonic"

let measure_h00 pll ~harmonic ~window_periods ?warmup_periods ?eps
    ?(steps_per_period = 96) () =
  check_args ~harmonic ~window_periods;
  let period = Pll_lib.Pll.period pll in
  let omega0 = Pll_lib.Pll.omega0 pll in
  let omega_m = float_of_int harmonic *. omega0 /. float_of_int window_periods in
  let eps = match eps with Some e -> e | None -> period /. 2000.0 in
  let stimulus = Behavioral.sine_modulation ~eps ~omega:omega_m in
  let measured =
    correlate pll ~stimulus ~omega_m ~eps ~warmup_periods ~window_periods
      ~steps_per_period
  in
  let predicted = Pll_lib.Pll.h00 pll (Cx.jomega omega_m) in
  let predicted_lti = Pll_lib.Pll.h00_lti pll (Cx.jomega omega_m) in
  {
    omega = omega_m;
    measured;
    predicted;
    predicted_lti;
    rel_err = Cx.abs (Cx.sub measured predicted) /. Cx.abs predicted;
  }

let measure_error_transfer pll ~harmonic ~window_periods ?warmup_periods ?eps
    ?(steps_per_period = 96) () =
  check_args ~harmonic ~window_periods;
  let period = Pll_lib.Pll.period pll in
  let omega0 = Pll_lib.Pll.omega0 pll in
  let omega_m = float_of_int harmonic *. omega0 /. float_of_int window_periods in
  let eps = match eps with Some e -> e | None -> period /. 2000.0 in
  let stimulus = Behavioral.vco_sine_disturbance ~eps ~omega:omega_m ~pll in
  let measured =
    correlate pll ~stimulus ~omega_m ~eps ~warmup_periods ~window_periods
      ~steps_per_period
  in
  let s = Cx.jomega omega_m in
  let predicted = Cx.sub Cx.one (Pll_lib.Pll.h00 pll s) in
  let predicted_lti = Cx.inv (Cx.add Cx.one (Pll_lib.Pll.a_of_s pll s)) in
  {
    omega = omega_m;
    measured;
    predicted;
    predicted_lti;
    rel_err = Cx.abs (Cx.sub measured predicted) /. Cx.abs predicted;
  }

let sweep pll points =
  List.map
    (fun (harmonic, window_periods) ->
      measure_h00 pll ~harmonic ~window_periods ())
    points

let worst_rel_err ms =
  List.fold_left (fun acc m -> Stdlib.max acc m.rel_err) 0.0 ms
