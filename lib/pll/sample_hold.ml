open Numeric

let zoh_shape ~period s =
  (* (1 - e^{-sT}) / (sT), with the s -> 0 limit filled *)
  let st = Cx.mul s (Cx.of_float period) in
  if Cx.abs st < 1e-8 then
    (* series: 1 - sT/2 + (sT)^2/6 *)
    Cx.add Cx.one
      (Cx.add
         (Cx.scale (-0.5) st)
         (Cx.scale (1.0 /. 6.0) (Cx.mul st st)))
  else Cx.div (Cx.sub Cx.one (Cx.exp (Cx.neg st))) st

let a_of_s p s =
  Cx.mul (Pll.a_of_s p s) (zoh_shape ~period:(Pll.period p) s)

(* Q(s) = A(s)/s is rational and strictly proper: its lattice sum has a
   coth closed form, and lambda_sh(s) = (1 - e^{-sT})/T * sum_m Q(s+jmw0) *)
let lambda_fn p method_ =
  let w0 = Pll.omega0 p in
  let period = Pll.period p in
  let prefactor s =
    Cx.scale (1.0 /. period) (Cx.sub Cx.one (Cx.exp (Cx.neg (Cx.mul s (Cx.of_float period)))))
  in
  match method_ with
  | Pll.Truncated terms ->
      fun s ->
        let acc = ref (a_of_s p s) in
        for m = 1 to terms do
          let shift = Cx.jomega (float_of_int m *. w0) in
          (* the zoh shape is w0-periodic along jw up to the 1/(s+jmw0)
             factor, so sum the per-band gains directly *)
          acc := Cx.add !acc (Cx.add (a_of_s p (Cx.add s shift)) (a_of_s p (Cx.sub s shift)))
        done;
        !acc
  | Pll.Exact ->
      let q =
        Rat.mul (Lti.Tf.to_rat (Pll.open_loop_tf p)) (Rat.inv Rat.s)
      in
      if not (Rat.is_strictly_proper q) then
        invalid_arg "Sample_hold.lambda_fn: chain must be strictly proper";
      let expansion = Partial_fraction.expand q in
      let lattice =
        Special.lattice_sum ~omega0:w0 expansion.Partial_fraction.terms
      in
      fun s -> Cx.mul (prefactor s) (lattice s)

let lambda p s = lambda_fn p Pll.Exact s

let h00 p s = Cx.div (a_of_s p s) (Cx.add Cx.one (lambda p s))

let htm p =
  let period = Pll.period p in
  (* per band: sampler contributes 1/T, the filter/VCO chain contributes
     T*A(s+jnw0), and the hold contributes its normalized pulse shape
     (1 - e^{-sT})/(sT) — together the per-band gain A_sh of the
     documentation *)
  Htm_core.Htm.series_list
    [
      Vco.htm p.Pll.vco;
      Htm_core.Htm.lti (Lti.Tf.eval (Loop_filter.tf p.Pll.filter));
      Htm_core.Htm.lti (fun s -> zoh_shape ~period s);
      Htm_core.Htm.sampler;
    ]

let closed_loop_htm p = Htm_core.Htm.feedback (htm p)

type discrete = {
  phi : Rmat.t;
  gamma : float array;
  c : float array;
  period : float;
}

let discretize p =
  if not (Vco.is_time_invariant p.Pll.vco) then
    invalid_arg "Sample_hold.discretize: requires a time-invariant VCO";
  let period = Pll.period p in
  (* held error drives the chain A(s) (the per-period charge of the S&H
     pump matches the impulse pump's, so the chain gain is exactly A) *)
  let ss = Lti.Ss.of_tf (Pll.open_loop_tf p) in
  let phi, gamma = Lti.Ss.discretize ss ~dt:period in
  { phi; gamma; c = ss.Lti.Ss.c; period }

let open_loop_z m =
  Lti.Zdomain.from_state_space ~phi:m.phi ~b:m.gamma ~c:m.c

let open_loop_response m w =
  Lti.Zdomain.freq_response (open_loop_z m) ~period:m.period w

let closed_loop_poles m =
  let n = Rmat.rows m.phi in
  let gc = Rmat.init n n (fun i k -> m.gamma.(i) *. m.c.(k)) in
  Rmat.eigenvalues (Rmat.sub m.phi gc)

let is_stable ?(tol = 1e-9) p =
  List.for_all
    (fun z -> Cx.abs z < 1.0 -. tol)
    (closed_loop_poles (discretize p))
