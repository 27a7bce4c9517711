open Numeric

type t = {
  fref : float;
  n_div : float;
  filter : Loop_filter.t;
  vco : Vco.t;
  pfd : Pfd.t;
}

let make ~fref ~n_div ~filter ~vco ?(pfd = Pfd.sampling) () =
  if fref <= 0.0 then invalid_arg "Pll.make: fref must be positive";
  if n_div <= 0.0 then invalid_arg "Pll.make: n_div must be positive";
  { fref; n_div; filter; vco; pfd }

let omega0 p = 2.0 *. Float.pi *. p.fref
let period p = 1.0 /. p.fref

let open_loop_tf p =
  (* A(s) = (omega0/2pi) * (v0/s) * H_LF(s) = fref * v0 * Icp * Z(s) / s *)
  let sampling_gain = Pfd.lti_gain p.pfd ~omega0:(omega0 p) in
  Lti.Tf.scale sampling_gain
    (Lti.Tf.mul (Vco.tf p.vco) (Loop_filter.tf p.filter))

let a_of_s p = Lti.Tf.eval (open_loop_tf p)

type lambda_method = Exact | Truncated of int

let lambda_fn p method_ =
  let a = open_loop_tf p in
  let w0 = omega0 p in
  match method_ with
  | Truncated terms ->
      let eval = Lti.Tf.eval a in
      fun s ->
        let acc = ref (eval s) in
        for m = 1 to terms do
          let shift = Cx.jomega (float_of_int m *. w0) in
          acc := Cx.add !acc (Cx.add (eval (Cx.add s shift)) (eval (Cx.sub s shift)))
        done;
        !acc
  | Exact ->
      let rat = Lti.Tf.to_rat a in
      if not (Rat.is_strictly_proper rat) then
        invalid_arg "Pll.lambda_fn: open loop must be strictly proper";
      let expansion = Partial_fraction.expand rat in
      Special.lattice_sum ~omega0:w0 expansion.Partial_fraction.terms

let lambda p s = lambda_fn p Exact s

let h00_fn p method_ =
  let a = Lti.Tf.eval (open_loop_tf p) in
  let lam = lambda_fn p method_ in
  fun s -> Cx.div (a s) (Cx.add Cx.one (lam s))

let h00 p s = h00_fn p Exact s

let htm_element_fn p method_ ~n =
  let a = Lti.Tf.eval (open_loop_tf p) in
  let lam = lambda_fn p method_ in
  let w0 = omega0 p in
  fun s ->
    let shifted = Cx.add s (Cx.jomega (float_of_int n *. w0)) in
    Cx.div (a shifted) (Cx.add Cx.one (lam s))

let h00_lti p s =
  let a = a_of_s p s in
  Cx.div a (Cx.add Cx.one a)

let open_loop_htm p =
  Htm_core.Htm.series_list
    [ Vco.htm p.vco;
      Htm_core.Htm.lti_rat (Lti.Tf.to_rat (Loop_filter.tf p.filter));
      Pfd.htm p.pfd ]

let closed_loop_htm p = Htm_core.Htm.feedback (open_loop_htm p)

let closed_loop_planner ?(exact_lambda = true) p =
  (* the Special fast path: for a time-invariant VCO behind the sampler
     the closed loop realizes as rank one, and its Sherman–Morrison
     denominator term can be replaced by the exact λ(s) of eq. 37
     (coth lattice sums) instead of the truncated [vᵀu] — the planned
     evaluation then carries no truncation error in the denominator.
     λ is built (partial-fraction expansion included) once here and
     shared by every plan the planner makes. *)
  let lambda =
    match p.pfd with
    | Pfd.Sampling when exact_lambda && Vco.is_time_invariant p.vco ->
        Some (lambda_fn p Exact)
    | _ -> None
  in
  let tree = closed_loop_htm p in
  fun ctx -> Htm_core.Plan.make ?lambda ctx tree

let closed_loop_plan ?exact_lambda ctx p = closed_loop_planner ?exact_lambda p ctx

let forward_chain_matrix ctx p s =
  (* H_VCO(s) * H_LF(s) as a truncated matrix *)
  let open Htm_core in
  let chain =
    Htm.series (Vco.htm p.vco)
      (Htm.lti_rat (Lti.Tf.to_rat (Loop_filter.tf p.filter)))
  in
  Htm.to_matrix ctx chain s

let v_tilde ctx p s =
  match p.pfd with
  | Pfd.Sampling ->
      let m = forward_chain_matrix ctx p s in
      let l = Cvec.ones (Cmat.rows m) in
      Cvec.scale
        (Cx.of_float (omega0 p /. (2.0 *. Float.pi)))
        (Cmat.mv m l)
  | Pfd.Mixing _ ->
      invalid_arg "Pll.v_tilde: rank-one form requires a sampling PFD"

let lambda_matrix ctx p s =
  let v = v_tilde ctx p s in
  Cvec.sum v

let closed_loop_rank_one ctx p s =
  let v = v_tilde ctx p s in
  let lam = Cvec.sum v in
  let denom = Cx.add Cx.one lam in
  let n = Cvec.dim v in
  (* H = V l^T / (1 + lambda): every column equals V / (1 + lambda) *)
  Cmat.init n n (fun i _ -> Cx.div (Cvec.get v i) denom)
