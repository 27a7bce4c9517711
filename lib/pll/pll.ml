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

(* Ṽ_n(s) of eq. 29 behind an ISF VCO with taps Γ (odd length, DC at
   the centre): u_n(s) = g·Σ_m Γ_{n−m}·Z(s + jmω₀)/(s + jnω₀), the
   2K+1 bands m that the taps reach. *)
let isf_column p gamma =
  let w0 = omega0 p in
  let g = Pfd.lti_gain p.pfd ~omega0:w0 in
  let z = Lti.Tf.eval (Loop_filter.tf p.filter) in
  let k = Array.length gamma / 2 in
  let shift s m = Cx.add s (Cx.jomega (float_of_int m *. w0)) in
  fun ~n s ->
    let acc = ref Cx.zero in
    for d = -k to k do
      acc := Cx.add !acc (Cx.mul gamma.(k + d) (z (shift s (n - d))))
    done;
    Cx.div (Cx.scale g !acc) (shift s n)

let strictly_proper rat =
  if not (Rat.is_strictly_proper rat) then
    invalid_arg "Pll.lambda_fn: open loop must be strictly proper";
  rat

(* λ(s) = Σ_d Σ_m R_d(s + jmω₀) with R_d(z) = Γ_d·g·Z(z)/(z + jdω₀):
   lattice sums of partial fractions, all built from one expansion, of
   B = A of eq. 35 with v₀ = Γ₀ (v₀ = 1 unless Γ₀ is real and nonzero).
   B's terms are the DC tap's, so a K = 0 ISF gives the time-invariant
   λ bit for bit. With c = Γ_d/v₀ and q = −jdω₀,
     R_d(z) = c·B(z)·z/(z − q) = c·B(z) + c·q·B(z)/(z − q),
   and a term r/(z − p)^o of B over (z − q) is, with a = q − p,
     r/(a^o·(z − q)) − Σ_{i=1..o} r/(a^(o−i+1)·(z − p)^i),
   so every tap lands on B's poles bit for bit plus q, which lies in
   the lattice class of B's pole at 0: [fold_classes] leaves one term
   per class and order. *)
let isf_lambda p gamma =
  let w0 = omega0 p in
  let k = Array.length gamma / 2 in
  let g0 = gamma.(k) in
  let dc_is_base = Float.equal (Cx.im g0) 0.0 && not (Cx.is_zero g0) in
  let v0 = if dc_is_base then Cx.re g0 else 1.0 in
  let base =
    (Partial_fraction.expand
       (strictly_proper
          (Lti.Tf.to_rat (open_loop_tf { p with vco = { Vco.v0; harmonics = None } }))))
      .Partial_fraction.terms
  in
  let term pole order residue = { Partial_fraction.pole; order; residue } in
  let tap d =
    let c = Cx.scale (1.0 /. v0) gamma.(k + d) in
    let scaled =
      List.map (fun (t : Partial_fraction.term) -> { t with residue = Cx.mul c t.residue }) base
    in
    if d = 0 then if dc_is_base then base else scaled
    else
      let q = Cx.jomega (-.float_of_int d *. w0) in
      scaled
      @ List.concat_map
          (fun { Partial_fraction.pole; order; residue } ->
            let a = Cx.sub q pole and cqr = Cx.mul c (Cx.mul q residue) in
            term q 1 (Cx.div cqr (Cx.pow_int a order))
            :: List.init order (fun i ->
                   term pole (i + 1) (Cx.neg (Cx.div cqr (Cx.pow_int a (order - i))))))
          base
  in
  let terms =
    List.concat_map
      (fun d -> if Cx.is_zero gamma.(k + d) then [] else tap d)
      (List.init ((2 * k) + 1) (fun i -> i - k))
  in
  Special.lattice_sum ~omega0:w0 (Special.fold_classes ~omega0:w0 terms)

let lambda_fn p method_ =
  let w0 = omega0 p in
  match (p.vco.harmonics, method_) with
  | None, Truncated terms ->
      let eval = Lti.Tf.eval (open_loop_tf p) in
      fun s ->
        let acc = ref (eval s) in
        for m = 1 to terms do
          let shift = Cx.jomega (float_of_int m *. w0) in
          acc := Cx.add !acc (Cx.add (eval (Cx.add s shift)) (eval (Cx.sub s shift)))
        done;
        !acc
  | None, Exact ->
      let rat = strictly_proper (Lti.Tf.to_rat (open_loop_tf p)) in
      let expansion = Partial_fraction.expand rat in
      Special.lattice_sum ~omega0:w0 expansion.Partial_fraction.terms
  | Some gamma, Truncated terms ->
      let u = isf_column p gamma in
      fun s ->
        let acc = ref (u ~n:0 s) in
        for m = 1 to terms do
          acc := Cx.add !acc (Cx.add (u ~n:m s) (u ~n:(-m) s))
        done;
        !acc
  | Some gamma, Exact -> isf_lambda p gamma

let lambda p s = lambda_fn p Exact s

let htm_element_fn p method_ ~n =
  let lam = lambda_fn p method_ in
  match p.vco.harmonics with
  | None ->
      let a = Lti.Tf.eval (open_loop_tf p) in
      let w0 = omega0 p in
      fun s ->
        let shifted = Cx.add s (Cx.jomega (float_of_int n *. w0)) in
        Cx.div (a shifted) (Cx.add Cx.one (lam s))
  | Some gamma ->
      let u = isf_column p gamma in
      fun s -> Cx.div (u ~n s) (Cx.add Cx.one (lam s))

let h00_fn p method_ = htm_element_fn p method_ ~n:0

let h00 p s = h00_fn p Exact s

let h00_lti p s =
  let a = a_of_s p s in
  Cx.div a (Cx.add Cx.one a)

let open_loop_htm p =
  Htm_core.Htm.series_list
    [ Vco.htm p.vco;
      Htm_core.Htm.lti_rat (Lti.Tf.to_rat (Loop_filter.tf p.filter));
      Pfd.htm p.pfd ]

let closed_loop_htm p = Htm_core.Htm.feedback (open_loop_htm p)

let closed_loop_planner p =
  (* the Special fast path: behind the sampler the closed loop realizes
     as rank one, and its Sherman–Morrison denominator term can be
     replaced by the exact λ(s) (coth lattice sums) instead of the
     truncated [vᵀu] — the planned evaluation then carries no
     truncation error in the denominator, and an entry reads only the
     rows that feed it. Behind an ISF VCO with K harmonics, row 0's u
     is itself truncated below n_harm = K, so such a ctx keeps [vᵀu].
     λ is built (its partial-fraction expansion included) once here and
     shared by every plan the planner makes. *)
  let lambda =
    match p.pfd with
    | Pfd.Sampling -> Some (lambda_fn p Exact)
    | _ -> None
  in
  let k = Option.fold ~none:0 ~some:(fun g -> Array.length g / 2) p.vco.harmonics in
  let tree = closed_loop_htm p in
  fun (ctx : Htm_core.Htm.ctx) ->
    let lambda = if ctx.n_harm >= k then lambda else None in
    Htm_core.Plan.make ?lambda ctx tree

let closed_loop_plan ctx p = closed_loop_planner p ctx

let v_tilde ctx p s =
  match p.pfd with
  | Pfd.Sampling ->
      (* Ṽ = (ω₀/2π)·H_VCO·H_LF·l: the row sums of the forward chain,
         read from its diagonal or banded realization. The chain is a
         new tree at every call, so the [Htm] plan memo could never
         hit it: its plan is made, used once and dropped here. *)
      let open Htm_core in
      let chain =
        Htm.series (Vco.htm p.vco)
          (Htm.lti_rat (Lti.Tf.to_rat (Loop_filter.tf p.filter)))
      in
      let plan = Plan.make ctx chain in
      let m = Plan.eval plan s in
      let n = Htm.dim ctx in
      (* the columns row i of the chain can hold: its band, or every one
         after a fallback to the dense oracle *)
      let reach =
        match Plan.root_shape plan with
        | `Diag when not (Plan.degraded plan) -> 0
        | `Band k when not (Plan.degraded plan) -> k
        | _ -> n
      in
      (* the sum of [Cmat.mv m l] row by row: a zero off the band adds
         +0·1 = +0 to a sum that starts at +0, which leaves it as it is,
         so the band alone gives the same bits *)
      let w = Cx.of_float (omega0 p /. (2.0 *. Float.pi)) in
      Cvec.init n (fun i ->
          let acc = ref Cx.zero in
          for k = Int.max 0 (i - reach) to Int.min (n - 1) (i + reach) do
            acc := Cx.add !acc (Cx.mul (Smat.get m i k) Cx.one)
          done;
          Cx.mul w !acc)
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
