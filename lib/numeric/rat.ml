type t = { num : Poly.t; den : Poly.t }

let make num den =
  if Poly.is_zero den then raise Division_by_zero;
  { num; den }

let of_poly p = { num = p; den = Poly.one }
let constant z = of_poly (Poly.constant z)
let zero = of_poly Poly.zero
let one = of_poly Poly.one
let s = of_poly Poly.s
let eval r x = Cx.div (Poly.eval r.num x) (Poly.eval r.den x)

(* Precompiled split-coefficient form. [eval_into] must stay
   bit-identical to [eval]: the Horner loop mirrors [Poly.eval]
   (descending index, acc·x + c at each step) and the final division
   mirrors the stdlib [Complex.div] (Smith's algorithm) literally —
   same operations, same order, so the roundings coincide. *)
type split = {
  num_re : float array;
  num_im : float array;
  den_re : float array;
  den_im : float array;
  acc : float array;
      (* 6-slot scratch: the two Horner accumulators and the point x —
         float-array slots keep them unboxed (refs, tuple returns or
         float arguments of a call would allocate per evaluation), at
         the price of making a [split] a single-thread workspace *)
}

let split r =
  let unzip p =
    let cs = Poly.coeffs p in
    ( Array.map Cx.re cs,
      Array.map Cx.im cs )
  in
  let num_re, num_im = unzip r.num and den_re, den_im = unzip r.den in
  { num_re; num_im; den_re; den_im; acc = Array.make 6 0.0 }

(* Horner on split arrays into (acc.(j), acc.(j+1)) = p(x), x at
   (acc.(4), acc.(5)). *)
let horner_into acc j re im =
  let xr = acc.(4) and xi = acc.(5) in
  acc.(j) <- 0.0;
  acc.(j + 1) <- 0.0;
  for i = Array.length re - 1 downto 0 do
    let ar = acc.(j) and ai = acc.(j + 1) in
    let mr = (ar *. xr) -. (ai *. xi) in
    let mi = (ar *. xi) +. (ai *. xr) in
    acc.(j) <- mr +. re.(i);
    acc.(j + 1) <- mi +. im.(i)
  done

(* the rational at the point in (acc.(4), acc.(5)), into out.(idx) *)
let eval_at_acc sp out_re out_im idx =
  let acc = sp.acc in
  horner_into acc 0 sp.num_re sp.num_im;
  horner_into acc 2 sp.den_re sp.den_im;
  let nr = acc.(0) and ni = acc.(1) in
  let dr = acc.(2) and di = acc.(3) in
  (* Smith's algorithm, exactly as [Complex.div] *)
  if Float.abs dr >= Float.abs di then begin
    let r = di /. dr in
    let d = dr +. (r *. di) in
    out_re.(idx) <- (nr +. (r *. ni)) /. d;
    out_im.(idx) <- (ni -. (r *. nr)) /. d
  end
  else begin
    let r = dr /. di in
    let d = di +. (r *. dr) in
    out_re.(idx) <- ((r *. nr) +. ni) /. d;
    out_im.(idx) <- ((r *. ni) -. nr) /. d
  end

let eval_into sp ~re ~im ~out_re ~out_im ~idx =
  sp.acc.(4) <- re;
  sp.acc.(5) <- im;
  eval_at_acc sp out_re out_im idx

(* One call per fill, and no float crosses a call: the shifted points
   are formed in float-array slots, from [s]'s fields read in place
   ([Cx.re] is a call from here, which returns its float boxed). *)
let[@lint.hot] eval_shifted_into sp (s : Cx.t) ~shifts ~lo ~hi ~out_re ~out_im =
  let acc = sp.acc in
  for i = lo to hi do
    acc.(4) <- s.re;
    acc.(5) <- s.im +. shifts.(i);
    eval_at_acc sp out_re out_im i
  done

let eval_split sp x =
  let out_re = [| 0.0 |] and out_im = [| 0.0 |] in
  eval_into sp ~re:(Cx.re x) ~im:(Cx.im x) ~out_re ~out_im ~idx:0;
  Cx.make out_re.(0) out_im.(0)

let add a b =
  make
    (Poly.add (Poly.mul a.num b.den) (Poly.mul b.num a.den))
    (Poly.mul a.den b.den)

let neg a = { a with num = Poly.neg a.num }
let sub a b = add a (neg b)
let mul a b = make (Poly.mul a.num b.num) (Poly.mul a.den b.den)

let inv a =
  if Poly.is_zero a.num then raise Division_by_zero;
  { num = a.den; den = a.num }

let div a b = mul a (inv b)
let scale z a = { a with num = Poly.scale z a.num }

let pow a n =
  if n >= 0 then { num = Poly.pow a.num n; den = Poly.pow a.den n }
  else inv { num = Poly.pow a.num (-n); den = Poly.pow a.den (-n) }

let feedback g h =
  (* g / (1 + g h) = g.num h.den / (g.den h.den + g.num h.num) *)
  make
    (Poly.mul g.num h.den)
    (Poly.add (Poly.mul g.den h.den) (Poly.mul g.num h.num))

let feedback_unity g = make g.num (Poly.add g.den g.num)

let derivative r =
  make
    (Poly.sub
       (Poly.mul (Poly.derivative r.num) r.den)
       (Poly.mul r.num (Poly.derivative r.den)))
    (Poly.mul r.den r.den)

let poles r = Roots.all r.den
let zeros r = if Poly.is_zero r.num then [] else Roots.all r.num
let relative_degree r = Poly.degree r.den - Poly.degree r.num
let is_proper r = Poly.is_zero r.num || relative_degree r >= 0
let is_strictly_proper r = Poly.is_zero r.num || relative_degree r >= 1

let normalize r =
  let lead = Poly.coeff r.den (Poly.degree r.den) in
  { num = Poly.scale (Cx.inv lead) r.num; den = Poly.monic r.den }

let reduce ?(tol = 1e-8) r =
  if Poly.is_zero r.num then { num = Poly.zero; den = Poly.one }
  else begin
    let gain =
      Cx.div
        (Poly.coeff r.num (Poly.degree r.num))
        (Poly.coeff r.den (Poly.degree r.den))
    in
    let zs = ref (Roots.all r.num) and ps = ref (Roots.all r.den) in
    let scale_mag =
      List.fold_left (fun m z -> Stdlib.max m (Cx.abs z)) 1.0 (!zs @ !ps)
    in
    let eps = tol *. scale_mag in
    let surviving_zeros = ref [] in
    List.iter
      (fun z ->
        let rec remove acc = function
          | [] -> None
          | p :: rest ->
              if Cx.abs (Cx.sub p z) <= eps then
                Some (List.rev_append acc rest)
              else remove (p :: acc) rest
        in
        match remove [] !ps with
        | Some ps' -> ps := ps'
        | None -> surviving_zeros := z :: !surviving_zeros)
      !zs;
    make
      (Poly.scale gain (Poly.from_roots (List.rev !surviving_zeros)))
      (Poly.from_roots !ps)
  end

let equal_response ?(tol = 1e-6) ?(points = 17) a b =
  (* Compare on a ring of sample points that avoids poles of either side. *)
  let ok = ref true in
  for k = 0 to points - 1 do
    let x =
      Cx.mul
        (Cx.of_float (0.7 +. (0.6 *. float_of_int k /. float_of_int points)))
        (Cx.cis ((float_of_int k +. 0.37) *. 2.0 *. Float.pi /. float_of_int points))
    in
    let va = eval a x and vb = eval b x in
    if Cx.is_finite va && Cx.is_finite vb && not (Cx.approx ~tol va vb) then
      ok := false
  done;
  !ok

let pp ppf r = Format.fprintf ppf "(%a) / (%a)" Poly.pp r.num Poly.pp r.den
