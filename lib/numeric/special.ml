let cosh_c (z : Cx.t) =
  { Complex.re = cosh z.re *. cos z.im; im = sinh z.re *. sin z.im }

let sinh_c (z : Cx.t) =
  { Complex.re = sinh z.re *. cos z.im; im = cosh z.re *. sin z.im }

let coth z =
  (* For large |Re z| the ratio overflows: clamp to ±1 which is the
     correct limit (double overflows near Re z ~ 710). *)
  if Float.abs (Cx.re z) > 350.0 then
    Cx.of_float (if Cx.re z > 0.0 then 1.0 else -1.0)
  else Cx.div (cosh_c z) (sinh_c z)

let csch2 z =
  if Float.abs (Cx.re z) > 350.0 then Cx.zero
  else
    let sh = sinh_c z in
    Cx.inv (Cx.mul sh sh)

(* Q_k as float-coefficient polynomials in c = coth(w):
   Q_1 = c, Q_{k+1} = -(1/k) * Q_k' * (1 - c^2). Memoized. *)
let q_table : float array list ref = ref [ [| 0.0; 1.0 |] ]

let poly_deriv p =
  if Array.length p <= 1 then [| 0.0 |]
  else Array.init (Array.length p - 1) (fun i -> float_of_int (i + 1) *. p.(i + 1))

let poly_mul a b =
  let out = Array.make (Array.length a + Array.length b - 1) 0.0 in
  Array.iteri
    (fun i ai ->
      Array.iteri (fun k bk -> out.(i + k) <- out.(i + k) +. (ai *. bk)) b)
    a;
  out

let poly_scale s p = Array.map (fun x -> s *. x) p

let rec q_poly k =
  let table = !q_table in
  let have = List.length table in
  if k <= have then List.nth table (k - 1)
  else begin
    let prev = q_poly (k - 1) in
    let next =
      poly_scale
        (-1.0 /. float_of_int (k - 1))
        (poly_mul (poly_deriv prev) [| 1.0; 0.0; -1.0 |])
    in
    q_table := !q_table @ [ next ];
    next
  end

let poly_eval_c p c =
  let acc = ref Cx.zero in
  for i = Array.length p - 1 downto 0 do
    acc := Cx.add (Cx.mul !acc c) (Cx.of_float p.(i))
  done;
  !acc

let harmonic_sum ~k ~omega0 z =
  if k < 1 then invalid_arg "Special.harmonic_sum: k must be >= 1";
  let ratio = Float.pi /. omega0 in
  let w = Cx.scale ratio z in
  let c = coth w in
  Cx.mul (Cx.of_float (ratio ** float_of_int k)) (poly_eval_c (q_poly k) c)

(* [lattice_sum]'s prepared terms: everything about them that does not
   depend on s, computed once, on split re/im floats so a point
   evaluation boxes nothing but its result. *)
type lattice = {
  ratio : float;  (* π/ω₀ *)
  pole_re : float array;
  pole_im : float array;
  res_re : float array;
  res_im : float array;
  scale : float array;  (* (π/ω₀)^order *)
  q : float array array;  (* Q_order, copied: the sum reads no global table *)
  same_pole : bool array;  (* bit-equal pole to the previous term: reuse its coth *)
}

(* The term-by-term sum of [harmonic_sum] with [coth], [poly_eval_c] and
   the [Complex] arithmetic written out on floats, each operation in
   the order and with the rounding of the boxed code: cosh/sinh/cos/sin
   once per class, Smith's division as [Complex.div], Horner from zero
   as [poly_eval_c] (the [+. 0.0] is its [Cx.of_float] imaginary part,
   which turns a -0 into +0), and [Cx.of_float]'s zero imaginary part
   multiplied through by the scale. *)
let[@lint.hot] lattice_eval l s =
  let sr = Cx.re s and si = Cx.im s in
  let acc_re = ref 0.0 and acc_im = ref 0.0 in
  let c_re = ref 0.0 and c_im = ref 0.0 in
  for i = 0 to Array.length l.pole_re - 1 do
    if not l.same_pole.(i) then begin
      let wr = l.ratio *. (sr -. l.pole_re.(i))
      and wi = l.ratio *. (si -. l.pole_im.(i)) in
      if Float.abs wr > 350.0 then begin
        c_re := (if wr > 0.0 then 1.0 else -1.0);
        c_im := 0.0
      end
      else begin
        let ch = cosh wr and sh = sinh wr and co = cos wi and sn = sin wi in
        (* cosh w / sinh w *)
        let xr = ch *. co and xi = sh *. sn in
        let yr = sh *. co and yi = ch *. sn in
        if Float.abs yr >= Float.abs yi then begin
          let r = yi /. yr in
          let d = yr +. (r *. yi) in
          c_re := (xr +. (r *. xi)) /. d;
          c_im := (xi -. (r *. xr)) /. d
        end
        else begin
          let r = yr /. yi in
          let d = yi +. (r *. yr) in
          c_re := ((r *. xr) +. xi) /. d;
          c_im := ((r *. xi) -. xr) /. d
        end
      end
    end;
    let cr = !c_re and ci = !c_im in
    let q = l.q.(i) in
    let pr = ref 0.0 and pi = ref 0.0 in
    for k = Array.length q - 1 downto 0 do
      let ar = !pr and ai = !pi in
      pr := ((ar *. cr) -. (ai *. ci)) +. q.(k);
      pi := ((ar *. ci) +. (ai *. cr)) +. 0.0
    done;
    let kr = l.scale.(i) and ki = 0.0 in
    let tr = (kr *. !pr) -. (ki *. !pi) and ti = (kr *. !pi) +. (ki *. !pr) in
    let rr = l.res_re.(i) and ri = l.res_im.(i) in
    acc_re := !acc_re +. ((rr *. tr) -. (ri *. ti));
    acc_im := !acc_im +. ((rr *. ti) +. (ri *. tr))
  done;
  Cx.make !acc_re !acc_im

let lattice_sum ~omega0 terms =
  let ratio = Float.pi /. omega0 in
  let bits a = Int64.bits_of_float a in
  let same a b =
    Int64.equal (bits (Cx.re a)) (bits (Cx.re b))
    && Int64.equal (bits (Cx.im a)) (bits (Cx.im b))
  in
  let terms = Array.of_list terms in
  Array.iter
    (fun { Partial_fraction.order; _ } ->
      if order < 1 then invalid_arg "Special.lattice_sum: order must be >= 1")
    terms;
  let field f = Array.map f terms in
  let l =
    {
      ratio;
      pole_re = field (fun t -> Cx.re t.Partial_fraction.pole);
      pole_im = field (fun t -> Cx.im t.Partial_fraction.pole);
      res_re = field (fun t -> Cx.re t.Partial_fraction.residue);
      res_im = field (fun t -> Cx.im t.Partial_fraction.residue);
      scale = field (fun t -> ratio ** float_of_int t.Partial_fraction.order);
      q = field (fun t -> Array.copy (q_poly t.Partial_fraction.order));
      same_pole =
        Array.mapi
          (fun i t ->
            i > 0 && same terms.(i - 1).Partial_fraction.pole t.Partial_fraction.pole)
          terms;
    }
  in
  lattice_eval l

(* S_k(z + jdω₀) = S_k(z): terms of one order whose poles differ by a
   multiple of jω₀ are one term with the summed residue. A class is
   keyed by its first pole, which every member then carries, so
   [lattice_sum] computes one coth per class. Two poles share a class
   when, moved together by the nearest multiple of jω₀, they are one
   root by [Roots.cluster]'s rule over the poles moved into the strip
   around the real axis. *)
let fold_classes ~omega0 terms =
  let shift p q =
    Cx.jomega (Float.round ((Cx.im q -. Cx.im p) /. omega0) *. omega0)
  in
  let eps =
    Roots.cluster_eps
      (List.map
         (fun { Partial_fraction.pole; _ } -> Cx.sub pole (shift Cx.zero pole))
         terms)
  in
  let same_class p q = Cx.abs (Cx.sub (Cx.sub q (shift p q)) p) <= eps in
  (* classes in order of first appearance, each with its orders in
     order of first appearance *)
  let classes = ref [] in
  List.iter
    (fun { Partial_fraction.pole; order; residue } ->
      match List.find_opt (fun (rep, _) -> same_class rep pole) !classes with
      | None -> classes := !classes @ [ (pole, ref [ (order, residue) ]) ]
      | Some (_, members) ->
          members :=
            if List.mem_assoc order !members then
              List.map
                (fun (o, r) -> if o = order then (o, Cx.add r residue) else (o, r))
                !members
            else !members @ [ (order, residue) ])
    terms;
  List.concat_map
    (fun (pole, members) ->
      List.map
        (fun (order, residue) -> { Partial_fraction.pole; order; residue })
        !members)
    !classes

let harmonic_sum_truncated ~k ~omega0 ~terms z =
  (* Sum symmetric pairs together for cancellation-friendly accumulation. *)
  let term m =
    Cx.pow_int (Cx.add z (Cx.jomega (float_of_int m *. omega0))) (-k)
  in
  let acc = ref (term 0) in
  for m = 1 to terms do
    acc := Cx.add !acc (Cx.add (term m) (term (-m)))
  done;
  !acc

let sinc x = if Float.abs x < 1e-8 then 1.0 -. (x *. x /. 6.0) else sin x /. x
