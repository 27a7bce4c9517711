let newton_polish ?(steps = 8) p z0 =
  let dp = Poly.derivative p in
  let rec go z n =
    if n = 0 then z
    else
      let d = Poly.eval dp z in
      if Float.equal (Cx.abs d) 0.0 then z
      else begin
        let step = Cx.div (Poly.eval p z) d in
        let z' = Cx.sub z step in
        if (not (Cx.is_finite z')) || Cx.abs step <= 1e-16 *. (1.0 +. Cx.abs z)
        then z
        else go z' (n - 1)
      end
  in
  go z0 steps

let quadratic a b c =
  (* a s^2 + b s + c, complex-stable form using the sign trick *)
  let open Cx.Infix in
  let disc = Cx.sqrt ((b * b) - Cx.scale 4.0 (a * c)) in
  let q =
    if Cx.re (Cx.mul (Cx.conj b) disc) >= 0.0 then
      Cx.scale (-0.5) (b + disc)
    else Cx.scale (-0.5) (b - disc)
  in
  if Float.equal (Cx.abs q) 0.0 then
    let r = Cx.div (Cx.neg b) (Cx.scale 2.0 a) in
    [ r; r ]
  else [ Cx.div q a; Cx.div c q ]

let durand_kerner ?(max_iter = 400) ?(tol = 1e-13) p =
  let pm = Poly.monic p in
  let n = Poly.degree pm in
  (* initial guesses on a circle whose radius tracks the coefficient
     magnitudes (Cauchy-style bound), with an irrational angle offset to
     avoid symmetry traps *)
  let radius =
    let m = ref 0.0 in
    for i = 0 to n - 1 do
      m := Stdlib.max !m (Cx.abs (Poly.coeff pm i))
    done;
    1.0 +. !m
  in
  let zs =
    Array.init n (fun i ->
        Cx.scale radius (Cx.cis ((float_of_int i +. 0.3) *. 2.0 *. Float.pi /. float_of_int n +. 0.42)))
  in
  let iter () =
    let delta = ref 0.0 in
    for i = 0 to n - 1 do
      let zi = zs.(i) in
      let denom = ref Cx.one in
      for k = 0 to n - 1 do
        if k <> i then denom := Cx.mul !denom (Cx.sub zi zs.(k))
      done;
      if Cx.abs !denom > 0.0 then begin
        let step = Cx.div (Poly.eval pm zi) !denom in
        zs.(i) <- Cx.sub zi step;
        delta := Stdlib.max !delta (Cx.abs step /. (1.0 +. Cx.abs zi))
      end
    done;
    !delta
  in
  let rec loop k =
    if k >= max_iter then ()
    else begin
      let d = iter () in
      if d > tol then loop (k + 1)
    end
  in
  loop 0;
  Array.to_list (Array.map (newton_polish p) zs)

let all ?max_iter ?tol p =
  if Poly.is_zero p then invalid_arg "Roots.all: zero polynomial";
  match Poly.degree p with
  | 0 -> []
  | 1 -> [ Cx.div (Cx.neg (Poly.coeff p 0)) (Poly.coeff p 1) ]
  | 2 -> quadratic (Poly.coeff p 2) (Poly.coeff p 1) (Poly.coeff p 0)
  | _ -> durand_kerner ?max_iter ?tol p

let cluster_eps ?(tol = 1e-6) roots =
  let scale_mag =
    List.fold_left (fun acc z -> Stdlib.max acc (Cx.abs z)) 1.0 roots
  in
  tol *. scale_mag

let cluster ?tol roots =
  let eps = cluster_eps ?tol roots in
  let groups : (Cx.t * Cx.t list) list ref = ref [] in
  List.iter
    (fun z ->
      let rec place acc = function
        | [] -> List.rev ((z, [ z ]) :: acc)
        | (rep, members) :: rest ->
            if Cx.abs (Cx.sub rep z) <= eps then
              let members = z :: members in
              let n = float_of_int (List.length members) in
              let mean =
                Cx.scale (1.0 /. n)
                  (List.fold_left Cx.add Cx.zero members)
              in
              List.rev_append acc ((mean, members) :: rest)
            else place ((rep, members) :: acc) rest
      in
      groups := place [] !groups)
    roots;
  List.map (fun (rep, members) -> (rep, List.length members)) !groups
