open Numeric

type t = { a : Rmat.t; b : float array; c : float array; d : float }

let of_tf tf =
  if not (Tf.is_proper tf) then invalid_arg "Ss.of_tf: improper transfer function";
  let num = Tf.num_coeffs tf and den = Tf.den_coeffs tf in
  let n = Array.length den - 1 in
  let lead = den.(n) in
  let den = Array.map (fun x -> x /. lead) den in
  let num = Array.map (fun x -> x /. lead) num in
  if n = 0 then
    { a = Rmat.zeros 0 0; b = [||]; c = [||]; d = (if Array.length num > 0 then num.(0) else 0.0) }
  else begin
    let d = if Array.length num > n then num.(n) else 0.0 in
    (* strictly proper part coefficients: b_i - d * a_i *)
    let bpoly =
      Array.init n (fun i ->
          (if i < Array.length num then num.(i) else 0.0) -. (d *. den.(i)))
    in
    let a =
      Rmat.init n n (fun i k ->
          if i < n - 1 then if k = i + 1 then 1.0 else 0.0
          else -.den.(k))
    in
    let b = Array.init n (fun i -> if i = n - 1 then 1.0 else 0.0) in
    let c = bpoly in
    { a; b; c; d }
  end

let order ss = Rmat.rows ss.a

let eval ss s =
  let n = order ss in
  if n = 0 then Cx.of_float ss.d
  else begin
    let si_a =
      Cmat.init n n (fun i k ->
          let aik = Cx.of_float (-.Rmat.get ss.a i k) in
          if i = k then Cx.add s aik else aik)
    in
    let x = Lu.solve_system si_a (Cvec.of_real_array ss.b) in
    let acc = ref (Cx.of_float ss.d) in
    for i = 0 to n - 1 do
      acc := Cx.add !acc (Cx.scale ss.c.(i) (Cvec.get x i))
    done;
    !acc
  end

let derivative ss x u =
  let ax = Rmat.mv ss.a x in
  Array.init (order ss) (fun i -> ax.(i) +. (ss.b.(i) *. u))

let output ss x u =
  let acc = ref (ss.d *. u) in
  for i = 0 to order ss - 1 do
    acc := !acc +. (ss.c.(i) *. x.(i))
  done;
  !acc

let discretize ss ~dt =
  let n = order ss in
  (* augmented exponential: [[A B];[0 0]] -> [[phi gamma];[0 1]] *)
  let m =
    Rmat.init (n + 1) (n + 1) (fun i k ->
        if i < n && k < n then Rmat.get ss.a i k
        else if i < n && k = n then ss.b.(i)
        else 0.0)
  in
  let em = Rmat.expm (Rmat.scale dt m) in
  let phi = Rmat.init n n (fun i k -> Rmat.get em i k) in
  let gamma = Array.init n (fun i -> Rmat.get em i n) in
  (phi, gamma)

let impulse_state ss w = Array.map (fun bi -> bi *. w) ss.b
