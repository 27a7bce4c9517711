type t = float array array

let make r c x = Array.init r (fun _ -> Array.make c x)
let init r c f = Array.init r (fun i -> Array.init c (fun k -> f i k))
let of_rows a = Array.map Array.copy a
let rows (m : t) = Array.length m
let cols (m : t) = if rows m = 0 then 0 else Array.length m.(0)
let get (m : t) i k = m.(i).(k)
let set (m : t) i k x = m.(i).(k) <- x
let copy (m : t) = Array.map Array.copy m
let zeros r c = make r c 0.0
let identity n = init n n (fun i k -> if i = k then 1.0 else 0.0)

let lift2 op a b =
  if rows a <> rows b || cols a <> cols b then
    invalid_arg "Rmat.lift2: dimension mismatch";
  init (rows a) (cols a) (fun i k -> op a.(i).(k) b.(i).(k))

let add = lift2 ( +. )
let sub = lift2 ( -. )
let scale s m = Array.map (Array.map (fun x -> s *. x)) m

let mul a b =
  if cols a <> rows b then invalid_arg "Rmat.mul: dimension mismatch";
  let n = rows a and p = cols b and q = cols a in
  let out = zeros n p in
  for i = 0 to n - 1 do
    for l = 0 to q - 1 do
      let ail = a.(i).(l) in
      if not (Float.equal ail 0.0) then
        for k = 0 to p - 1 do
          out.(i).(k) <- out.(i).(k) +. (ail *. b.(l).(k))
        done
    done
  done;
  out

let mv m v =
  if cols m <> Array.length v then invalid_arg "Rmat.mv: dimension mismatch";
  Array.init (rows m) (fun i ->
      let acc = ref 0.0 in
      for k = 0 to cols m - 1 do
        acc := !acc +. (m.(i).(k) *. v.(k))
      done;
      !acc)

let norm_inf m =
  Array.fold_left
    (fun acc r ->
      Stdlib.max acc (Array.fold_left (fun a x -> a +. Float.abs x) 0.0 r))
    0.0 m

let to_cmat m = Cmat.init (rows m) (cols m) (fun i k -> Cx.of_float m.(i).(k))

let solve a b =
  let x = Lu.solve_system (to_cmat a) (Cvec.of_real_array b) in
  Array.init (Array.length b) (fun i -> Cx.re (Cvec.get x i))

let inverse a =
  let inv = Lu.inverse (to_cmat a) in
  init (rows a) (cols a) (fun i k -> Cx.re (Cmat.get inv i k))

let expm a =
  let n = rows a in
  if cols a <> n then invalid_arg "Rmat.expm: matrix not square";
  (* scaling *)
  let nrm = norm_inf a in
  let squarings =
    if nrm <= 0.5 then 0
    else
      let s = int_of_float (ceil (log (nrm /. 0.5) /. log 2.0)) in
      Stdlib.max 0 s
  in
  let a_scaled = scale (1.0 /. Float.of_int (1 lsl squarings)) a in
  (* degree-6 Padé: N = sum c_k A^k, D = sum (-1)^k c_k A^k *)
  let c = [| 1.0; 0.5; 5.0 /. 44.0; 1.0 /. 66.0; 1.0 /. 792.0; 1.0 /. 15840.0; 1.0 /. 665280.0 |] in
  let num = ref (zeros n n) and den = ref (zeros n n) in
  let pk = ref (identity n) in
  for k = 0 to 6 do
    num := add !num (scale c.(k) !pk);
    den := add !den (scale (if k mod 2 = 0 then c.(k) else -.c.(k)) !pk);
    if k < 6 then pk := mul !pk a_scaled
  done;
  (* solve D X = N column-wise *)
  let f = Lu.decompose (to_cmat !den) in
  let x_c = Lu.solve_mat f (to_cmat !num) in
  let result = ref (init n n (fun i k -> Cx.re (Cmat.get x_c i k))) in
  for _ = 1 to squarings do
    result := mul !result !result
  done;
  !result

let trace m =
  let n = Stdlib.min (rows m) (cols m) in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. m.(i).(i)
  done;
  !acc

let char_poly a =
  let n = rows a in
  if cols a <> n then invalid_arg "Rmat.char_poly: matrix not square";
  (* Faddeev–LeVerrier: M_1 = A, c_{n-1} = -tr M_1;
     M_{k+1} = A (M_k + c_{n-k} I), c_{n-k-1} = -tr(M_{k+1})/(k+1). *)
  let coeffs = Array.make (n + 1) 0.0 in
  coeffs.(n) <- 1.0;
  let m = ref (copy a) in
  for k = 1 to n do
    let c = -.trace !m /. float_of_int k in
    coeffs.(n - k) <- c;
    if k < n then m := mul a (add !m (scale c (identity n)))
  done;
  Poly.of_coeffs (Array.to_list (Array.map Cx.of_float coeffs))

let eigenvalues a = Roots.all (char_poly a)

let equal ?(tol = 1e-9) a b =
  rows a = rows b && cols a = cols b
  && begin
       let ok = ref true in
       for i = 0 to rows a - 1 do
         for k = 0 to cols a - 1 do
           if Float.abs (a.(i).(k) -. b.(i).(k))
              > tol *. (1.0 +. Float.abs a.(i).(k) +. Float.abs b.(i).(k))
           then ok := false
         done
       done;
       !ok
     end
