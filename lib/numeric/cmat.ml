type t = Cx.t array array

let make r c z = Array.init r (fun _ -> Array.make c z)
let init r c f = Array.init r (fun i -> Array.init c (fun k -> f i k))
let rows (m : t) = Array.length m
let cols (m : t) = if rows m = 0 then 0 else Array.length m.(0)
let get (m : t) i k = m.(i).(k)
let set (m : t) i k z = m.(i).(k) <- z
let zeros r c = make r c Cx.zero
let identity n = init n n (fun i k -> if i = k then Cx.one else Cx.zero)

let of_rows a = Array.map Array.copy a
let row (m : t) i = Cvec.of_array m.(i)
let col (m : t) k = Cvec.init (rows m) (fun i -> m.(i).(k))

let lift2 op a b =
  if rows a <> rows b || cols a <> cols b then
    invalid_arg "Cmat.lift2: dimension mismatch";
  init (rows a) (cols a) (fun i k -> op a.(i).(k) b.(i).(k))

let add = lift2 Cx.add
let sub = lift2 Cx.sub
let scale z m = Array.map (Array.map (Cx.mul z)) m

let mul a b =
  if cols a <> rows b then invalid_arg "Cmat.mul: dimension mismatch";
  let n = rows a and p = cols b and q = cols a in
  let out = zeros n p in
  for i = 0 to n - 1 do
    let ai = a.(i) and oi = out.(i) in
    for l = 0 to q - 1 do
      let ail = ai.(l) in
      if not (Cx.is_zero ail) then begin
        let bl = b.(l) in
        for k = 0 to p - 1 do
          oi.(k) <- Cx.add oi.(k) (Cx.mul ail bl.(k))
        done
      end
    done
  done;
  out

let mv m v =
  if cols m <> Cvec.dim v then invalid_arg "Cmat.mv: dimension mismatch";
  Cvec.init (rows m) (fun i ->
      let acc = ref Cx.zero in
      for k = 0 to cols m - 1 do
        acc := Cx.add !acc (Cx.mul m.(i).(k) (Cvec.get v k))
      done;
      !acc)

let outer u v =
  init (Cvec.dim u) (Cvec.dim v) (fun i k ->
      Cx.mul (Cvec.get u i) (Cvec.get v k))

let transpose m = init (cols m) (rows m) (fun i k -> m.(k).(i))

let fold f acc m =
  Array.fold_left (fun acc r -> Array.fold_left f acc r) acc m

let sum_entries m = fold Cx.add Cx.zero m

let norm_frobenius m = Stdlib.sqrt (fold (fun a z -> a +. Cx.norm2 z) 0.0 m)

let equal ?(tol = 1e-9) a b =
  rows a = rows b && cols a = cols b
  && begin
       let ok = ref true in
       for i = 0 to rows a - 1 do
         for k = 0 to cols a - 1 do
           if not (Cx.approx ~tol a.(i).(k) b.(i).(k)) then ok := false
         done
       done;
       !ok
     end
