type t = Cx.t array

let init n f = Array.init n f
let of_array a = Array.copy a
let of_real_array a = Array.map Cx.of_float a
let dim = Array.length
let get (v : t) i = v.(i)
let ones n = Array.make n Cx.one

let lift2 op a b =
  if dim a <> dim b then invalid_arg "Cvec.lift2: dimension mismatch";
  Array.init (dim a) (fun i -> op a.(i) b.(i))

let add = lift2 Cx.add
let sub = lift2 Cx.sub
let scale a v = Array.map (Cx.mul a) v

let dot a b =
  if dim a <> dim b then invalid_arg "Cvec.dot: dimension mismatch";
  let acc = ref Cx.zero in
  for i = 0 to dim a - 1 do
    acc := Cx.add !acc (Cx.mul a.(i) b.(i))
  done;
  !acc

let dot_herm a b =
  if dim a <> dim b then invalid_arg "Cvec.dot_herm: dimension mismatch";
  let acc = ref Cx.zero in
  for i = 0 to dim a - 1 do
    acc := Cx.add !acc (Cx.mul (Cx.conj a.(i)) b.(i))
  done;
  !acc

let sum v = Array.fold_left Cx.add Cx.zero v

let norm2 v = Stdlib.sqrt (Cx.re (dot_herm v v))

let norm_inf v =
  Array.fold_left (fun acc z -> Stdlib.max acc (Cx.abs z)) 0.0 v
