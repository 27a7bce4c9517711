type t = Complex.t

let zero = Complex.zero
let one = Complex.one
let j = { Complex.re = 0.0; im = 1.0 }
let of_float x = { Complex.re = x; im = 0.0 }
let make re im = { Complex.re; im }
let jomega w = { Complex.re = 0.0; im = w }
let re (z : t) = z.re
let im (z : t) = z.im
let add = Complex.add
let sub = Complex.sub
let mul = Complex.mul
let div = Complex.div
let neg = Complex.neg
let inv = Complex.inv
let conj = Complex.conj
let scale a (z : t) = { Complex.re = a *. z.re; im = a *. z.im }
let abs = Complex.norm
let arg = Complex.arg
let norm2 = Complex.norm2
let sqrt = Complex.sqrt
let exp = Complex.exp
let log = Complex.log

let pow_int z n =
  (* Binary exponentiation; negative exponents go through [inv] once. *)
  let rec go acc base n =
    if n = 0 then acc
    else if n land 1 = 1 then go (mul acc base) (mul base base) (n asr 1)
    else go acc (mul base base) (n asr 1)
  in
  if n >= 0 then go one z n else inv (go one z (-n))

let cis theta = { Complex.re = cos theta; im = sin theta }
let is_finite z = Float.is_finite (re z) && Float.is_finite (im z)

let is_zero (z : t) = Float.equal z.re 0.0 && Float.equal z.im 0.0

let approx ?(tol = 1e-9) a b =
  abs (sub a b) <= tol *. (1.0 +. abs a +. abs b)

let pp ppf (z : t) =
  if z.im >= 0.0 then Format.fprintf ppf "%.6g+%.6gi" z.re z.im
  else Format.fprintf ppf "%.6g-%.6gi" z.re (Stdlib.abs_float z.im)

let to_string z = Format.asprintf "%a" pp z

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
end
