open Numeric

type t = Rat.t

let make ~num ~den =
  Rat.make (Poly.of_real_coeffs num) (Poly.of_real_coeffs den)

let of_rat r = r
let to_rat r = r
let gain k = make ~num:[ k ] ~den:[ 1.0 ]
let integrator = make ~num:[ 1.0 ] ~den:[ 0.0; 1.0 ]
let double_integrator = make ~num:[ 1.0 ] ~den:[ 0.0; 0.0; 1.0 ]

let first_order_pole wp =
  if wp <= 0.0 then invalid_arg "Tf.first_order_pole: frequency must be positive";
  make ~num:[ 1.0 ] ~den:[ 1.0; 1.0 /. wp ]

let first_order_zero wz =
  if wz <= 0.0 then invalid_arg "Tf.first_order_zero: frequency must be positive";
  make ~num:[ 1.0; 1.0 /. wz ] ~den:[ 1.0 ]

let from_zpk ~zeros ~poles ~gain =
  let num = Poly.from_roots (List.map Cx.of_float zeros) in
  let den = Poly.from_roots (List.map Cx.of_float poles) in
  Rat.make (Poly.scale (Cx.of_float gain) num) den

let eval = Rat.eval
let freq_response tf w = Rat.eval tf (Cx.jomega w)
let mul = Rat.mul
let scale k = Rat.scale (Cx.of_float k)
let feedback_unity = Rat.feedback_unity
let poles = Rat.poles
let zeros = Rat.zeros

let dc_gain tf = Cx.re (Rat.eval tf Cx.zero)

let is_proper = Rat.is_proper

let is_stable ?(tol = 1e-9) tf =
  let ps = poles tf in
  let scale_mag = List.fold_left (fun m p -> Stdlib.max m (Cx.abs p)) 1.0 ps in
  List.for_all (fun p -> Cx.re p < -.tol *. scale_mag) ps

let num_coeffs tf = Array.map Cx.re (Poly.coeffs tf.Rat.num)
let den_coeffs tf = Array.map Cx.re (Poly.coeffs tf.Rat.den)
let pp = Rat.pp
