open Numeric

type t = Rat.t

let make ~num ~den =
  Rat.make (Poly.of_real_coeffs num) (Poly.of_real_coeffs den)

let eval = Rat.eval

let freq_response h ~period w = Rat.eval h (Cx.exp (Cx.jomega (w *. period)))

let add = Rat.add
let mul = Rat.mul
let scale k = Rat.scale (Cx.of_float k)
let feedback_unity = Rat.feedback_unity
let poles = Rat.poles

let is_stable ?(tol = 1e-9) h =
  List.for_all (fun p -> Cx.abs p < 1.0 -. tol) (poles h)

let from_state_space ~phi ~b ~c =
  let n = Rmat.rows phi in
  if n = 0 then Rat.zero
  else begin
    (* Faddeev–LeVerrier: den(z) = det(zI - Φ), and the matrix
       coefficients B_k of adj(zI - Φ) = Σ_{k=0}^{n-1} B_k z^{n-1-k} come
       out of the same recursion: B_0 = I, c_{n-k} = -tr(Φ B_{k-1})/k,
       B_k = Φ B_{k-1} + c_{n-k} I. *)
    let den = Array.make (n + 1) 0.0 in
    den.(n) <- 1.0;
    let num = Array.make n 0.0 in
    let bk = ref (Rmat.identity n) in
    let cbkb bk =
      let v = Rmat.mv bk b in
      let acc = ref 0.0 in
      Array.iteri (fun i ci -> acc := !acc +. (ci *. v.(i))) c;
      !acc
    in
    let trace m =
      let acc = ref 0.0 in
      for i = 0 to n - 1 do
        acc := !acc +. Rmat.get m i i
      done;
      !acc
    in
    for k = 0 to n - 1 do
      num.(n - 1 - k) <- cbkb !bk;
      let phib = Rmat.mul phi !bk in
      let coeff = -.trace phib /. float_of_int (k + 1) in
      den.(n - 1 - k) <- coeff;
      bk := Rmat.add phib (Rmat.scale coeff (Rmat.identity n))
    done;
    Rat.make
      (Poly.of_real_coeffs (Array.to_list num))
      (Poly.of_real_coeffs (Array.to_list den))
  end
