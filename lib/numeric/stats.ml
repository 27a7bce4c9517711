let mean xs =
  if Array.length xs = 0 then invalid_arg "Stats.mean: empty array";
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let variance xs =
  let m = mean xs in
  Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs
  /. float_of_int (Array.length xs)

let std_dev xs = sqrt (variance xs)

let max_abs xs = Array.fold_left (fun acc x -> Stdlib.max acc (Float.abs x)) 0.0 xs

let rel_err a b =
  Float.abs (a -. b) /. Stdlib.max (Stdlib.max (Float.abs a) (Float.abs b)) 1e-300

let db x = 20.0 *. log10 x
let deg r = r *. 180.0 /. Float.pi
let rad d = d *. Float.pi /. 180.0
