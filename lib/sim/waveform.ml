type t = { t0 : float; dt : float; data : float array }

let create ~t0 ~dt data =
  if dt <= 0.0 then invalid_arg "Waveform.create: dt must be positive";
  { t0; dt; data }

let length w = Array.length w.data
let time_of_index w i = w.t0 +. (float_of_int i *. w.dt)
let value w i = w.data.(i)
let at w t = Numeric.Interp.uniform ~t0:w.t0 ~dt:w.dt w.data t
let map f w = { w with data = Array.map f w.data }

let slice w ~from_time ~to_time =
  let i0 = Stdlib.max 0 (int_of_float (floor ((from_time -. w.t0) /. w.dt))) in
  let i1 =
    Stdlib.min (length w - 1)
      (int_of_float (ceil ((to_time -. w.t0) /. w.dt)))
  in
  if i1 < i0 then invalid_arg "Waveform.slice: empty interval";
  {
    t0 = time_of_index w i0;
    dt = w.dt;
    data = Array.sub w.data i0 (i1 - i0 + 1);
  }

let max_abs w = Numeric.Stats.max_abs w.data
let to_array w = Array.copy w.data
