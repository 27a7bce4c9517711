open Numeric

type point = {
  omega : float;
  response : Cx.t;
  mag_db : float;
  phase_deg : float;
}

let unwrap phases =
  let n = Array.length phases in
  if n = 0 then [||]
  else begin
    let out = Array.make n phases.(0) in
    let offset = ref 0.0 in
    for i = 1 to n - 1 do
      let d = phases.(i) -. phases.(i - 1) in
      if d > 180.0 then offset := !offset -. 360.0
      else if d < -180.0 then offset := !offset +. 360.0;
      out.(i) <- phases.(i) +. !offset
    done;
    out
  end

let of_responses ~ws responses =
  if Array.length ws <> Array.length responses then
    invalid_arg "Bode.of_responses: grid and responses differ in length";
  let raw_phases = Array.map (fun z -> Stats.deg (Cx.arg z)) responses in
  let phases = unwrap raw_phases in
  Array.init (Array.length ws) (fun i ->
      {
        omega = ws.(i);
        response = responses.(i);
        mag_db = Stats.db (Cx.abs responses.(i));
        phase_deg = phases.(i);
      })

let sweep ?pool f ~lo ~hi ~points =
  let ws = Optimize.logspace lo hi points in
  of_responses ~ws (Parallel.Sweep.grid ?pool f ws)

let sweep_tf ?pool tf = sweep ?pool (Tf.freq_response tf)
