open Helpers
module Waveform = Sim.Waveform

let w = Waveform.create ~t0:1.0 ~dt:0.5 [| 0.0; 1.0; 4.0; 9.0; 16.0 |]

let test_accessors () =
  check_int "length" 5 (Waveform.length w);
  check_close "time_of_index" 2.0 (Waveform.time_of_index w 2);
  check_close "value" 4.0 (Waveform.value w 2)

let test_interpolation () =
  check_close "at node" 1.0 (Waveform.at w 1.5);
  check_close "between nodes" 2.5 (Waveform.at w 1.75);
  check_close "clamped low" 0.0 (Waveform.at w 0.0);
  check_close "clamped high" 16.0 (Waveform.at w 10.0)

let test_map () =
  let doubled = Waveform.map (fun x -> 2.0 *. x) w in
  check_close "mapped" 8.0 (Waveform.value doubled 2);
  check_close "original intact" 4.0 (Waveform.value w 2)

let test_slice () =
  let s = Waveform.slice w ~from_time:1.5 ~to_time:2.5 in
  check_int "slice length" 3 (Waveform.length s);
  check_close "slice start time" 1.5 (Waveform.time_of_index s 0);
  check_close "slice first value" 1.0 (Waveform.value s 0);
  Alcotest.check_raises "empty slice"
    (Invalid_argument "Waveform.slice: empty interval") (fun () ->
      ignore (Waveform.slice w ~from_time:5.0 ~to_time:4.0))

let test_stats () =
  let v = Waveform.create ~t0:0.0 ~dt:1.0 [| 3.0; -4.0 |] in
  check_close "max_abs" 4.0 (Waveform.max_abs v)

let test_validation () =
  Alcotest.check_raises "bad dt"
    (Invalid_argument "Waveform.create: dt must be positive") (fun () ->
      ignore (Waveform.create ~t0:0.0 ~dt:0.0 [| 1.0 |]))

let test_to_array_copies () =
  let a = Waveform.to_array w in
  a.(0) <- 99.0;
  check_close "copy isolated" 0.0 (Waveform.value w 0)

let suite =
  [
    case "accessors" test_accessors;
    case "interpolation" test_interpolation;
    case "map" test_map;
    case "slice" test_slice;
    case "stats" test_stats;
    case "validation" test_validation;
    case "to_array copies" test_to_array_copies;
  ]
