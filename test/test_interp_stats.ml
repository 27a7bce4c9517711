open Numeric
open Helpers

let test_linear_interp () =
  let xs = [| 0.0; 1.0; 3.0 |] and ys = [| 0.0; 10.0; 30.0 |] in
  check_close "at node" 10.0 (Interp.linear xs ys 1.0);
  check_close "between" 5.0 (Interp.linear xs ys 0.5);
  check_close "uneven spacing" 20.0 (Interp.linear xs ys 2.0);
  check_close "clamp low" 0.0 (Interp.linear xs ys (-5.0));
  check_close "clamp high" 30.0 (Interp.linear xs ys 99.0)

let test_uniform_interp () =
  let ys = [| 0.0; 1.0; 4.0; 9.0 |] in
  check_close "node" 4.0 (Interp.uniform ~t0:0.0 ~dt:1.0 ys 2.0);
  check_close "midpoint" 2.5 (Interp.uniform ~t0:0.0 ~dt:1.0 ys 1.5);
  check_close "offset origin" 1.0 (Interp.uniform ~t0:10.0 ~dt:1.0 ys 11.0)

let test_resample () =
  let xs = [| 0.0; 2.0; 4.0 |] and ys = [| 0.0; 4.0; 8.0 |] in
  let t0, dt, samples = Interp.resample_uniform xs ys ~n:5 in
  check_close "t0" 0.0 t0;
  check_close "dt" 1.0 dt;
  check_close "sample 3" 6.0 samples.(3)

let test_stats_basics () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_close "mean" 2.5 (Stats.mean xs);
  check_close "variance" 1.25 (Stats.variance xs);
  check_close "std" (sqrt 1.25) (Stats.std_dev xs);
  check_close "max_abs" 4.0 (Stats.max_abs [| -4.0; 3.0 |])

let test_rel_err () =
  check_close "rel_err" 0.1 (Stats.rel_err 9.0 10.0);
  check_close "rel_err zero safe" 0.0 (Stats.rel_err 0.0 0.0)

let test_db_deg () =
  check_close "db of 10" 20.0 (Stats.db 10.0);
  check_close "deg" 180.0 (Stats.deg Float.pi);
  check_close "rad" Float.pi (Stats.rad 180.0)

let prop_interp_exact_on_linear =
  qcheck ~count:40 "linear interp exact on affine data"
    (QCheck2.Gen.triple small_float small_float (QCheck2.Gen.float_range 0.0 5.0))
    (fun (a, b, x) ->
      let xs = [| 0.0; 1.0; 2.0; 5.0 |] in
      let ys = Array.map (fun t -> (a *. t) +. b) xs in
      let expected = (a *. x) +. b in
      Float.abs (Interp.linear xs ys x -. expected)
      < 1e-9 *. (1.0 +. Float.abs expected))

let suite =
  [
    case "linear interpolation" test_linear_interp;
    case "uniform-grid interpolation" test_uniform_interp;
    case "resampling" test_resample;
    case "stats basics" test_stats_basics;
    case "relative error" test_rel_err;
    case "dB and degrees" test_db_deg;
    prop_interp_exact_on_linear;
  ]
