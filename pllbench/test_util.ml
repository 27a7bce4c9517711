(* Self-tests of the benchmark helpers: the percentile rule, the
   determinism of the Poisson schedule, and span self-time arithmetic. *)

open Util

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) <= 1e-12

let () =
  (* percentile rule: p99 needs ten samples beyond it, so n >= 1000 *)
  check "p99 not reportable at n=999" (not (Stat.reportable ~n:999 0.99));
  check "p99 reportable at n=1000" (Stat.reportable ~n:1000 0.99);
  check "beyond p99 of 1000 is 10" (Stat.beyond ~n:1000 0.99 = 10);
  check "p99.9 needs n >= 10000" (Stat.reportable ~n:10_000 0.999 && not (Stat.reportable ~n:9_999 0.999));
  check "p50 reportable at n=20" (Stat.reportable ~n:20 0.5);
  let xs = List.init 1000 (fun i -> float_of_int (i + 1)) in
  check "nearest-rank p99 of 1..1000" (Stat.quantile xs 0.99 = 990.0);
  check "nearest-rank median of 1..1000" (Stat.median xs = 500.0);
  check "median of [3;1;2]" (Stat.median [ 3.0; 1.0; 2.0 ] = 2.0);
  (* per-round summaries: the median over rounds ignores one bad round *)
  let round k = List.init 1000 (fun i -> float_of_int (i + 1) *. k) in
  let p50, p99, rate =
    Stat.round_summary [ Stat.round (round 1.0); Stat.round (round 1.0); Stat.round (round 100.0) ]
  in
  check "round p50" (p50 = 500.0);
  check "round p99" (p99 = 990.0);
  check "round rate: 1000 samples per 500.5 s" (close rate (1e3 *. 1000.0 /. 500500.0));
  check "round samples" (Stat.samples [ Stat.round (round 1.0); Stat.round (round 2.0) ] = 2000);
  (* Poisson schedule: same seed, same schedule; sorted; rate honoured *)
  let a = Sched.poisson ~seed:7 ~rate:200.0 ~n:10_000 in
  let b = Sched.poisson ~seed:7 ~rate:200.0 ~n:10_000 in
  let c = Sched.poisson ~seed:8 ~rate:200.0 ~n:10_000 in
  check "schedule deterministic per seed" (a = b);
  check "schedule differs across seeds" (a <> c);
  check "schedule has n arrivals" (Array.length a = 10_000);
  check "schedule ascending"
    (let ok = ref true in
     Array.iteri (fun i t -> if t <= 0.0 || (i > 0 && t < a.(i - 1)) then ok := false) a;
     !ok);
  check "schedule rate within 5% of 200/s"
    (Float.abs ((10_000.0 /. a.(9_999)) -. 200.0) < 10.0);
  (* units follow the metric names *)
  check "unit of points_per_s" (unit_of "points_per_s" = "pts/s");
  check "unit of a staged metric" (unit_of "serve.engine_ms.bode" = "ms");
  check "unit of a self time" (unit_of "self_s.core" = "s");
  check "unit of a counter" (unit_of "farm.steals" = "count");
  (* span self time: parent minus the union of its children *)
  let span id parent layer t0 t1 =
    { Trace.id; parent; name = layer; layer; req = 0; t0; t1 }
  in
  let spans =
    [
      span 1 0 "bench" 0.0 10.0;
      span 2 1 "core" 1.0 4.0;
      (* overlaps span 2: the union 1..5 counts once *)
      span 3 1 "core" 3.0 5.0;
      span 4 2 "numeric" 2.0 3.0;
      (* a child running past its parent counts only inside it *)
      span 5 1 "serve" 9.0 12.0;
    ]
  in
  let self = Trace.self_time spans in
  let self_of id = snd (List.find (fun ((s : Trace.span), _) -> s.id = id) self) in
  check "root self = 10 - |[1,5] u [9,10]|" (close (self_of 1) 5.0);
  check "child self = 3 - 1" (close (self_of 2) 2.0);
  check "leaf self = duration" (close (self_of 4) 1.0);
  let by_layer = Trace.self_by_layer spans in
  check "layer sums"
    (close (List.assoc "bench" by_layer) 5.0
    && close (List.assoc "core" by_layer) 4.0
    && close (List.assoc "numeric" by_layer) 1.0
    && close (List.assoc "serve" by_layer) 3.0);
  check "covered merges overlaps"
    (close (Trace.covered ~lo:0.0 ~hi:10.0 [ (1.0, 3.0); (2.0, 4.0); (6.0, 7.0) ]) 4.0);
  if !failures > 0 then exit 1;
  print_endline "pllbench self-tests: ok"
