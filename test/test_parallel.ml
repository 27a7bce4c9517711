(* The parallel sweep engine: Pool.map must be observationally identical
   to Array.map — same values, same order, same exceptions — for every
   pool size, chunk size and input size, and a pool must survive worker
   exceptions and reuse its domains across calls. Pool.map_chunked
   enters and leaves once per chunk (also when a chunk raises), and
   Sweep.grid_local, built on it, hands every point of a chunk one lane
   instance. *)

open Helpers
module Pool = Parallel.Pool
module Sweep = Parallel.Sweep

exception Boom of int

let gen_domains = QCheck2.Gen.int_range 1 5
let gen_chunk = QCheck2.Gen.int_range 1 9

(* sizes straddle the chunking: empty, smaller than any chunk, larger *)
let gen_input = QCheck2.Gen.(array_size (int_range 0 65) small_float)

let test_map_matches_array_map =
  qcheck ~count:60 "Pool.map = Array.map (random quadratic)"
    QCheck2.Gen.(
      tup4 gen_domains gen_chunk gen_input (tup3 small_float small_float small_float))
    (fun (domains, chunk, arr, (a, b, c)) ->
      let f x = (a *. x *. x) +. (b *. x) +. c in
      let expected = Array.map f arr in
      let got = Pool.with_pool ~domains (fun p -> Pool.map ~chunk p f arr) in
      expected = got)

let test_mapi_init_match =
  qcheck ~count:40 "Pool.mapi/init = Array.mapi/init"
    QCheck2.Gen.(tup3 gen_domains gen_chunk (int_range 0 70))
    (fun (domains, chunk, n) ->
      let f i x = (i * 3) + int_of_float x in
      let arr = Array.init n (fun i -> float_of_int (i * i)) in
      Pool.with_pool ~domains (fun p ->
          Pool.mapi ~chunk p f arr = Array.mapi f arr
          && Pool.init ~chunk p n (fun i -> i * i) = Array.init n (fun i -> i * i)))

let test_exception_propagates =
  qcheck ~count:40 "worker exceptions propagate, pool survives"
    QCheck2.Gen.(tup3 gen_domains gen_chunk (int_range 1 60))
    (fun (domains, chunk, n) ->
      Pool.with_pool ~domains (fun p ->
          let bad = n / 2 in
          let raised =
            match
              Pool.map ~chunk p
                (fun i -> if i = bad then raise (Boom i) else i)
                (Array.init n Fun.id)
            with
            | _ -> false
            | exception Boom i -> i = bad
          in
          (* the pool must stay fully usable after the failed map *)
          let alive = Pool.map p succ (Array.init 16 Fun.id) in
          raised && alive = Array.init 16 (fun i -> i + 1)))

let test_empty_and_tiny () =
  Pool.with_pool ~domains:4 (fun p ->
      check_int "empty map" 0 (Array.length (Pool.map p succ [||]));
      check_true "singleton, chunk larger than input"
        (Pool.map ~chunk:64 p succ [| 41 |] = [| 42 |]);
      check_true "init 0" (Pool.init p 0 Fun.id = [||]))

let domain_ids_of_map p =
  let ids = Hashtbl.create 8 in
  let m = Mutex.create () in
  ignore
    (Pool.map ~chunk:1 p
       (fun i ->
         Mutex.lock m;
         Hashtbl.replace ids (Domain.self () :> int) ();
         Mutex.unlock m;
         ignore (Sys.opaque_identity (sin (float_of_int i)));
         i)
       (Array.init 64 Fun.id));
  ids

let test_domain_reuse () =
  Pool.with_pool ~domains:4 (fun p ->
      let seen = Hashtbl.create 8 in
      for _ = 1 to 5 do
        Hashtbl.iter (fun id () -> Hashtbl.replace seen id ()) (domain_ids_of_map p)
      done;
      (* if each map spawned fresh domains, five calls would accumulate
         far more than [size] distinct domain ids *)
      check_true "repeated maps reuse the pool's domains"
        (Hashtbl.length seen <= Pool.size p);
      let st = Pool.stats p in
      check_int "every map call counted" 5 st.Pool.maps;
      check_int "every element counted" (5 * 64) st.Pool.items;
      check_true "chunks were executed" (st.Pool.tasks >= 5))

let test_nested_map_no_deadlock () =
  (* a lane that maps on its own pool must not deadlock: the waiting
     caller helps drain the shared queue *)
  Pool.with_pool ~domains:2 (fun p ->
      let out =
        Pool.map ~chunk:1 p
          (fun i ->
            Array.fold_left ( + ) 0
              (Pool.map ~chunk:1 p (fun j -> (i * 10) + j) (Array.init 8 Fun.id)))
          (Array.init 6 Fun.id)
      in
      let expected =
        Array.init 6 (fun i ->
            Array.fold_left ( + ) 0 (Array.init 8 (fun j -> (i * 10) + j)))
      in
      check_true "nested maps complete and agree" (out = expected))

let test_sum_deterministic =
  qcheck ~count:60 "Sweep.sum = sequential left-to-right sum, bit-exact"
    QCheck2.Gen.(tup3 gen_domains gen_chunk gen_input)
    (fun (domains, chunk, terms) ->
      Pool.with_pool ~domains (fun p ->
          let n = Array.length terms in
          let got = Sweep.sum ~pool:p ~chunk n (fun i -> terms.(i)) in
          let expected = Array.fold_left ( +. ) 0.0 terms in
          got = expected))

let test_pool_size_invariance =
  qcheck ~count:20 "map output independent of pool and chunk size"
    QCheck2.Gen.(tup3 (tup2 gen_domains gen_domains) (tup2 gen_chunk gen_chunk) gen_input)
    (fun ((d1, d2), (c1, c2), arr) ->
      let f x = sin (exp x) +. (1.0 /. (1.0 +. (x *. x))) in
      let r1 = Pool.with_pool ~domains:d1 (fun p -> Pool.map ~chunk:c1 p f arr) in
      let r2 = Pool.with_pool ~domains:d2 (fun p -> Pool.map ~chunk:c2 p f arr) in
      r1 = r2)

let test_shutdown () =
  let p = Pool.create ~domains:3 () in
  check_true "map before shutdown" (Pool.map p succ [| 1; 2 |] = [| 2; 3 |]);
  Pool.shutdown p;
  Pool.shutdown p (* idempotent *);
  Alcotest.check_raises "map after shutdown rejected"
    (Invalid_argument "Pool.run_indices: pool has been shut down") (fun () ->
      ignore (Pool.map p succ [| 1 |]))

let test_default_sizing () =
  check_true "default_domains is positive" (Pool.default_domains () >= 1);
  let p = Pool.default () in
  check_true "default pool is shared" (p == Pool.default ());
  check_int "default pool size" (Stdlib.max 1 (Pool.default_domains ())) (Pool.size p)

(* cheap end-to-end determinism check; the full multi-domain sweep
   determinism tests live in test/slow *)
let test_metrics_pool_invariant () =
  let pll = pll_of spec_default in
  let run domains =
    Pool.with_pool ~domains (fun pool ->
        Pll_lib.Analysis.closed_loop_metrics ~points:120 ~pool pll)
  in
  check_true "closed-loop metrics bit-identical at 1 vs 3 domains"
    (run 1 = run 3)

let test_fold_sum_pool_invariant () =
  let pll = pll_of spec_default in
  let w0 = Pll_lib.Pll.omega0 pll in
  let s = Pll_lib.Noise.lorentzian ~level:1e-9 ~corner:(0.3 *. w0) in
  let run domains =
    Pool.with_pool ~domains (fun pool ->
        Pll_lib.Noise.reference_noise_out pll ~folds:200 ~pool s (0.07 *. w0))
  in
  let r1 = run 1 in
  check_true "noise folding sum bit-identical at 1 vs 4 domains" (r1 = run 4);
  (* and bit-identical to the historical sequential accumulation order *)
  let h = Numeric.Cx.abs (Pll_lib.Pll.h00 pll (Numeric.Cx.jomega (0.07 *. w0))) in
  let seq =
    let acc = ref (s (0.07 *. w0)) in
    for m = 1 to 200 do
      let shift = float_of_int m *. w0 in
      acc := !acc +. s ((0.07 *. w0) +. shift) +. s ((0.07 *. w0) -. shift)
    done;
    h *. h *. !acc
  in
  check_true "matches legacy sequential fold exactly" (r1 = seq)

(* grid_local takes its lane instance once per chunk: with an explicit
   chunk, every point of a chunk sees one instance (physically), no
   more instances are made than there are lanes, the values are those
   of Array.map bit for bit, and an exception in [f] still reaches the
   caller *)
let test_grid_local_per_chunk () =
  let xs = Array.init 61 (fun i -> (float_of_int i *. 0.37) -. 3.0) in
  let f x = (sin x *. exp (-.x)) +. (x *. x) in
  let want = Array.map f xs in
  let bits x = Int64.bits_of_float x in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun p ->
          (* the chunk-level entry underneath: one enter and one leave per
             chunk, and every point sees its own chunk's state *)
          let enters = Atomic.make 0 and leaves = Atomic.make 0 in
          let chunk_start =
            Pool.map_chunked ~chunk:4 p
              ~enter:(fun () ->
                Atomic.incr enters;
                ref (-1))
              ~leave:(fun _ -> Atomic.incr leaves)
              (fun st i ->
                if !st < 0 then st := i;
                !st)
              (Array.init 61 Fun.id)
          in
          check_int "one enter per chunk" 16 (Atomic.get enters);
          check_int "one leave per enter" 16 (Atomic.get leaves);
          check_true "every point sees its chunk's state"
            (chunk_start = Array.init 61 (fun i -> i - (i mod 4)));
          (* a chunk that raises still leaves *)
          (match
             Pool.map_chunked ~chunk:4 p
               ~enter:(fun () -> Atomic.incr enters)
               ~leave:(fun () -> Atomic.incr leaves)
               (fun () i -> if i = 22 then raise (Boom i) else i)
               (Array.init 61 Fun.id)
           with
          | _ -> Alcotest.fail "map_chunked lost the exception"
          | exception Boom _ ->
              check_int "every entered chunk left" (Atomic.get enters)
                (Atomic.get leaves));
          let made = Atomic.make 0 in
          let local () =
            Atomic.incr made;
            ref 0
          in
          let chunk = 4 in
          let got =
            Sweep.grid_local ~pool:p ~chunk ~local
              (fun l x ->
                incr l;
                (l, f x))
              xs
          in
          let what = Printf.sprintf "%d domain(s)" domains in
          check_true
            (Printf.sprintf "%s: %d instance(s) for %d lane(s)" what (Atomic.get made) domains)
            (Atomic.get made >= 1 && Atomic.get made <= domains);
          Array.iteri
            (fun i (l, y) ->
              check_true
                (Printf.sprintf "%s: point %d = Array.map, bit for bit" what i)
                (Int64.equal (bits y) (bits want.(i)));
              let first, _ = got.(i - (i mod chunk)) in
              check_true
                (Printf.sprintf "%s: point %d shares its chunk's instance" what i)
                (l == first))
            got;
          (* the instances counted every point between them *)
          let seen = ref [] in
          Array.iter (fun (l, _) -> if not (List.memq l !seen) then seen := l :: !seen) got;
          check_int (what ^ ": points counted") (Array.length xs)
            (List.fold_left (fun acc l -> acc + !l) 0 !seen);
          let bad = 37 in
          (match
             Sweep.grid_local ~pool:p ~chunk ~local
               (fun _ i -> if i = bad then raise (Boom i) else i)
               (Array.init 61 Fun.id)
           with
          | _ -> Alcotest.failf "%s: the exception was lost" what
          | exception Boom i -> check_int (what ^ ": re-raised") bad i);
          check_true (what ^ ": pool usable after the failure")
            (Sweep.grid_local ~pool:p ~chunk ~local (fun _ x -> x + 1) [| 1; 2 |]
            = [| 2; 3 |])))
    [ 1; 2; 4 ]

let suite =
  [
    test_map_matches_array_map;
    test_mapi_init_match;
    test_exception_propagates;
    case "empty and tiny inputs" test_empty_and_tiny;
    case "domain reuse across maps" test_domain_reuse;
    case "nested map on own pool" test_nested_map_no_deadlock;
    test_sum_deterministic;
    test_pool_size_invariance;
    case "shutdown semantics" test_shutdown;
    case "default pool sizing" test_default_sizing;
    case "closed-loop metrics pool-invariant" test_metrics_pool_invariant;
    case "noise fold sum pool-invariant" test_fold_sum_pool_invariant;
    case "grid_local: one lane instance per chunk, = Array.map"
      test_grid_local_per_chunk;
  ]
