(* Streaming, resumable, self-healing requests end to end:

   - golden-pinned idempotency keys: the canonical body fingerprint and
     its MD5 are wire format, so their exact bytes are asserted here —
     changing either encoder is a deliberate protocol break;
   - cell codec round trips (Ok rows and typed failure cells alike);
   - a streamed sweep reassembles byte-identical to the one-shot reply;
   - a mid-stream disconnect (injected) resumes by key: the client's
     second attempt starts from its contiguous prefix, the daemon
     replays journaled cells, and no point is ever computed twice;
   - a torn chunk frame (injected) reads as clean EOF and resumes the
     same way;
   - the journal survives a daemon restart: a fresh daemon on the same
     state dir replays the dead one's cells, still byte-identical;
   - a stale journal (injected fingerprint mismatch) is discarded and
     recomputed from scratch, not served;
   - LRU eviction racing concurrent single-flight misses at capacity 1
     stays coherent (all replies correct, evictions counted);
   - the retry budget turns a permanently dead daemon into a typed
     [Budget_exhausted] in bounded wall-clock;
   - the circuit breaker opens after the threshold, fast-fails with
     [Circuit_open], and closes again through a half-open probe;
   - the Lru eviction counter (unit level), and two cold computes with
     the reply cache off coming back byte-identical while the retired
     memo counters in stats read 0. *)

open Helpers
module Wire = Serve.Wire
module Client = Serve.Client
module Daemon = Serve.Daemon
module Frame = Runner.Journal.Frame

let clean f () =
  Fun.protect
    ~finally:(fun () ->
      Robust.Inject.disarm ();
      Robust.Config.reset ();
      Robust.Stats.reset ();
      Parallel.Cancel.reset_global ())
    f

let spec = Pll_lib.Design.default_spec
let sock_counter = ref 0

let scratch_sock () =
  incr sock_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "pllscope_stream_%d_%d.sock" (Unix.getpid ()) !sock_counter)

let scratch_dir () =
  incr sock_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pllscope_state_%d_%d" (Unix.getpid ()) !sock_counter)
  in
  Unix.mkdir d 0o700;
  d

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
    Unix.rmdir dir
  end

let base_cfg =
  {
    Daemon.default_config with
    Daemon.workers = 2;
    queue_depth = 2;
    max_clients = 16;
    read_timeout = 5.0;
    write_timeout = 5.0;
    drain_grace = 1.0;
    retry_after = 0.02;
    chunk_points = 2;
  }

let with_daemon ?(cfg = base_cfg) f =
  let path = scratch_sock () in
  let cfg = { cfg with Daemon.socket_path = Some path } in
  let d = Daemon.create cfg in
  let final = ref None in
  let th = Thread.create (fun () -> final := Some (Daemon.serve d)) () in
  let out =
    Fun.protect
      ~finally:(fun () ->
        Daemon.stop d;
        Thread.join th;
        if Sys.file_exists path then Sys.remove path)
      (fun () -> f path d)
  in
  match !final with
  | Some stats -> (out, stats)
  | None -> Alcotest.fail "daemon thread did not return stats"

let connect path () = Client.connect (Client.Unix_path path)

let ok = function
  | Ok v -> v
  | Error err ->
      Alcotest.failf "expected Ok, got %s" (Robust.Pllscope_error.to_string err)

let ratios6 = [| 0.05; 0.1; 0.15; 0.2; 0.25; 0.3 |]
let sweep6 = Wire.Sweep { spec; ratios = ratios6 }

(* The raw marshalled payload of a one-shot reply, straight off the
   frame — the reference bytes every streamed reassembly must match. *)
let raw_oneshot path body =
  let c = connect path () in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      let fd = Client.fd c in
      ok (Wire.send fd (Wire.Request (Wire.oneshot body)));
      match Frame.read_result ~timeout:10.0 fd with
      | Ok (Some (tag, payload)) ->
          check_int "result tag" Wire.tag_result tag;
          payload
      | Ok None -> Alcotest.fail "EOF instead of reply"
      | Error err ->
          Alcotest.failf "frame error: %s" (Robust.Pllscope_error.to_string err))

let streamed ?(attempts = 5) ?seed path =
  Client.sweep_streamed ~timeout:10.0 ~attempts ~base_delay:0.01
    ~max_delay:0.05 ?seed ~connect:(connect path) ~spec ~ratios:ratios6 ()

(* ------------------------------------------------------------------ *)
(* golden idempotency keys                                             *)

let test_stable_key_golden () =
  (* default spec: fref 1 MHz, n_div 64, icp 100 uA, kvco 20 MHz/V,
     ratio 0.1, phase margin 55 deg.  The fingerprint is the
     field-ordered hex of the raw IEEE-754 bits — version-stable text,
     no Marshal involved — and the key is its MD5.  These bytes are on
     the wire and in on-disk journal headers: do not change them
     without a protocol version bump. *)
  Alcotest.(check string)
    "spec fingerprint"
    "412e848000000000,4050000000000000,3f1a36e2eb1c432d,417312d000000000,3fb999999999999a,404b800000000000"
    (Wire.spec_fingerprint spec);
  Alcotest.(check string)
    "sweep fingerprint"
    "sweep|412e848000000000,4050000000000000,3f1a36e2eb1c432d,417312d000000000,3fb999999999999a,404b800000000000|3fa999999999999a|3fb999999999999a"
    (Wire.body_fingerprint (Wire.Sweep { spec; ratios = [| 0.05; 0.1 |] }));
  Alcotest.(check string)
    "sweep stable key" "4a3b334ea330e08bb18b9927f01bd2d4"
    (Wire.stable_key (Wire.Sweep { spec; ratios = [| 0.05; 0.1 |] }));
  Alcotest.(check string)
    "analyze stable key" "86cbece76dbaaab9180128754f3ce6bf"
    (Wire.stable_key (Wire.Analyze spec));
  (* the key depends on every float bit *)
  let spec' =
    { spec with Pll_lib.Design.ratio = Float.succ spec.Pll_lib.Design.ratio }
  in
  check_true "one ulp changes the key"
    (Wire.stable_key (Wire.Analyze spec) <> Wire.stable_key (Wire.Analyze spec'))

let test_cell_roundtrip () =
  let err : Wire.cell =
    Error
      (Robust.Pllscope_error.Worker_failure
         { task = 3; attempts = 2; last = "boom" })
  in
  (match Wire.decode_cell (Wire.encode_cell err) with
  | Ok (Error (Robust.Pllscope_error.Worker_failure f)) ->
      check_int "task survives" 3 f.task
  | _ -> Alcotest.fail "failure cell did not round-trip");
  (match Wire.decode_cell "not a marshalled cell" with
  | Error (Robust.Pllscope_error.Parse _) -> ()
  | _ -> Alcotest.fail "garbage cell decoded");
  (* a valid header over a truncated body *)
  let enc = Wire.encode_cell err in
  match Wire.decode_cell (String.sub enc 0 (String.length enc - 3)) with
  | Error (Robust.Pllscope_error.Parse _) -> ()
  | _ -> Alcotest.fail "truncated cell decoded"

(* ------------------------------------------------------------------ *)
(* streamed sweeps                                                     *)

let test_stream_byte_identical () =
  let (), stats =
    with_daemon (fun path _d ->
        let cold = raw_oneshot path sweep6 in
        let result, st = ok (streamed path) in
        check_true "reassembly byte-identical"
          (String.equal cold (Wire.marshal_response (Wire.R_sweep result)));
        check_int "no resumes" 0 st.Client.resumes;
        check_int "3 chunks of 2" 3 st.Client.chunks;
        check_int "all computed" 6 st.Client.computed;
        check_int "none replayed" 0 st.Client.replayed)
  in
  check_int "stream admitted" 1 stats.Wire.streams_started;
  check_int "no resume" 0 stats.Wire.streams_resumed

let test_stream_disconnect_resumes () =
  let dir = scratch_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cfg = { base_cfg with Daemon.state_dir = Some dir } in
  let (), stats =
    with_daemon ~cfg (fun path _d ->
        let cold = raw_oneshot path sweep6 in
        Robust.Inject.configure ~seed:3 "stream-disconnect:1";
        let result, st = ok (streamed path) in
        Robust.Inject.disarm ();
        check_true "reassembly byte-identical after resume"
          (String.equal cold (Wire.marshal_response (Wire.R_sweep result)));
        check_true "resumed at least once" (st.Client.resumes >= 1);
        check_true "summary replays the journaled prefix"
          (st.Client.replayed >= 2);
        check_int "summary covers every point" 6
          (st.Client.computed + st.Client.replayed))
  in
  (* the resume property that matters: across both attempts the engine
     evaluated each point exactly once *)
  check_int "no point computed twice" 6 stats.Wire.points_computed;
  check_true "journal replay counted" (stats.Wire.points_replayed >= 2);
  check_true "resume counted" (stats.Wire.streams_resumed >= 1)

let test_chunk_torn_resumes () =
  let dir = scratch_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cfg = { base_cfg with Daemon.state_dir = Some dir } in
  let (), stats =
    with_daemon ~cfg (fun path _d ->
        let cold = raw_oneshot path sweep6 in
        Robust.Inject.configure ~seed:3 "chunk-torn:1";
        let result, st = ok (streamed path) in
        Robust.Inject.disarm ();
        check_true "torn chunk reads as EOF, resume is byte-identical"
          (String.equal cold (Wire.marshal_response (Wire.R_sweep result)));
        check_true "resumed" (st.Client.resumes >= 1))
  in
  check_int "no point computed twice" 6 stats.Wire.points_computed

let test_daemon_restart_resumes () =
  let dir = scratch_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cfg = { base_cfg with Daemon.state_dir = Some dir } in
  (* first daemon: every chunk send disconnects; a one-attempt client
     gets the first chunk and gives up, leaving a two-cell journal *)
  let (), stats_a =
    with_daemon ~cfg (fun path _d ->
        Robust.Inject.configure ~seed:3 "stream-disconnect:1+";
        (match streamed ~attempts:1 path with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "stream survived a permanent disconnect fault");
        Robust.Inject.disarm ())
  in
  check_true "first daemon journaled a prefix"
    (stats_a.Wire.points_computed >= 2 && stats_a.Wire.points_computed < 6);
  let computed_a = stats_a.Wire.points_computed in
  (* second daemon, same state dir: the journal outlives the process *)
  let (), stats_b =
    with_daemon ~cfg (fun path _d ->
        let cold = raw_oneshot path sweep6 in
        let result, st = ok (streamed path) in
        check_true "byte-identical across a daemon restart"
          (String.equal cold (Wire.marshal_response (Wire.R_sweep result)));
        check_true "dead daemon's cells replayed"
          (st.Client.replayed >= computed_a))
  in
  check_true "restart resume counted" (stats_b.Wire.streams_resumed >= 1);
  check_int "recomputed only the missing points" (6 - computed_a)
    stats_b.Wire.points_computed

let test_stale_key_discarded () =
  let dir = scratch_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cfg = { base_cfg with Daemon.state_dir = Some dir } in
  let (), stats =
    with_daemon ~cfg (fun path _d ->
        let cold = raw_oneshot path sweep6 in
        let _ = ok (streamed path) in
        (* the journal is complete; a header mismatch must discard it *)
        Robust.Inject.configure ~seed:3 "stale-key:1";
        let result, st = ok (streamed path) in
        Robust.Inject.disarm ();
        check_true "recomputed result still byte-identical"
          (String.equal cold (Wire.marshal_response (Wire.R_sweep result)));
        check_int "nothing served from the stale journal" 6 st.Client.computed;
        check_int "nothing replayed" 0 st.Client.replayed)
  in
  check_int "stale journal counted" 1 stats.Wire.stale_keys

let test_stream_empty_grid_rejected () =
  let (), _stats =
    with_daemon (fun path _d ->
        match
          Client.sweep_streamed ~timeout:5.0 ~attempts:1
            ~connect:(connect path) ~spec ~ratios:[||] ()
        with
        | Error (Robust.Pllscope_error.Parse _) -> ()
        | Ok _ -> Alcotest.fail "empty streamed grid accepted"
        | Error err ->
            Alcotest.failf "wrong error: %s"
              (Robust.Pllscope_error.to_string err))
  in
  ()

(* ------------------------------------------------------------------ *)
(* cache races, budget, breaker                                        *)

let test_lru_races_single_flight () =
  (* capacity 1: every miss on body A evicts body B's entry and vice
     versa, while single-flight leaders and waiters race the same slots.
     Correctness bar: every reply decodes, per-body replies are
     byte-identical, and the counters add up. *)
  let cfg = { base_cfg with Daemon.workers = 4; cache_entries = 1 } in
  let bodies =
    [| Wire.Bode { spec; points = 8 }; Wire.Bode { spec; points = 9 } |]
  in
  let (), stats =
    with_daemon ~cfg (fun path _d ->
        let golden = Array.map (fun b -> raw_oneshot path b) bodies in
        let bad = Atomic.make 0 in
        let threads =
          Array.init 4 (fun i ->
              Thread.create
                (fun () ->
                  for j = 0 to 7 do
                    let k = (i + j) mod 2 in
                    if
                      not
                        (String.equal golden.(k)
                           (raw_oneshot path bodies.(k)))
                    then Atomic.incr bad
                  done)
                ())
        in
        Array.iter Thread.join threads;
        check_int "every racing reply byte-identical" 0 (Atomic.get bad))
  in
  check_true "evictions happened under the race"
    (stats.Wire.cache_evictions >= 1);
  check_int "all requests accounted" 34
    (stats.Wire.cache_hits + stats.Wire.cache_misses
   + stats.Wire.single_flight_waits)

let test_budget_bounds_wall_clock () =
  let dead = scratch_sock () in
  (* nothing listens there: every attempt fails at connect *)
  let t0 = Unix.gettimeofday () in
  (match
     Client.with_retries ~attempts:1000 ~base_delay:0.05 ~max_delay:1.0
       ~budget:0.3
       ~connect:(fun () -> Client.connect (Client.Unix_path dead))
       (fun _ -> Alcotest.fail "connected to nothing")
   with
  | Error (Robust.Pllscope_error.Budget_exhausted b) ->
      check_close "budget echoed" 0.3 b.budget_s;
      check_true "spent at least one attempt" (b.attempts >= 1)
  | Ok _ -> Alcotest.fail "dead daemon answered"
  | Error err ->
      Alcotest.failf "wrong error: %s" (Robust.Pllscope_error.to_string err));
  let elapsed = Unix.gettimeofday () -. t0 in
  (* 1000 attempts would back off for minutes; the budget must cut the
     schedule near its cap (slack for scheduler noise) *)
  check_true "failed in bounded time" (elapsed < 2.0)

let test_breaker_opens_and_recovers () =
  let dead = scratch_sock () in
  let br = Client.breaker ~threshold:2 ~cooldown:0.2 () in
  let call_dead () =
    Client.with_retries ~attempts:1 ~base_delay:0.01 ~breaker:br
      ~connect:(fun () -> Client.connect (Client.Unix_path dead))
      (fun _ -> Alcotest.fail "connected to nothing")
  in
  (match call_dead () with Error _ -> () | Ok _ -> Alcotest.fail "dead ok");
  check_true "one failure stays closed" (not (Client.breaker_is_open br));
  (match call_dead () with Error _ -> () | Ok _ -> Alcotest.fail "dead ok");
  check_true "threshold opens" (Client.breaker_is_open br);
  (* open circuit: typed fast-fail without touching the network *)
  let t0 = Unix.gettimeofday () in
  (match call_dead () with
  | Error (Robust.Pllscope_error.Circuit_open c) ->
      check_true "cooldown hint positive" (c.cooldown_s > 0.0)
  | Ok _ -> Alcotest.fail "open circuit served"
  | Error err ->
      Alcotest.failf "wrong error: %s" (Robust.Pllscope_error.to_string err));
  check_true "fast fail" (Unix.gettimeofday () -. t0 < 0.1);
  (* after the cooldown a half-open probe goes through and a success
     closes the circuit again *)
  Thread.delay 0.25;
  let (), _stats =
    with_daemon (fun path _d ->
        (match
           Client.with_retries ~attempts:2 ~base_delay:0.01 ~breaker:br
             ~connect:(connect path)
             (fun c -> Client.request ~timeout:5.0 c (Wire.oneshot Wire.Health))
         with
        | Ok Wire.R_healthy -> ()
        | Ok _ -> Alcotest.fail "health reply mismatch"
        | Error err ->
            Alcotest.failf "half-open probe failed: %s"
              (Robust.Pllscope_error.to_string err));
        check_true "probe success closes" (not (Client.breaker_is_open br)))
  in
  ()

(* ------------------------------------------------------------------ *)
(* eviction counter and cold recompute                                 *)

let test_lru_eviction_counter () =
  let t = Serve.Lru.create ~cap:2 in
  Serve.Lru.add t "a" "1";
  Serve.Lru.add t "b" "2";
  check_int "no evictions yet" 0 (Serve.Lru.evictions t);
  Serve.Lru.add t "c" "3";
  Serve.Lru.add t "d" "4";
  check_int "two evictions" 2 (Serve.Lru.evictions t);
  (* refreshing never evicts *)
  Serve.Lru.add t "d" "4'";
  check_int "refresh is not an eviction" 2 (Serve.Lru.evictions t)

let test_daemon_memo_counters () =
  (* response cache off, so the second analyze recomputes from cold *)
  let cfg = { base_cfg with Daemon.cache_entries = 0 } in
  let (), stats =
    with_daemon ~cfg (fun path _d ->
        let a = raw_oneshot path (Wire.Analyze spec) in
        let b = raw_oneshot path (Wire.Analyze spec) in
        check_true "cold recompute byte-identical" (String.equal a b))
  in
  check_int "both computed" 2 stats.Wire.cache_misses;
  (* the memo_* fields are retired wire fields: always 0 *)
  check_int "memo hits retired" 0 stats.Wire.memo_hits;
  check_int "memo misses retired" 0 stats.Wire.memo_misses;
  check_int "memo evictions retired" 0 stats.Wire.memo_evictions

let suite =
  [
    case "idempotency keys golden-pinned" (clean test_stable_key_golden);
    case "cell codec round-trips" (clean test_cell_roundtrip);
    case "streamed sweep byte-identical to one-shot"
      (clean test_stream_byte_identical);
    slow_case "mid-stream disconnect resumes by key"
      (clean test_stream_disconnect_resumes);
    slow_case "torn chunk frame resumes by key" (clean test_chunk_torn_resumes);
    slow_case "journal survives daemon restart"
      (clean test_daemon_restart_resumes);
    case "stale journal discarded and recomputed"
      (clean test_stale_key_discarded);
    case "empty streamed grid rejected" (clean test_stream_empty_grid_rejected);
    slow_case "lru eviction races single-flight misses"
      (clean test_lru_races_single_flight);
    case "retry budget bounds wall-clock" (clean test_budget_bounds_wall_clock);
    slow_case "breaker opens, fast-fails, recovers"
      (clean test_breaker_opens_and_recovers);
    case "lru eviction counter" (clean test_lru_eviction_counter);
    case "daemon memo counters surface in stats as 0"
      (clean test_daemon_memo_counters);
  ]
