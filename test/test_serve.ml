(* The analysis daemon end to end, in process:

   - the LRU caps, promotes and evicts; capacity 0 disables it;
   - QCheck fuzzing of the frame codec: random payloads round-trip,
     random truncations read as clean EOF, random bit flips surface as
     typed Parse errors — never exceptions, never hangs (a timeout
     backstops every read);
   - Frame.read_result/write_result with a deadline return typed Io_timeout
     on stalled partial frames and wedged pipes;
   - daemon round trips: health, analyze, bode, sweep; request errors
     (bode with one point) come back as typed error frames;
   - a repeated request is served from the cache byte-identical to the
     cold reply, and concurrent identical requests single-flight;
   - a zero deadline cancels analyze with a typed Cancelled frame and
     turns a sweep into an all-points-cancelled partial;
   - with one worker and no queue, a busy daemon sheds with typed
     Overloaded frames carrying the retry-after hint (the slot is held
     by a stream the test releases; see [hold_slot]);
   - slow-loris and mid-frame disconnects get typed Io_timeout / clean
     EOF treatment and never wedge the daemon;
   - an 8-client soak with net-torn/net-drop/net-slow injection armed
     completes through client retries with the daemon intact;
   - stopping mid-request (a held stream, released after the drain
     grace) still returns from [serve] (typed error or dropped
     connection on the client, never a hang);
   - a second SIGTERM force-exits a stuck process with code 143 (the
     re-exec'd "serve-stuck" subprocess below). *)

open Helpers
module Frame = Runner.Journal.Frame
module Wire = Serve.Wire
module Client = Serve.Client
module Daemon = Serve.Daemon

let () = Runner.Shutdown.ignore_sigpipe ()

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
    (Printf.sprintf "pllscope_serve_%d_%d.sock" (Unix.getpid ()) !sock_counter)

(* Small, fast daemon defaults for the tests; individual cases override. *)
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
  }

(* Run [f path daemon] against an in-process daemon on a scratch Unix
   socket; stop, join and hand back the final counters. *)
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

let conn path = Client.connect (Client.Unix_path path)

let request ?timeout ?deadline path body =
  let c = conn path in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () -> Client.request ?timeout c (Wire.oneshot ?deadline body))

let ok = function
  | Ok v -> v
  | Error err ->
      Alcotest.failf "expected Ok, got %s" (Robust.Pllscope_error.to_string err)

(* Poll the daemon until [p stats] holds (the stats path bypasses the
   compute gate, so this works while every worker slot is busy). *)
let wait_stats ?(tries = 800) path p =
  let rec go n =
    if n = 0 then Alcotest.fail "daemon never reached the expected state";
    match request path Wire.Stats with
    | Ok (Wire.R_stats s) when p s -> s
    | Ok _ | Error _ ->
        Thread.delay 0.005;
        go (n - 1)
  in
  go tries

(* A compute slot the test takes and lets go of: a streamed sweep whose
   request journal is a FIFO. The daemon admits the stream, then blocks
   opening the journal to replay it — holding the slot — until
   [release_slot] opens the FIFO's other end. The FIFO is unlinked
   before that end closes, so the replay reads an empty journal and the
   stream goes on to journal into a fresh file like any other.
   [with_held_slot] lets go on the way out whatever happens, so a
   failing check cannot leave the daemon's drain waiting on the FIFO. *)
let hold_dir () =
  let dir = Filename.temp_file "pllscope_hold" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  dir

let remove_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let hold_slot dir ratios =
  let key = Wire.stable_key (Wire.Sweep { spec; ratios }) in
  let fifo = Filename.concat dir (key ^ ".stream") in
  Unix.mkfifo fifo 0o600;
  fifo

let release_slot fifo =
  (* a non-blocking write open succeeds once the daemon's read open is
     waiting on the FIFO, and fails with ENXIO before that *)
  let rec open_writer tries =
    match Unix.openfile fifo [ Unix.O_WRONLY; Unix.O_NONBLOCK ] 0 with
    | fd -> Some fd
    | exception Unix.Unix_error (Unix.ENXIO, _, _) when tries > 0 ->
        Thread.delay 0.002;
        open_writer (tries - 1)
    | exception Unix.Unix_error (Unix.ENXIO, _, _) -> None
  in
  if Sys.file_exists fifo then begin
    let fd = open_writer 2500 in
    Sys.remove fifo;
    Option.iter Unix.close fd
  end

let with_held_slot fifo f = Fun.protect ~finally:(fun () -> release_slot fifo) f

(* ------------------------------------------------------------------ *)
(* LRU                                                                 *)

let test_lru_evicts () =
  let t = Serve.Lru.create ~cap:2 in
  Serve.Lru.add t "a" "1";
  Serve.Lru.add t "b" "2";
  check_true "find a" (Serve.Lru.find t "a" = Some "1");
  (* a was promoted: adding c evicts b, the least recently used *)
  Serve.Lru.add t "c" "3";
  check_int "length capped" 2 (Serve.Lru.length t);
  check_true "b evicted" (Serve.Lru.find t "b" = None);
  check_true "a kept" (Serve.Lru.find t "a" = Some "1");
  check_true "c kept" (Serve.Lru.find t "c" = Some "3");
  (* refreshing an existing key neither grows nor evicts *)
  Serve.Lru.add t "a" "1'";
  check_int "refresh keeps length" 2 (Serve.Lru.length t);
  check_true "refresh updates" (Serve.Lru.find t "a" = Some "1'")

let test_lru_disabled () =
  let t = Serve.Lru.create ~cap:0 in
  Serve.Lru.add t "a" "1";
  check_int "cap 0 stores nothing" 0 (Serve.Lru.length t);
  check_true "cap 0 finds nothing" (Serve.Lru.find t "a" = None);
  match Serve.Lru.create ~cap:(-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative capacity accepted"

(* ------------------------------------------------------------------ *)
(* frame codec fuzzing                                                 *)

(* Feed raw bytes to Frame.read_result through a pipe whose write end
   is closed, with a timeout backstop so a decoder bug can hang for at
   most a second instead of wedging the suite. *)
let read_frame_bytes raw =
  let r, w = Unix.pipe ~cloexec:true () in
  Fun.protect
    ~finally:(fun () -> Unix.close r)
    (fun () ->
      let b = Bytes.of_string raw in
      let n = Bytes.length b in
      let off = ref 0 in
      while !off < n do
        off := !off + Unix.write w b !off (n - !off)
      done;
      Unix.close w;
      Frame.read_result ~timeout:1.0 r)

let gen_payload = QCheck2.Gen.(string_size ~gen:char (int_range 0 200))
let gen_tag = QCheck2.Gen.int_range 0 1000

let fuzz_roundtrip =
  qcheck ~count:100 "frame round-trips"
    QCheck2.Gen.(pair gen_tag gen_payload)
    (fun (tag, payload) ->
      match read_frame_bytes (Frame.encode ~tag payload) with
      | Ok (Some (tag', payload')) -> tag' = tag && payload' = payload
      | Ok None | Error _ -> false)

let fuzz_truncation =
  qcheck ~count:100 "truncated frame reads as clean EOF"
    QCheck2.Gen.(pair (pair gen_tag gen_payload) (float_range 0.0 1.0))
    (fun ((tag, payload), cut) ->
      let raw = Frame.encode ~tag payload in
      let keep = int_of_float (cut *. float_of_int (String.length raw - 1)) in
      match read_frame_bytes (String.sub raw 0 keep) with
      | Ok None -> true
      | Ok (Some _) | Error _ -> false)

let fuzz_corruption =
  qcheck ~count:100 "bit flip surfaces as typed Parse error"
    QCheck2.Gen.(triple gen_tag gen_payload (pair (int_range 4 10_000) (int_range 0 7)))
    (fun (tag, payload, (pos, bit)) ->
      let raw = Frame.encode ~tag payload in
      (* flip anywhere past the length field: tag, CRC or payload bytes
         all participate in the checksum *)
      let pos = 4 + (pos mod (String.length raw - 4)) in
      let b = Bytes.of_string raw in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
      match read_frame_bytes (Bytes.to_string b) with
      | Error (Robust.Pllscope_error.Parse _) -> true
      | Ok _ | Error _ -> false)

let test_oversized_length () =
  (* a plausible-looking header whose length field is absurd must be
     rejected before any allocation or read of that size *)
  let b = Buffer.create 12 in
  List.iter (Buffer.add_char b)
    [ '\xff'; '\xff'; '\xff'; '\x7f'; '\x01'; '\x00'; '\x00'; '\x00' ];
  Buffer.add_string b "\x00\x00\x00\x00";
  match read_frame_bytes (Buffer.contents b) with
  | Error (Robust.Pllscope_error.Parse { msg; _ }) ->
      check_true "mentions length" (String.length msg > 0)
  | Ok _ -> Alcotest.fail "oversized length accepted"
  | Error err ->
      Alcotest.failf "wrong error: %s" (Robust.Pllscope_error.to_string err)

let test_read_timeout_stalled () =
  (* half a frame arrives, then the peer goes silent but keeps the
     connection open: the deadline read must return a typed timeout *)
  let r, w = Unix.pipe ~cloexec:true () in
  Fun.protect
    ~finally:(fun () ->
      Unix.close r;
      Unix.close w)
    (fun () ->
      let raw = Frame.encode ~tag:7 "stalled payload" in
      let b = Bytes.of_string raw in
      ignore (Unix.write w b 0 6);
      match Frame.read_result ~timeout:0.1 r with
      | Error (Robust.Pllscope_error.Io_timeout { what; _ }) ->
          check_true "read timeout" (what = "frame read")
      | Ok _ -> Alcotest.fail "stalled frame read succeeded"
      | Error err ->
          Alcotest.failf "wrong error: %s" (Robust.Pllscope_error.to_string err))

let test_write_timeout_wedged () =
  (* nobody drains the pipe and the payload exceeds the kernel buffer:
     the deadline write must give up with a typed timeout *)
  let r, w = Unix.pipe ~cloexec:true () in
  Fun.protect
    ~finally:(fun () ->
      Unix.close r;
      Unix.close w)
    (fun () ->
      let big = String.make (1 lsl 21) 'x' in
      match Frame.write_result ~timeout:0.1 w ~tag:1 big with
      | Error (Robust.Pllscope_error.Io_timeout { what; _ }) ->
          check_true "write timeout" (what = "frame write")
      | Ok () -> Alcotest.fail "wedged write succeeded"
      | Error err ->
          Alcotest.failf "wrong error: %s" (Robust.Pllscope_error.to_string err))

(* ------------------------------------------------------------------ *)
(* wire layer                                                          *)

let test_wire_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      let req = Wire.oneshot ~deadline:1.5 (Wire.Analyze spec) in
      ok (Wire.send a (Wire.Request req));
      (match ok (Wire.recv_request ~timeout:1.0 b) with
      | Some got ->
          check_true "deadline survives" (got.Wire.deadline = Some 1.5);
          check_true "body survives"
            (Wire.cache_key got.Wire.body = Wire.cache_key req.Wire.body)
      | None -> Alcotest.fail "EOF instead of request");
      (* an Overloaded error rides the dedicated tag *)
      let shed = Robust.Pllscope_error.Overloaded { retry_after = 0.25 } in
      ok (Wire.send b (Wire.Failed shed));
      (match Frame.read_result ~timeout:1.0 a with
      | Ok (Some (tag, _)) -> check_int "overloaded tag" Wire.tag_overloaded tag
      | Ok None -> Alcotest.fail "EOF instead of overloaded frame"
      | Error err ->
          Alcotest.failf "frame error: %s" (Robust.Pllscope_error.to_string err));
      (* and recv_reply decodes error frames to typed errors *)
      ok (Wire.send b (Wire.Failed shed));
      match Wire.recv_reply ~timeout:1.0 a with
      | Error (Robust.Pllscope_error.Overloaded { retry_after }) ->
          check_close "retry hint" 0.25 retry_after
      | Ok _ -> Alcotest.fail "error frame decoded as success"
      | Error err ->
          Alcotest.failf "wrong error: %s" (Robust.Pllscope_error.to_string err))

let test_cache_key_ignores_deadline () =
  check_true "same body, same key"
    (Wire.cache_key (Wire.Analyze spec) = Wire.cache_key (Wire.Analyze spec));
  check_true "different body, different key"
    (Wire.cache_key (Wire.Analyze spec)
    <> Wire.cache_key (Wire.Bode { spec; points = 9 }));
  check_true "stats not cacheable" (not (Wire.cacheable Wire.Stats));
  check_true "health not cacheable" (not (Wire.cacheable Wire.Health));
  check_true "analyze cacheable" (Wire.cacheable (Wire.Analyze spec))

(* ------------------------------------------------------------------ *)
(* daemon round trips                                                  *)

let test_daemon_basic () =
  let (), stats =
    with_daemon (fun path _d ->
        (match ok (request path Wire.Health) with
        | Wire.R_healthy -> ()
        | _ -> Alcotest.fail "health reply mismatch");
        (match ok (request path (Wire.Analyze spec)) with
        | Wire.R_analyze r -> check_true "default design stable" r.Wire.stable
        | _ -> Alcotest.fail "analyze reply mismatch");
        (match ok (request path (Wire.Bode { spec; points = 8 })) with
        | Wire.R_bode b ->
            check_int "grid size" 8 (Array.length b.Wire.a);
            check_int "same grid" 8 (Array.length b.Wire.lambda)
        | _ -> Alcotest.fail "bode reply mismatch");
        match ok (request path (Wire.Sweep { spec; ratios = [| 0.05; 0.1 |] }))
        with
        | Wire.R_sweep s ->
            check_int "all points" 2 s.Wire.total;
            check_true "no failures" (s.Wire.failures = []);
            check_true "rows present" (Array.for_all Option.is_some s.Wire.rows)
        | _ -> Alcotest.fail "sweep reply mismatch")
  in
  check_int "served" 4 stats.Wire.served;
  check_int "no sheds" 0 stats.Wire.shed;
  check_int "no errors" 0 stats.Wire.request_errors

let test_daemon_request_error () =
  let (), stats =
    with_daemon (fun path _d ->
        match request path (Wire.Bode { spec; points = 1 }) with
        | Error (Robust.Pllscope_error.Parse { msg; _ }) ->
            check_true "names the engine"
              (String.length msg > 0 && String.sub msg 0 6 = "Engine")
        | Ok _ -> Alcotest.fail "1-point bode accepted"
        | Error err ->
            Alcotest.failf "wrong error: %s"
              (Robust.Pllscope_error.to_string err))
  in
  check_int "counted as request error" 1 stats.Wire.request_errors

(* The byte-identity guarantee: replay the raw reply frames and compare
   payload bytes, not decoded values. *)
let test_daemon_cache_byte_identical () =
  let raw_analyze path =
    let c = conn path in
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () ->
        let fd = Client.fd c in
        ok (Wire.send fd (Wire.Request (Wire.oneshot (Wire.Analyze spec))));
        match Frame.read_result ~timeout:10.0 fd with
        | Ok (Some (tag, payload)) ->
            check_int "result tag" Wire.tag_result tag;
            payload
        | Ok None -> Alcotest.fail "EOF instead of reply"
        | Error err ->
            Alcotest.failf "frame error: %s"
              (Robust.Pllscope_error.to_string err))
  in
  let (), stats =
    with_daemon (fun path _d ->
        let cold = raw_analyze path in
        let warm = raw_analyze path in
        check_true "cached reply byte-identical" (String.equal cold warm))
  in
  check_int "one miss" 1 stats.Wire.cache_misses;
  check_int "one hit" 1 stats.Wire.cache_hits

let test_daemon_single_flight () =
  let body = Wire.Bode { spec; points = 30 } in
  let (), stats =
    with_daemon (fun path _d ->
        let results = Array.make 2 None in
        let threads =
          Array.init 2 (fun i ->
              Thread.create (fun () -> results.(i) <- Some (request path body)) ())
        in
        Array.iter Thread.join threads;
        match (results.(0), results.(1)) with
        | Some (Ok r0), Some (Ok r1) ->
            check_true "identical decoded replies"
              (String.equal (Wire.marshal_response r0) (Wire.marshal_response r1))
        | _ -> Alcotest.fail "concurrent identical requests failed")
  in
  (* leader computes once; the twin is a waiter replay or a cache hit *)
  check_int "one miss" 1 stats.Wire.cache_misses;
  check_int "one hit" 1 stats.Wire.cache_hits

(* ------------------------------------------------------------------ *)
(* deadlines, overload, misbehaving clients                             *)

let test_deadline_analyze_cancelled () =
  let (), stats =
    with_daemon (fun path _d ->
        match request ~deadline:0.0 path (Wire.Analyze spec) with
        | Error (Robust.Pllscope_error.Cancelled _) -> ()
        | Ok _ -> Alcotest.fail "zero deadline served"
        | Error err ->
            Alcotest.failf "wrong error: %s"
              (Robust.Pllscope_error.to_string err))
  in
  check_int "typed error, not a shed" 1 stats.Wire.request_errors

let test_deadline_sweep_partial () =
  let (), stats =
    with_daemon (fun path _d ->
        let ratios = Array.init 6 (fun i -> 0.05 +. (0.05 *. float_of_int i)) in
        (match ok (request ~deadline:0.0 path (Wire.Sweep { spec; ratios })) with
        | Wire.R_sweep s ->
            check_int "total points" 6 s.Wire.total;
            check_int "every point cancelled" 6 (List.length s.Wire.failures);
            check_true "rows empty" (Array.for_all Option.is_none s.Wire.rows);
            List.iter
              (fun (_, err) ->
                match err with
                | Robust.Pllscope_error.Cancelled _ -> ()
                | other ->
                    Alcotest.failf "wrong failure: %s"
                      (Robust.Pllscope_error.to_string other))
              s.Wire.failures
        | _ -> Alcotest.fail "sweep reply mismatch");
        (* the cancelled partial was answered, not cached: the same body
           without a deadline computes every point *)
        match ok (request path (Wire.Sweep { spec; ratios })) with
        | Wire.R_sweep s ->
            check_int "total after the partial" 6 s.Wire.total;
            check_true "every row computed"
              (Array.for_all Option.is_some s.Wire.rows);
            check_int "no failures after the partial" 0
              (List.length s.Wire.failures)
        | _ -> Alcotest.fail "sweep reply mismatch")
  in
  check_int "partial never cached" 0 stats.Wire.cache_hits

let test_overload_sheds () =
  let dir = hold_dir () in
  Fun.protect ~finally:(fun () -> remove_dir dir) @@ fun () ->
  let cfg =
    { base_cfg with Daemon.workers = 1; queue_depth = 0; state_dir = Some dir }
  in
  let (), stats =
    with_daemon ~cfg (fun path _d ->
        (* occupy the only slot with a sweep held until the test lets
           it go *)
        let ratios =
          Array.init 64 (fun i -> 0.05 +. (0.002 *. float_of_int i))
        in
        let fifo = hold_slot dir ratios in
        with_held_slot fifo @@ fun () ->
        let occupier = ref None in
        let th =
          Thread.create
            (fun () ->
              occupier :=
                Some
                  (Client.sweep_streamed ~attempts:1
                     ~connect:(fun () -> conn path)
                     ~spec ~ratios ()))
            ()
        in
        let _ = wait_stats path (fun s -> s.Wire.active >= 1) in
        (* the slot and the zero-length queue are taken: shed *)
        (match request path (Wire.Analyze spec) with
        | Error (Robust.Pllscope_error.Overloaded { retry_after }) ->
            check_close "retry hint" base_cfg.Daemon.retry_after retry_after
        | Ok _ -> Alcotest.fail "overloaded daemon served"
        | Error err ->
            Alcotest.failf "wrong error: %s"
              (Robust.Pllscope_error.to_string err));
        (* a stream is admitted by the same gate: shed too *)
        (match
           Client.sweep_streamed ~attempts:1 ~connect:(fun () -> conn path)
             ~spec ~ratios:[| 0.1; 0.2 |] ()
         with
        | Error (Robust.Pllscope_error.Overloaded _) -> ()
        | Ok _ -> Alcotest.fail "overloaded daemon streamed"
        | Error err ->
            Alcotest.failf "wrong stream error: %s"
              (Robust.Pllscope_error.to_string err));
        release_slot fifo;
        Thread.join th;
        match !occupier with
        | Some (Ok (s, _)) -> check_int "occupier completed" 64 s.Wire.total
        | None -> Alcotest.fail "occupier produced nothing"
        | Some (Error err) ->
            Alcotest.failf "occupier failed: %s"
              (Robust.Pllscope_error.to_string err))
  in
  check_true "shed counted" (stats.Wire.shed >= 1);
  (* the occupier plus the stats probes that watched it start *)
  check_true "occupier served" (stats.Wire.served >= 2)

let test_slow_loris_times_out () =
  let cfg = { base_cfg with Daemon.read_timeout = 0.15 } in
  let (), stats =
    with_daemon ~cfg (fun path _d ->
        let c = conn path in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            let fd = Client.fd c in
            let raw =
              let tag, payload = Wire.frame (Wire.Request (Wire.oneshot Wire.Health)) in
              Frame.encode ~tag payload
            in
            let b = Bytes.of_string raw in
            ignore (Unix.write fd b 0 6);
            (* go silent mid-frame; the daemon must cut us off *)
            match Wire.recv_reply ~timeout:2.0 fd with
            | Error (Robust.Pllscope_error.Io_timeout _) -> ()
            | Error (Robust.Pllscope_error.Parse _) ->
                (* also acceptable: connection closed before the
                   best-effort error frame got through *)
                ()
            | Ok _ -> Alcotest.fail "slow-loris served"
            | Error err ->
                Alcotest.failf "wrong error: %s"
                  (Robust.Pllscope_error.to_string err));
        (* the daemon is still healthy afterwards *)
        match ok (request path Wire.Health) with
        | Wire.R_healthy -> ()
        | _ -> Alcotest.fail "daemon unhealthy after slow-loris")
  in
  check_true "io timeout counted" (stats.Wire.io_timeouts >= 1)

let test_abrupt_disconnects () =
  let (), _stats =
    with_daemon (fun path _d ->
        (* torn frame, then gone: reads as clean EOF at the daemon *)
        let c1 = conn path in
        let raw =
          let tag, payload = Wire.frame (Wire.Request (Wire.oneshot (Wire.Analyze spec))) in
          Frame.encode ~tag payload
        in
        ignore (Unix.write (Client.fd c1) (Bytes.of_string raw) 0 9);
        Client.close c1;
        (* full request, then gone before the reply: daemon's write side
           must absorb the dead peer *)
        let c2 = conn path in
        ok
          (Wire.send (Client.fd c2)
             (Wire.Request (Wire.oneshot (Wire.Bode { spec; points = 12 }))));
        Client.close c2;
        (* and the daemon keeps serving *)
        match ok (request path Wire.Health) with
        | Wire.R_healthy -> ()
        | _ -> Alcotest.fail "daemon unhealthy after disconnects")
  in
  ()

(* ------------------------------------------------------------------ *)
(* fault-injected soak                                                 *)

let test_soak_with_faults () =
  let cfg = { base_cfg with Daemon.read_timeout = 2.0; max_clients = 32 } in
  let (), stats =
    with_daemon ~cfg (fun path _d ->
        Robust.Inject.configure ~seed:7
          "net-torn:~0.2,net-drop:~0.15,net-slow:~0.1";
        Fun.protect
          ~finally:(fun () -> Robust.Inject.disarm ())
          (fun () ->
            let n_clients = 8 and per_client = 6 in
            let failures = Atomic.make 0 in
            let threads =
              Array.init n_clients (fun i ->
                  Thread.create
                    (fun () ->
                      for j = 0 to per_client - 1 do
                        let body =
                          match (i + j) mod 3 with
                          | 0 -> Wire.Analyze spec
                          | 1 -> Wire.Bode { spec; points = 6 + i }
                          | _ -> Wire.Health
                        in
                        let r =
                          Client.with_retries ~attempts:10 ~base_delay:0.01
                            ~max_delay:0.05 ~seed:(i * 100 + j)
                            ~connect:(fun () -> conn path)
                            (fun c ->
                              Client.request ~timeout:5.0 ~stall:0.05 c
                                (Wire.oneshot body))
                        in
                        match r with
                        | Ok _ -> ()
                        | Error _ -> Atomic.incr failures
                      done)
                    ())
            in
            Array.iter Thread.join threads;
            check_int "every request recovered through retries" 0
              (Atomic.get failures));
        (* faults disarmed: the daemon must still be pristine *)
        match ok (request path Wire.Health) with
        | Wire.R_healthy -> ()
        | _ -> Alcotest.fail "daemon unhealthy after soak")
  in
  check_true "soak actually served" (stats.Wire.served >= 8)

(* ------------------------------------------------------------------ *)
(* shutdown                                                            *)

let test_stop_mid_request_returns () =
  let dir = hold_dir () in
  Fun.protect ~finally:(fun () -> remove_dir dir) @@ fun () ->
  let cfg =
    { base_cfg with Daemon.drain_grace = 0.05; workers = 1; state_dir = Some dir }
  in
  let (), _stats =
    with_daemon ~cfg (fun path d ->
        let got_reply = ref None in
        let ratios = Array.init 64 (fun i -> 0.05 +. (0.002 *. float_of_int i)) in
        let fifo = hold_slot dir ratios in
        with_held_slot fifo @@ fun () ->
        let th =
          Thread.create
            (fun () ->
              got_reply :=
                Some
                  (Client.sweep_streamed ~attempts:1
                     ~connect:(fun () -> conn path)
                     ~spec ~ratios ()))
            ()
        in
        let _ = wait_stats path (fun s -> s.Wire.active >= 1) in
        (* stop while the request holds its slot, and let it go on only
           once the drain grace is over *)
        Daemon.stop d;
        Thread.delay (4.0 *. cfg.Daemon.drain_grace);
        release_slot fifo;
        Thread.join th;
        (* the in-flight request must resolve — a typed error frame, a
           cancelled partial, or a dropped connection — never a hang
           (Thread.join above is the real assertion) *)
        match !got_reply with
        | Some (Ok _) | Some (Error _) -> ()
        | None -> Alcotest.fail "client thread produced nothing")
  in
  ()

(* Re-exec'd by test_main.ml with argv "serve-stuck": a process whose
   first-signal drain never finishes. The second signal must force an
   immediate exit with the SIGTERM code. *)
let stuck_main () =
  Runner.Shutdown.ignore_sigpipe ();
  Runner.Shutdown.install_handlers ();
  print_string "stuck\n";
  flush stdout;
  while true do
    Thread.delay 0.05
  done

let test_second_signal_forces_exit () =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "serve-stuck" |]
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  (* wait for the handlers to be installed before signalling *)
  let buf = Bytes.create 6 in
  let n = Unix.read out_r buf 0 6 in
  Unix.close out_r;
  check_int "subprocess announced readiness" 6 n;
  Unix.kill pid Sys.sigterm;
  Thread.delay 0.2;
  (* still alive: the first signal only requested a drain *)
  let alive, _ = Unix.waitpid [ Unix.WNOHANG ] pid in
  check_int "survived the first SIGTERM" 0 alive;
  Unix.kill pid Sys.sigterm;
  let _, status = Unix.waitpid [] pid in
  match status with
  | Unix.WEXITED code ->
      check_int "forced exit code" Runner.Shutdown.exit_terminated code
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ ->
      Alcotest.fail "subprocess killed instead of exiting"

let suite =
  [
    case "lru evicts least recently used" (clean test_lru_evicts);
    case "lru capacity 0 disables" (clean test_lru_disabled);
    fuzz_roundtrip;
    fuzz_truncation;
    fuzz_corruption;
    case "oversized length rejected" (clean test_oversized_length);
    case "stalled read times out" (clean test_read_timeout_stalled);
    case "wedged write times out" (clean test_write_timeout_wedged);
    case "wire round-trip and error tags" (clean test_wire_roundtrip);
    case "cache key ignores deadline" (clean test_cache_key_ignores_deadline);
    case "daemon serves all request kinds" (clean test_daemon_basic);
    case "request error comes back typed" (clean test_daemon_request_error);
    case "cached reply byte-identical" (clean test_daemon_cache_byte_identical);
    case "identical requests single-flight" (clean test_daemon_single_flight);
    case "zero deadline cancels analyze" (clean test_deadline_analyze_cancelled);
    case "zero deadline yields cancelled partial sweep"
      (clean test_deadline_sweep_partial);
    slow_case "busy daemon sheds with retry hint" (clean test_overload_sheds);
    case "slow-loris client times out" (clean test_slow_loris_times_out);
    case "abrupt disconnects tolerated" (clean test_abrupt_disconnects);
    slow_case "8-client soak with injected faults" (clean test_soak_with_faults);
    slow_case "stop mid-request still returns" (clean test_stop_mid_request_returns);
    case "second SIGTERM forces exit 143" (clean test_second_signal_forces_exit);
  ]
