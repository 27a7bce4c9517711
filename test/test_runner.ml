(* Crash-safe sweep execution end to end:

   - CRC-32 matches the IEEE reference vector and composes;
   - Atomic_file.write is all-or-nothing: an exception mid-write leaves
     the target untouched and no temp residue;
   - the checkpoint journal round-trips frames, tolerates a torn tail
     (both a real truncation and the journal-torn injection site) and
     rejects non-journal files with a typed Parse error;
   - a run crashed at a random point (crash-at-point) and resumed is
     bit-identical to an uninterrupted run, at pool sizes 1 and 4;
   - a resumed run recomputes only the points missing from the journal;
   - a journal written with plain [Marshal.to_string v []] (before the
     codec's No_sharing) resumes bit-identically, and an undecodable
     payload is a typed Parse error naming the journal;
   - a run records its workload key in the journal, and a resume with
     another key is a typed Parse error naming the journal, raised
     before any payload is decoded (the journals built by hand above
     carry no record and resume as before);
   - a hung task (task-hang) is condemned by the watchdog as a typed
     Timed_out while the rest of the grid completes;
   - cancellation surfaces as typed Cancelled failures, preserving
     everything computed before the token fired;
   - Robust.Stats.reset isolates back-to-back runs. *)

open Helpers
module Pool = Parallel.Pool
module Sweep = Parallel.Sweep
module Cancel = Parallel.Cancel
module E = Robust.Pllscope_error

(* every test restores the global robustness/cancellation state *)
let clean f () =
  Fun.protect
    ~finally:(fun () ->
      Robust.Inject.disarm ();
      Robust.Config.reset ();
      Robust.Stats.reset ();
      Cancel.reset_global ())
    f

(* fresh scratch directory per call; tests clean up by rough sweep *)
let scratch_counter = ref 0
let scratch_dir () =
  incr scratch_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pllscope_runner_%d_%d" (Unix.getpid ()) !scratch_counter)
  in
  Sys.mkdir d 0o700;
  d

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_raw path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* the deterministic sweep task used throughout *)
let fval i = sin (float_of_int i *. 0.7) +. (float_of_int i *. 1.3)

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_partial_bit_identical msg (a : float Sweep.partial)
    (b : float Sweep.partial) =
  check_int (msg ^ ": total") a.Sweep.total b.Sweep.total;
  check_int (msg ^ ": failures")
    (List.length a.Sweep.failures)
    (List.length b.Sweep.failures);
  Array.iteri
    (fun i va ->
      match (va, b.Sweep.values.(i)) with
      | Some xa, Some xb ->
          if not (bits_equal xa xb) then
            Alcotest.failf "%s: point %d differs (%h vs %h)" msg i xa xb
      | None, None -> ()
      | _ -> Alcotest.failf "%s: point %d present in one run only" msg i)
    a.Sweep.values

(* ------------------------------------------------------------------ *)
(* crc32                                                               *)

let test_crc32 () =
  (* the IEEE 802.3 check value *)
  check_true "reference vector"
    (Int32.equal (Runner.Crc32.string "123456789") 0xCBF43926l);
  check_true "empty string" (Int32.equal (Runner.Crc32.string "") 0l);
  let a = "journal" and b = " frame payload" in
  check_true "update composes"
    (Int32.equal
       (Runner.Crc32.update (Runner.Crc32.string a) b 0 (String.length b))
       (Runner.Crc32.string (a ^ b)));
  match Runner.Crc32.update 0l "abc" 1 5 with
  | _ -> Alcotest.fail "out-of-range update accepted"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* atomic file writes                                                  *)

let test_atomic_file_write () =
  let dir = scratch_dir () in
  let path = Filename.concat dir "report.json" in
  Runner.Atomic_file.write_string path "{\"ok\": true}";
  check_true "content written" (read_file path = "{\"ok\": true}");
  (* overwrite is atomic too *)
  Runner.Atomic_file.write_string path "{\"ok\": false}";
  check_true "overwritten" (read_file path = "{\"ok\": false}")

let test_atomic_file_failure_leaves_target () =
  let dir = scratch_dir () in
  let path = Filename.concat dir "report.json" in
  Runner.Atomic_file.write_string path "old content";
  (match
     Runner.Atomic_file.write path (fun oc ->
         output_string oc "partial junk";
         failwith "Test_runner: simulated writer crash")
   with
  | () -> Alcotest.fail "writer exception swallowed"
  | exception Failure _ -> ());
  check_true "target untouched after failed write"
    (read_file path = "old content");
  check_int "no temp residue" 1 (Array.length (Sys.readdir dir))

(* ------------------------------------------------------------------ *)
(* journal                                                             *)

let test_journal_roundtrip () =
  let path = Filename.concat (scratch_dir ()) "sweep.ckpt" in
  check_true "missing file replays empty" (Runner.Journal.replay path = []);
  let j = Runner.Journal.open_append path in
  Runner.Journal.append j ~index:0 "alpha";
  Runner.Journal.append j ~index:3 "beta";
  Runner.Journal.append j ~index:1 "";
  Runner.Journal.close j;
  check_true "frames replay in append order"
    (Runner.Journal.replay path = [ (0, "alpha"); (3, "beta"); (1, "") ]);
  (* re-open appends after the existing frames *)
  let j = Runner.Journal.open_append path in
  Runner.Journal.append j ~index:2 "gamma";
  Runner.Journal.close j;
  Runner.Journal.close j (* idempotent *);
  check_true "append after reopen"
    (Runner.Journal.replay path
    = [ (0, "alpha"); (3, "beta"); (1, ""); (2, "gamma") ]);
  match Runner.Journal.append j ~index:9 "x" with
  | () -> Alcotest.fail "append on closed journal accepted"
  | exception Invalid_argument _ -> ()

let test_journal_torn_tail () =
  let path = Filename.concat (scratch_dir ()) "sweep.ckpt" in
  let j = Runner.Journal.open_append path in
  Runner.Journal.append j ~index:0 "alpha";
  Runner.Journal.append j ~index:1 "beta";
  Runner.Journal.close j;
  let raw = read_file path in
  (* tear the last frame mid-payload, as a crash mid-write would *)
  write_raw path (String.sub raw 0 (String.length raw - 3));
  check_true "torn tail dropped, complete frames kept"
    (Runner.Journal.replay path = [ (0, "alpha") ]);
  (* open_append truncates the tear so new frames land on a boundary *)
  let j = Runner.Journal.open_append path in
  Runner.Journal.append j ~index:7 "gamma";
  Runner.Journal.close j;
  check_true "clean append after truncated tail"
    (Runner.Journal.replay path = [ (0, "alpha"); (7, "gamma") ])

let test_journal_corrupt_frame () =
  let path = Filename.concat (scratch_dir ()) "sweep.ckpt" in
  let j = Runner.Journal.open_append path in
  Runner.Journal.append j ~index:0 "alpha";
  Runner.Journal.append j ~index:1 "beta";
  Runner.Journal.close j;
  let raw = read_file path in
  (* flip one payload byte of the last frame: its CRC must reject it *)
  let b = Bytes.of_string raw in
  Bytes.set b (Bytes.length b - 1) 'X';
  write_raw path (Bytes.to_string b);
  check_true "corrupt frame rejected by checksum"
    (Runner.Journal.replay path = [ (0, "alpha") ])

let test_journal_bad_magic () =
  let path = Filename.concat (scratch_dir ()) "notajournal.ckpt" in
  write_raw path "this is not a pllscope checkpoint journal, honest\n";
  match Runner.Journal.replay path with
  | _ -> Alcotest.fail "bad magic accepted"
  | exception E.Error (Parse { msg; _ }) ->
      check_true "error names the magic check"
        (String.length msg > 0)

let test_journal_torn_injection () =
  let path = Filename.concat (scratch_dir ()) "sweep.ckpt" in
  let j = Runner.Journal.open_append path in
  Runner.Journal.append j ~index:0 "alpha";
  (* the injected crash tears the next frame halfway through *)
  Robust.Inject.configure "journal-torn:1";
  (match Runner.Journal.append j ~index:1 "beta" with
  | () -> Alcotest.fail "journal-torn site did not fire"
  | exception Robust.Inject.Simulated_crash -> ());
  Robust.Inject.disarm ();
  Runner.Journal.close j;
  check_true "torn frame invisible to replay"
    (Runner.Journal.replay path = [ (0, "alpha") ]);
  let j = Runner.Journal.open_append path in
  Runner.Journal.append j ~index:1 "beta";
  Runner.Journal.close j;
  check_true "recovery resumes on a clean boundary"
    (Runner.Journal.replay path = [ (0, "alpha"); (1, "beta") ])

(* ------------------------------------------------------------------ *)
(* crash-at-point + resume: bit-identical to uninterrupted             *)

let grid_n = 12
let grid_idx = Array.init grid_n (fun i -> i)

let uninterrupted () =
  Pool.with_pool ~domains:1 (fun p ->
      Runner.Run.grid ~pool:p fval grid_idx)

let crash_and_resume ~domains ~crash_at =
  let path = Filename.concat (scratch_dir ()) "sweep.ckpt" in
  (* phase 1: run with a crash injected at the [crash_at]-th computed
     point; the simulated crash escapes Run.grid like a process death *)
  Robust.Inject.configure (Printf.sprintf "crash-at-point:%d" (crash_at + 1));
  (match
     Pool.with_pool ~domains (fun p ->
         Runner.Run.grid ~pool:p ~checkpoint:(path, "fval") fval grid_idx)
   with
  | (_ : float Sweep.partial) ->
      (* a crash index past the grid size never fires: fine *)
      check_true "crash index past grid" (crash_at >= grid_n)
  | exception Robust.Inject.Simulated_crash -> ());
  Robust.Inject.disarm ();
  let journaled = List.length (Runner.Journal.replay path) in
  Robust.Stats.reset ();
  (* phase 2: resume *)
  let r =
    Pool.with_pool ~domains (fun p ->
        Runner.Run.grid ~pool:p ~checkpoint:(path, "fval") ~resume:true fval
          grid_idx)
  in
  let st = Robust.Stats.snapshot () in
  check_int "every journaled point resumed, none recomputed" journaled
    st.Robust.Stats.resumed_points;
  r

let test_crash_resume_bit_identical () =
  let reference = uninterrupted () in
  List.iter
    (fun domains ->
      List.iter
        (fun crash_at ->
          let r = crash_and_resume ~domains ~crash_at in
          check_partial_bit_identical
            (Printf.sprintf "crash at %d, %d domain(s)" crash_at domains)
            reference r)
        [ 0; 3; grid_n - 1 ])
    [ 1; 4 ]

let test_crash_resume_random_index =
  qcheck ~count:6 "resume after crash at a random point is bit-identical"
    QCheck2.Gen.(int_range 0 (grid_n - 1))
    (fun crash_at ->
      let wrapped () =
        let reference = uninterrupted () in
        let r = crash_and_resume ~domains:4 ~crash_at in
        check_partial_bit_identical "random crash point" reference r
      in
      clean wrapped ();
      true)

let test_resume_recomputes_only_missing () =
  let path = Filename.concat (scratch_dir ()) "sweep.ckpt" in
  let computed = Atomic.make 0 in
  let f i =
    Atomic.incr computed;
    fval i
  in
  let full =
    Pool.with_pool ~domains:2 (fun p ->
        Runner.Run.grid ~pool:p ~checkpoint:(path, "fval") f grid_idx)
  in
  check_int "first run computes everything" grid_n (Atomic.get computed);
  (* tear the tail: the last frame is lost, the rest stay durable *)
  let raw = read_file path in
  write_raw path (String.sub raw 0 (String.length raw - 5));
  let kept = List.length (Runner.Journal.replay path) in
  check_int "exactly one frame torn" (grid_n - 1) kept;
  Atomic.set computed 0;
  Robust.Stats.reset ();
  let r =
    Pool.with_pool ~domains:2 (fun p ->
        Runner.Run.grid ~pool:p ~checkpoint:(path, "fval") ~resume:true f grid_idx)
  in
  check_int "only the torn point recomputed" (grid_n - kept)
    (Atomic.get computed);
  check_int "the rest replayed from the journal" kept
    (Robust.Stats.snapshot ()).Robust.Stats.resumed_points;
  check_partial_bit_identical "torn-tail resume" full r;
  (* a fully journaled grid resumes without computing anything *)
  Atomic.set computed 0;
  let r2 =
    Pool.with_pool ~domains:2 (fun p ->
        Runner.Run.grid ~pool:p ~checkpoint:(path, "fval") ~resume:true f grid_idx)
  in
  check_int "nothing recomputed on a complete journal" 0 (Atomic.get computed);
  check_partial_bit_identical "complete-journal resume" full r2

(* A journal written before checkpoint payloads moved to the codec's
   [No_sharing] Marshal (plain [Marshal.to_string v []]) still resumes:
   every value replays bit-identically and none is recomputed. *)
let test_resume_across_upgrade () =
  let path = Filename.concat (scratch_dir ()) "old.ckpt" in
  let j = Runner.Journal.open_append path in
  Array.iter
    (fun i -> Runner.Journal.append j ~index:i (Marshal.to_string (fval i) []))
    grid_idx;
  Runner.Journal.close j;
  let computed = Atomic.make 0 in
  let f i =
    Atomic.incr computed;
    fval i
  in
  let r = Runner.Run.grid ~checkpoint:(path, "fval") ~resume:true f grid_idx in
  check_int "nothing recomputed" 0 (Atomic.get computed);
  check_int "every point replayed" grid_n
    (Robust.Stats.snapshot ()).Robust.Stats.resumed_points;
  Array.iteri
    (fun i v ->
      match v with
      | Some x -> check_true "replayed bit-identical" (bits_equal x (fval i))
      | None -> Alcotest.failf "point %d missing" i)
    r.Sweep.values

let test_resume_undecodable_payload () =
  let path = Filename.concat (scratch_dir ()) "garbage.ckpt" in
  let j = Runner.Journal.open_append path in
  Runner.Journal.append j ~index:0 (String.make 40 '\x5a');
  Runner.Journal.close j;
  match Runner.Run.grid ~checkpoint:(path, "fval") ~resume:true fval grid_idx with
  | _ -> Alcotest.fail "garbage journal payload accepted"
  | exception E.Error (E.Parse { file; _ }) ->
      check_true "error names the journal" (file = path)

(* A journal of another workload — here its points are strings, which
   a float sweep must never decode — is refused by its record. *)
let test_resume_refuses_other_key () =
  let path = Filename.concat (scratch_dir ()) "other.ckpt" in
  let words i = String.make (1 + (i mod 7)) 'w' in
  ignore (Runner.Run.grid ~checkpoint:(path, "words") words grid_idx);
  check_true "record written" (Runner.Journal.key path = Some "words");
  let bytes = read_file path in
  let computed = Atomic.make 0 in
  let f i =
    Atomic.incr computed;
    fval i
  in
  (match
     Runner.Run.grid ~checkpoint:(path, "floats") ~resume:true f grid_idx
   with
  | _ -> Alcotest.fail "journal of another workload resumed"
  | exception E.Error (E.Parse { file; _ }) ->
      check_true "error names the journal" (file = path));
  check_int "nothing computed" 0 (Atomic.get computed);
  check_int "nothing resumed" 0
    (Robust.Stats.snapshot ()).Robust.Stats.resumed_points;
  check_true "journal untouched" (read_file path = bytes);
  (* the same key resumes every point *)
  let r =
    Runner.Run.grid ~checkpoint:(path, "words") ~resume:true words grid_idx
  in
  check_int "all replayed" grid_n (Sweep.ok_count r)

let test_resume_requires_checkpoint () =
  match Runner.Run.grid ~resume:true fval grid_idx with
  | _ -> Alcotest.fail "resume without checkpoint accepted"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* watchdog timeouts and cancellation                                  *)

let test_task_hang_times_out () =
  (* the third task attempt hangs; the watchdog condemns it while the
     rest of the grid completes normally *)
  Robust.Inject.configure "task-hang:3";
  let r =
    Pool.with_pool ~domains:1 (fun p ->
        Sweep.grid_checked ~pool:p ~chunk:1 ~task_timeout:0.2 fval grid_idx)
  in
  check_int "exactly one point lost" 1 (List.length r.Sweep.failures);
  (match r.Sweep.failures with
  | [ (i, E.Timed_out { task; seconds }) ] ->
      check_int "hung point is the third attempt" 2 i;
      check_int "payload task matches" 2 task;
      check_close "payload carries the configured bound" 0.2 seconds
  | _ -> Alcotest.fail "expected a single Timed_out failure");
  check_int "rest of the grid completed" (grid_n - 1) (Sweep.ok_count r);
  Array.iteri
    (fun i v ->
      match v with
      | Some x ->
          check_true "survivor bit-identical to clean eval"
            (bits_equal x (fval i))
      | None -> check_int "only the hung point missing" 2 i)
    r.Sweep.values;
  check_int "timeout counted" 1
    (Robust.Stats.snapshot ()).Robust.Stats.task_timeouts

let test_cancelled_token_preserves_nothing_started () =
  let token = Cancel.create () in
  Cancel.cancel token (Cancel.User "test cancellation");
  let r =
    Pool.with_pool ~domains:2 (fun p ->
        Sweep.grid_checked ~pool:p ~cancel:token fval grid_idx)
  in
  check_int "no point executes after cancellation" 0 (Sweep.ok_count r);
  check_int "every point reported" grid_n (List.length r.Sweep.failures);
  List.iter
    (fun (_, e) ->
      match e with
      | E.Cancelled { reason } -> check_true "reason recorded" (reason <> "")
      | e -> Alcotest.failf "expected Cancelled, got %s" (E.to_string e))
    r.Sweep.failures;
  check_int "cancellations counted" grid_n
    (Robust.Stats.snapshot ()).Robust.Stats.cancelled_points

let test_deadline_drains_cleanly () =
  (* tasks sleep long enough that a 50 ms deadline fires mid-grid: the
     claimed chunks finish, the tail is typed Cancelled *)
  let f i =
    Unix.sleepf 0.02;
    fval i
  in
  let r =
    Cancel.with_deadline ~seconds:0.05 (fun () ->
        Pool.with_pool ~domains:2 (fun p ->
            Sweep.grid_checked ~pool:p ~chunk:1 f (Array.init 24 (fun i -> i))))
  in
  check_true "some points completed before the deadline"
    (Sweep.ok_count r > 0);
  check_true "some points were cancelled" (r.Sweep.failures <> []);
  List.iter
    (fun (_, e) ->
      match e with
      | E.Cancelled { reason } ->
          check_true "reason names the deadline"
            (String.length reason > 0)
      | e -> Alcotest.failf "expected Cancelled, got %s" (E.to_string e))
    r.Sweep.failures;
  (* completed points are bit-identical to a clean run *)
  Array.iteri
    (fun i v ->
      match v with
      | Some x -> check_true "prefix bit-identical" (bits_equal x (fval i))
      | None -> ())
    r.Sweep.values

(* ------------------------------------------------------------------ *)
(* stats isolation between back-to-back runs                           *)

let test_stats_reset_between_runs () =
  (* run 1 records noise: a transient failure absorbed by retry *)
  let touched = Atomic.make 0 in
  let f i =
    if i = 2 && Atomic.fetch_and_add touched 1 = 0 then
      failwith "Test_runner: transient failure"
    else fval i
  in
  let r1 =
    Pool.with_pool ~domains:1 (fun p ->
        Sweep.grid_checked ~pool:p ~retries:2 f grid_idx)
  in
  check_int "run 1 clean after retry" grid_n (Sweep.ok_count r1);
  check_true "run 1 left counters behind"
    (Robust.Stats.total (Robust.Stats.snapshot ()) > 0);
  (* a fresh run (as the CLI does at subcommand start) resets first *)
  Robust.Stats.reset ();
  let r2 =
    Pool.with_pool ~domains:1 (fun p ->
        Sweep.grid_checked ~pool:p ~retries:2 fval grid_idx)
  in
  check_int "run 2 clean" grid_n (Sweep.ok_count r2);
  check_int "run 2 sees none of run 1's counters" 0
    (Robust.Stats.total (Robust.Stats.snapshot ()))

let suite =
  [
    case "crc32 reference vector and composition" (clean test_crc32);
    case "atomic file write" (clean test_atomic_file_write);
    case "atomic write failure leaves target untouched"
      (clean test_atomic_file_failure_leaves_target);
    case "journal: roundtrip and reopen" (clean test_journal_roundtrip);
    case "journal: torn tail tolerated and truncated"
      (clean test_journal_torn_tail);
    case "journal: corrupt frame rejected by CRC"
      (clean test_journal_corrupt_frame);
    case "journal: bad magic is a typed parse error"
      (clean test_journal_bad_magic);
    case "inject journal-torn: tear, recover, resume"
      (clean test_journal_torn_injection);
    case "crash-at-point + resume bit-identical (pool 1 and 4)"
      (clean test_crash_resume_bit_identical);
    test_crash_resume_random_index;
    case "resume recomputes only missing points"
      (clean test_resume_recomputes_only_missing);
    case "resume of a journal from before the codec"
      (clean test_resume_across_upgrade);
    case "undecodable journal payload is a typed Parse error"
      (clean test_resume_undecodable_payload);
    case "resume requires a checkpoint path"
      (clean test_resume_requires_checkpoint);
    case "inject task-hang: typed timeout, rest completes"
      (clean test_task_hang_times_out);
    case "cancelled token: typed failures, nothing executes"
      (clean test_cancelled_token_preserves_nothing_started);
    slow_case "deadline drains cleanly mid-grid"
      (clean test_deadline_drains_cleanly);
    case "stats reset isolates back-to-back runs"
      (clean test_stats_reset_between_runs);
    case "resume with another workload key is a typed Parse error"
      (clean test_resume_refuses_other_key);
  ]
