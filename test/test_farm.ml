(* Sharded sweep farm end to end:

   - Journal.merge is first-wins, sorted, and canonical; inspect and
     compact report and repair duplicate/torn journals;
   - Journal.Frame round-trips messages over a pipe, reads a torn frame
     as EOF and rejects a corrupt frame with a typed Parse error;
     Protocol.recv rejects a CRC-valid frame with an undecodable payload
     the same way;
   - a farm run at shard counts 1, 2, 4 and 7 produces payloads and a
     merged base journal byte-identical to the canonical single-process
     journal — the bit-identity guarantee at the process level;
   - a worker kill -9'd at a QCheck-random point with stealing on is
     survived: the range is re-queued, the run completes, bytes equal;
   - without stealing the killed shard's points surface as typed
     Worker_failure and a --resume-style second run completes them,
     bytes equal again;
   - worker Robust.Stats travel back in Exit frames and are absorbed
     into the coordinator's counters;
   - every journal records the digest of the workload blob: a resume
     over a base or shard journal of another workload is a typed Parse
     error naming the journal, a journal from before the record still
     resumes, and merge and compact carry the record over.

   The farm spawns real subprocesses: this test binary re-execs itself
   with argv "farm-worker" (dispatched in test_main.ml before Alcotest
   takes over) and serves the protocol via Test_farm.worker_main. *)

open Helpers

let clean f () =
  Fun.protect
    ~finally:(fun () ->
      Robust.Inject.disarm ();
      Robust.Config.reset ();
      Robust.Stats.reset ();
      Parallel.Cancel.reset_global ())
    f

let scratch_counter = ref 0

let scratch_dir () =
  incr scratch_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pllscope_farm_%d_%d" (Unix.getpid ()) !scratch_counter)
  in
  Sys.mkdir d 0o700;
  d

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* the deterministic sweep task used throughout *)
let fval i = sin (float_of_int i *. 0.7) +. (float_of_int i *. 1.3)
let encode_value i = Marshal.to_string (fval i) []
let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* ------------------------------------------------------------------ *)
(* the test workload served by the re-exec'd worker                    *)

type wl = {
  flaky_every : int option;  (* index stride that fails on first attempt *)
}

let quiet = { flaky_every = None }
let blob_of (wl : wl) = Marshal.to_string wl []

(* A kill is a fault of the worker process, not part of the workload:
   it rides in the worker's argv ("farm-worker SHARD AFTER": shard
   SHARD kills itself after AFTER computed points), so a killed run and
   its resume share one workload identity. *)
let worker_main () =
  let kill =
    match Sys.argv with
    | [| _; _; ks; after |] -> Some (int_of_string ks, int_of_string after)
    | _ -> None
  in
  Farm.Worker.serve
    ~resolve:(fun shard blob ->
      let wl : wl = Marshal.from_string blob 0 in
      let computed = Atomic.make 0 in
      let m = Mutex.create () in
      let tried : (int, unit) Hashtbl.t = Hashtbl.create 64 in
      fun i ->
        (match kill with
        | Some (ks, after) when ks = shard ->
            if Atomic.fetch_and_add computed 1 >= after then
              Unix.kill (Unix.getpid ()) Sys.sigkill
        | _ -> ());
        (match wl.flaky_every with
        | Some k when k > 0 && i mod k = 0 ->
            let first_attempt =
              Mutex.protect m (fun () ->
                  if Hashtbl.mem tried i then false
                  else begin
                    Hashtbl.add tried i ();
                    true
                  end)
            in
            if first_attempt then
              failwith "Test_farm.worker_main: injected transient failure"
        | _ -> ());
        encode_value i)
    ()

let farm_cfg ?(steal = true) ?(resume = false) ?(slice = Some 3) ?kill ~base
    wl shards =
  let fault =
    match kill with
    | Some (ks, after) -> [| string_of_int ks; string_of_int after |]
    | None -> [||]
  in
  {
    Farm.Coordinator.shards;
    steal;
    resume;
    checkpoint = base;
    blob = blob_of wl;
    worker_argv =
      (fun _ -> Array.append [| Sys.executable_name; "farm-worker" |] fault);
    slice;
    chunk = None;
    retries = None;
    task_timeout = None;
    progress = false;
  }

(* canonical journal for grid 0..n-1 of the [quiet] workload: what any
   correct farm run's merged base must equal byte for byte *)
let canonical_journal dir n =
  let path = Filename.concat dir "canonical.ckpt" in
  let j = Runner.Journal.create path ~key:(Digest.string (blob_of quiet)) in
  for i = 0 to n - 1 do
    Runner.Journal.append j ~index:i (encode_value i)
  done;
  Runner.Journal.close j;
  ignore (Runner.Journal.merge ~into:path [ path ]);
  path

let check_payloads_complete msg n (r : Farm.Coordinator.report) =
  check_int (msg ^ ": total") n r.Farm.Coordinator.total;
  check_int (msg ^ ": failures") 0 (List.length r.Farm.Coordinator.failures);
  Array.iteri
    (fun i p ->
      match p with
      | None -> Alcotest.failf "%s: point %d missing" msg i
      | Some s ->
          let v : float = Marshal.from_string s 0 in
          if not (bits_equal v (fval i)) then
            Alcotest.failf "%s: point %d differs (%h vs %h)" msg i v (fval i))
    r.Farm.Coordinator.payloads

(* ------------------------------------------------------------------ *)
(* journal merge / inspect / compact                                   *)

let mk_journal dir name frames =
  let path = Filename.concat dir name in
  let j = Runner.Journal.open_append path in
  List.iter (fun (i, p) -> Runner.Journal.append j ~index:i p) frames;
  Runner.Journal.close j;
  path

let test_merge_dedup_sort () =
  let dir = scratch_dir () in
  let a = mk_journal dir "a" [ (4, "four"); (0, "zero"); (2, "two-a") ] in
  let b = mk_journal dir "b" [ (1, "one"); (2, "two-b"); (3, "three") ] in
  let into = Filename.concat dir "merged" in
  let n = Runner.Journal.merge ~into [ a; b ] in
  check_int "distinct frames" 5 n;
  let frames = Runner.Journal.replay into in
  check_int "replayed" 5 (List.length frames);
  (* sorted by index *)
  check_true "sorted"
    (List.map fst frames = List.sort compare (List.map fst frames));
  (* first source wins for index 2 *)
  check_true "first-wins" (List.assoc 2 frames = "two-a");
  (* missing sources are empty journals *)
  let n2 =
    Runner.Journal.merge ~into [ a; Filename.concat dir "absent"; b ]
  in
  check_int "missing source tolerated" 5 n2;
  (* merge output is canonical: merging the merge is a fixpoint *)
  let bytes1 = read_file into in
  ignore (Runner.Journal.merge ~into [ into ]);
  check_true "merge is idempotent on its own output"
    (read_file into = bytes1)

let test_inspect () =
  let dir = scratch_dir () in
  let path =
    mk_journal dir "j" [ (0, "a"); (1, "b"); (1, "b2"); (5, "c") ]
  in
  (* torn tail: raw garbage after the last complete frame *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "torn";
  close_out oc;
  let i = Runner.Journal.inspect path in
  check_int "frames" 4 i.Runner.Journal.frames;
  check_int "distinct" 3 i.Runner.Journal.distinct;
  check_int "duplicates" 1 i.Runner.Journal.duplicates;
  check_int "torn bytes" 4 i.Runner.Journal.torn_bytes;
  check_true "max index" (i.Runner.Journal.max_index = Some 5);
  check_int "bytes add up" i.Runner.Journal.bytes
    (i.Runner.Journal.valid_bytes + i.Runner.Journal.torn_bytes);
  (* a missing file is an empty journal *)
  let empty = Runner.Journal.inspect (Filename.concat dir "absent") in
  check_int "missing file frames" 0 empty.Runner.Journal.frames;
  check_true "missing file max" (empty.Runner.Journal.max_index = None)

let test_compact () =
  let dir = scratch_dir () in
  let path =
    mk_journal dir "j"
      [ (2, "two"); (0, "zero"); (2, "late-dup"); (0, "late-dup"); (1, "one") ]
  in
  let kept, dropped = Runner.Journal.compact path in
  check_int "kept" 3 kept;
  check_int "dropped" 2 dropped;
  let frames = Runner.Journal.replay path in
  (* first frame per index survives, in original first-seen order *)
  check_true "content"
    (frames = [ (2, "two"); (0, "zero"); (1, "one") ]);
  let i = Runner.Journal.inspect path in
  check_int "no duplicates left" 0 i.Runner.Journal.duplicates;
  (* compacting a compacted journal is a no-op *)
  let k2, d2 = Runner.Journal.compact path in
  check_int "idempotent kept" 3 k2;
  check_int "idempotent dropped" 0 d2

(* ------------------------------------------------------------------ *)
(* pipe framing                                                        *)

let test_frame_roundtrip () =
  let r, w = Unix.pipe () in
  check_true "write" (Runner.Journal.Frame.write_result w ~tag:3 "hello" = Ok ());
  check_true "write empty" (Runner.Journal.Frame.write_result w ~tag:0 "" = Ok ());
  Unix.close w;
  (match Runner.Journal.Frame.read_result r with
  | Ok (Some (3, "hello")) -> ()
  | _ -> Alcotest.fail "first frame mangled");
  (match Runner.Journal.Frame.read_result r with
  | Ok (Some (0, "")) -> ()
  | _ -> Alcotest.fail "empty payload mangled");
  check_true "EOF after last frame" (Runner.Journal.Frame.read_result r = Ok None);
  Unix.close r;
  match Runner.Journal.Frame.write_result Unix.stdin ~tag:(-1) "x" with
  | _ -> Alcotest.fail "negative tag accepted"
  | exception Invalid_argument _ -> ()

let test_frame_torn_and_corrupt () =
  let dir = scratch_dir () in
  let path = Filename.concat dir "frames" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  Runner.Journal.Frame.write_all fd (Runner.Journal.Frame.encode ~tag:7 "payload");
  Unix.close fd;
  let full = read_file path in
  (* torn mid-frame reads as clean EOF *)
  let torn = Filename.concat dir "torn" in
  Out_channel.with_open_bin torn (fun oc ->
      Out_channel.output_string oc
        (String.sub full 0 (String.length full - 3)));
  let fd = Unix.openfile torn [ Unix.O_RDONLY ] 0o644 in
  check_true "torn frame is EOF" (Runner.Journal.Frame.read_result fd = Ok None);
  Unix.close fd;
  (* a bit flip in a complete frame is typed corruption *)
  let bad = Bytes.of_string full in
  Bytes.set bad (String.length full - 1)
    (Char.chr (Char.code (Bytes.get bad (String.length full - 1)) lxor 1));
  let corrupt = Filename.concat dir "corrupt" in
  Out_channel.with_open_bin corrupt (fun oc ->
      Out_channel.output_bytes oc bad);
  let fd = Unix.openfile corrupt [ Unix.O_RDONLY ] 0o644 in
  (match Runner.Journal.Frame.read_result fd with
  | Error (Robust.Pllscope_error.Parse _) -> ()
  | _ -> Alcotest.fail "corrupt frame accepted");
  Unix.close fd

let test_protocol_undecodable_payload () =
  let r, w = Unix.pipe () in
  (* a CRC-valid Hello frame whose payload is not codec bytes *)
  Runner.Journal.Frame.write_all w
    (Runner.Journal.Frame.encode ~tag:1 (String.make 40 '\x5a'));
  Unix.close w;
  Fun.protect
    ~finally:(fun () -> Unix.close r)
    (fun () ->
      match Farm.Protocol.recv r with
      | _ -> Alcotest.fail "garbage payload accepted"
      | exception Robust.Pllscope_error.Error (Robust.Pllscope_error.Parse _)
        ->
          ())

(* ------------------------------------------------------------------ *)
(* farm end to end                                                     *)

let n_points = 60

let test_shard_counts_bit_identical () =
  let dir = scratch_dir () in
  let canon = read_file (canonical_journal dir n_points) in
  List.iter
    (fun shards ->
      let base = Filename.concat dir (Printf.sprintf "farm%d" shards) in
      let report =
        Farm.Coordinator.run (farm_cfg ~base quiet shards) ~n:n_points
      in
      check_payloads_complete (Printf.sprintf "%d shards" shards) n_points
        report;
      check_true
        (Printf.sprintf "%d shards: merged journal byte-identical" shards)
        (read_file base = canon);
      check_true
        (Printf.sprintf "%d shards: shard journals removed" shards)
        (Farm.Coordinator.existing_shards base = []))
    [ 1; 2; 4; 7 ]

let test_more_shards_than_points () =
  let dir = scratch_dir () in
  let base = Filename.concat dir "tiny" in
  let report = Farm.Coordinator.run (farm_cfg ~base quiet 7) ~n:3 in
  check_payloads_complete "7 shards, 3 points" 3 report

let test_empty_grid () =
  let dir = scratch_dir () in
  let base = Filename.concat dir "empty" in
  let report = Farm.Coordinator.run (farm_cfg ~base quiet 2) ~n:0 in
  check_int "empty total" 0 report.Farm.Coordinator.total;
  check_int "empty failures" 0 (List.length report.Farm.Coordinator.failures)

let test_stats_absorbed () =
  let dir = scratch_dir () in
  let base = Filename.concat dir "flaky" in
  Robust.Stats.reset ();
  let report =
    Farm.Coordinator.run
      (farm_cfg ~base { flaky_every = Some 5 } 3)
      ~n:n_points
  in
  check_payloads_complete "flaky workload retried in-lane" n_points report;
  (* indices 0, 5, ..., 55 each fail once and are retried in their
     worker; the Exit frames carry those counters home *)
  let s = Robust.Stats.snapshot () in
  check_int "absorbed pool retries" 12 s.Robust.Stats.pool_retries;
  check_int "absorbed resumed" 0 s.Robust.Stats.resumed_points

let test_resume_after_full_run_spawns_nothing () =
  let dir = scratch_dir () in
  let base = Filename.concat dir "done" in
  let r1 = Farm.Coordinator.run (farm_cfg ~base quiet 2) ~n:n_points in
  check_payloads_complete "first run" n_points r1;
  let bytes1 = read_file base in
  let r2 =
    Farm.Coordinator.run (farm_cfg ~base ~resume:true quiet 2) ~n:n_points
  in
  check_payloads_complete "resumed no-op run" n_points r2;
  check_int "everything resumed" n_points r2.Farm.Coordinator.resumed;
  check_true "journal unchanged" (read_file base = bytes1)

let gen_kill_scenario =
  QCheck2.Gen.(
    oneofl [ 2; 4; 7 ] >>= fun shards ->
    int_range 0 (shards - 1) >>= fun ks ->
    int_range 0 20 >>= fun after -> return (shards, ks, after))

let qcheck_kill_one_worker_steal =
  qcheck ~count:8 "kill -9 one worker, stealing completes the run"
    gen_kill_scenario
    (fun (shards, ks, after) ->
      let dir = scratch_dir () in
      let canon = read_file (canonical_journal dir n_points) in
      let base = Filename.concat dir "killed" in
      let report =
        Farm.Coordinator.run
          (farm_cfg ~kill:(ks, after) ~base quiet shards)
          ~n:n_points
      in
      check_payloads_complete
        (Printf.sprintf "kill shard %d/%d after %d" ks shards after)
        n_points report;
      check_true "merged journal byte-identical after kill"
        (read_file base = canon);
      true)

let test_kill_no_steal_then_resume () =
  let dir = scratch_dir () in
  let canon = read_file (canonical_journal dir n_points) in
  let base = Filename.concat dir "nosteal" in
  (* shard 0 dies after 2 points; without stealing its remaining points
     must surface as typed Worker_failure *)
  let r1 =
    Farm.Coordinator.run
      (farm_cfg ~steal:false ~kill:(0, 2) ~base quiet 2)
      ~n:n_points
  in
  check_true "worker death detected" (r1.Farm.Coordinator.worker_deaths >= 1);
  check_true "dead shard's points failed"
    (r1.Farm.Coordinator.failures <> []);
  List.iter
    (fun (_, err) ->
      match (err : Robust.Pllscope_error.t) with
      | Worker_failure _ -> ()
      | other ->
          Alcotest.failf "expected Worker_failure, got %s"
            (Robust.Pllscope_error.to_string other))
    r1.Farm.Coordinator.failures;
  (* resume (kill disarmed) completes the missing points *)
  Robust.Stats.reset ();
  let r2 =
    Farm.Coordinator.run (farm_cfg ~resume:true ~base quiet 2) ~n:n_points
  in
  check_payloads_complete "resume completes" n_points r2;
  check_true "resume restored the surviving shard's points"
    (r2.Farm.Coordinator.resumed > 0);
  check_true "merged journal byte-identical after kill + resume"
    (read_file base = canon)

let test_steal_rebalances () =
  let dir = scratch_dir () in
  let base = Filename.concat dir "ragged" in
  (* shard 0 is killed immediately, so every one of its points must be
     stolen by the survivor — steals is forced > 0 *)
  let report =
    Farm.Coordinator.run
      (farm_cfg ~kill:(0, 0) ~base quiet 2)
      ~n:n_points
  in
  check_payloads_complete "stolen run completes" n_points report;
  check_true "stealing happened" (report.Farm.Coordinator.steals > 0);
  check_true "death recorded" (report.Farm.Coordinator.worker_deaths >= 1)

(* ------------------------------------------------------------------ *)
(* workload identity                                                   *)

let expect_parse_naming what path f =
  match f () with
  | _ -> Alcotest.failf "%s: resumed another workload's journal" what
  | exception Robust.Pllscope_error.Error (Parse { file; _ }) ->
      check_true
        (Printf.sprintf "%s: Parse names %s (got %s)" what path file)
        (String.equal file path)

let test_resume_refuses_other_workload () =
  let dir = scratch_dir () in
  let base = Filename.concat dir "other" in
  let other = { flaky_every = Some 5 } in
  let r = Farm.Coordinator.run (farm_cfg ~base quiet 2) ~n:n_points in
  check_payloads_complete "first run" n_points r;
  let bytes = read_file base in
  expect_parse_naming "base journal" base (fun () ->
      Farm.Coordinator.run (farm_cfg ~resume:true ~base other 2) ~n:n_points);
  check_true "refused journal unchanged" (read_file base = bytes);
  (* a shard journal of another workload left by a killed run *)
  let shard = Farm.Coordinator.shard_path base 1 in
  let j = Runner.Journal.create shard ~key:(Digest.string (blob_of other)) in
  Runner.Journal.append j ~index:0 (encode_value 0);
  Runner.Journal.close j;
  expect_parse_naming "shard journal" shard (fun () ->
      Farm.Coordinator.run (farm_cfg ~resume:true ~base quiet 2) ~n:n_points)

(* a base journal from before the identity record: no record, points in
   completion order — it resumes, and the merge gives it the record *)
let test_pre_identity_journal_resumes () =
  let dir = scratch_dir () in
  let canon = read_file (canonical_journal dir n_points) in
  let base =
    mk_journal dir "old"
      (List.init (n_points / 2) (fun k ->
           let i = n_points - 1 - (2 * k) in
           (i, encode_value i)))
  in
  check_true "no record" (Runner.Journal.key base = None);
  let r =
    Farm.Coordinator.run (farm_cfg ~resume:true ~base quiet 2) ~n:n_points
  in
  check_payloads_complete "resumed" n_points r;
  check_int "resumed counts points only" (n_points / 2)
    r.Farm.Coordinator.resumed;
  check_true "merged journal byte-identical" (read_file base = canon)

let test_record_survives_compact () =
  let dir = scratch_dir () in
  let path = Filename.concat dir "keyed" in
  let j = Runner.Journal.create path ~key:"k1" in
  List.iter
    (fun (i, p) -> Runner.Journal.append j ~index:i p)
    [ (1, "a"); (0, "b"); (1, "c") ];
  Runner.Journal.close j;
  check_true "key" (Runner.Journal.key path = Some "k1");
  check_true "replay leaves the record out"
    (Runner.Journal.replay path = [ (1, "a"); (0, "b"); (1, "c") ]);
  check_int "inspect leaves the record out" 3
    (Runner.Journal.inspect path).Runner.Journal.frames;
  ignore (Runner.Journal.compact path);
  check_true "compact keeps the record" (Runner.Journal.key path = Some "k1");
  Runner.Journal.check_key path ~key:"k1";
  expect_parse_naming "check_key" path (fun () ->
      Runner.Journal.check_key path ~key:"k2")

let suite =
  [
    case "journal merge dedups and sorts" (clean test_merge_dedup_sort);
    case "journal inspect counts frames and torn bytes" (clean test_inspect);
    case "journal compact drops duplicates" (clean test_compact);
    case "frame codec round-trips over a pipe" (clean test_frame_roundtrip);
    case "frame codec: torn is EOF, corrupt is Parse"
      (clean test_frame_torn_and_corrupt);
    case "protocol: undecodable payload is a typed Parse error"
      (clean test_protocol_undecodable_payload);
    slow_case "shard counts 1/2/4/7 bit-identical"
      (clean test_shard_counts_bit_identical);
    case "more shards than points" (clean test_more_shards_than_points);
    case "empty grid" (clean test_empty_grid);
    slow_case "worker stats absorbed by coordinator"
      (clean test_stats_absorbed);
    case "resume of a finished run spawns nothing"
      (clean test_resume_after_full_run_spawns_nothing);
    qcheck_kill_one_worker_steal;
    slow_case "kill without stealing fails typed, resume completes"
      (clean test_kill_no_steal_then_resume);
    case "stealing rebalances a dead shard" (clean test_steal_rebalances);
    case "resume refuses a base or shard journal of another workload"
      (clean test_resume_refuses_other_workload);
    case "journal from before the identity record resumes"
      (clean test_pre_identity_journal_resumes);
    case "identity record: replay omits it, compact and check_key keep it"
      (clean test_record_survives_compact);
  ]
