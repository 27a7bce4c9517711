(* Sharded sweep farm end to end:

   - Journal.merge is first-wins, sorted, and canonical; inspect and
     compact report and repair duplicate/torn journals; merge and
     compact are byte-equal to the decode/dedup/sort/re-encode oracle
     over random sources (duplicates, disorder, sparse indices, records,
     missing and empty files, torn tails, flipped bytes), and a lone
     canonical source is left untouched;
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
   - Journal.append_range writes the bytes of one append per Some, in
     index order, across the 1 MiB flush; a worker killed mid-range
     leaves its acknowledged ranges and no byte of the range it died
     in; each worker runs its share of PLLSCOPE_DOMAINS;
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
  lanes : bool;  (* every payload is the worker's default pool size *)
}

let quiet = { flaky_every = None; lanes = false }
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
        if wl.lanes then Marshal.to_string (Parallel.Pool.default_domains ()) []
        else encode_value i)
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
(* merge and compact against the oracle                                *)

(* Merge and compaction as first written, kept as the oracle: decode
   every frame up to the first torn or corrupt one, keep the first
   frame per index, stable-sort by index (merge only), re-encode. Its
   CRC is the bitwise definition, so it shares no code with the
   journal's reader or writer. *)
module Oracle = struct
  let magic = "PLLSCJ1\n"
  let record_index = 0xFFFF_FFFF

  let crc c s = crc32_bitwise c s 0 (String.length s)
  let u32 v = String.init 4 (fun k -> Char.chr ((v lsr (8 * k)) land 0xFF))

  let get_u32 s pos =
    let b k = Char.code s.[pos + k] lsl (8 * k) in
    b 0 lor b 1 lor b 2 lor b 3

  let frame index payload =
    let i = u32 index in
    u32 (String.length payload) ^ i ^ u32 (crc (crc 0 i) payload) ^ payload

  (* the record, the point frames and the valid prefix length of a
     journal's bytes ("" is an empty journal) *)
  let read raw =
    let n = String.length raw in
    let rec go pos acc =
      let stop () = (List.rev acc, pos) in
      if pos + 12 > n then stop ()
      else
        let len = get_u32 raw pos and index = get_u32 raw (pos + 4) in
        if pos + 12 + len > n then stop ()
        else
          let payload = String.sub raw (pos + 12) len in
          if crc (crc 0 (u32 index)) payload <> get_u32 raw (pos + 8) then
            stop ()
          else go (pos + 12 + len) ((index, payload) :: acc)
    in
    if n = 0 then (None, [], 0)
    else
      match go 8 [] with
      | (i, key) :: frames, valid when i = record_index -> (Some key, frames, valid)
      | frames, valid -> (None, frames, valid)

  let dedup_first frames =
    let seen = Hashtbl.create 16 in
    List.filter
      (fun (i, _) ->
        (not (Hashtbl.mem seen i))
        && begin
             Hashtbl.add seen i ();
             true
           end)
      frames

  let encode record frames =
    String.concat ""
      ((magic :: Option.to_list (Option.map (frame record_index) record))
      @ List.map (fun (i, p) -> frame i p) frames)

  (* the merged bytes and the kept frames *)
  let merge raws =
    let parts = List.map read raws in
    let kept =
      List.stable_sort
        (fun (a, _) (b, _) -> Int.compare a b)
        (dedup_first (List.concat_map (fun (_, f, _) -> f) parts))
    in
    (encode (List.find_map (fun (r, _, _) -> r) parts) kept, kept)

  let compact raw =
    let record, frames, _ = read raw in
    encode record (dedup_first frames)
end

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* A source: missing, an empty file, or a journal — an optional record,
   frames with duplicates, disorder and sparse indices up to 2^32 - 2,
   then perhaps a torn tail and perhaps one flipped byte past the magic. *)
let gen_source s =
  QCheck2.Gen.(
    let index =
      frequency
        [ (6, int_range 0 12); (2, int_range 0 (0xFFFF_FFFF - 1)); (1, return (0xFFFF_FFFF - 1)) ]
    in
    let journal =
      bool >>= fun has_record ->
      list_size (int_range 0 25) (pair index (string_size (int_range 0 12)))
      >>= fun frames ->
      int_range 0 30 >>= fun torn ->
      pair (int_range 0 3) (pair nat (int_range 1 255)) >>= fun (flip, (at, mask)) ->
      let body =
        Oracle.magic
        ^ (if has_record then Oracle.frame Oracle.record_index (Printf.sprintf "key-%d" s)
           else "")
        ^ String.concat "" (List.map (fun (i, p) -> Oracle.frame i p) frames)
        ^ if torn < 20 then String.sub (Oracle.frame 3 "torn tail") 0 (1 + torn) else ""
      in
      let n = String.length body in
      return
        (if flip > 0 || n = 8 then body
         else
           String.mapi
             (fun k c -> if k = 8 + (at mod (n - 8)) then Char.chr (Char.code c lxor mask) else c)
             body)
    in
    frequency [ (1, return None); (1, return (Some "")); (8, map Option.some journal) ])

let qcheck_merge_oracle =
  qcheck ~count:300 "journal merge and compact are byte-equal to the oracle"
    QCheck2.Gen.(
      int_range 1 4 >>= fun k ->
      flatten_l (List.init k gen_source) >>= fun sources ->
      bool >>= fun into_first -> return (sources, into_first))
    (fun (sources, into_first) ->
      let dir = scratch_dir () in
      let paths =
        List.mapi
          (fun s src ->
            let p = Filename.concat dir (Printf.sprintf "src%d" s) in
            Option.iter (write_file p) src;
            p)
          sources
      in
      let raws = List.map (Option.value ~default:"") sources in
      let into = if into_first then List.hd paths else Filename.concat dir "merged" in
      let want, kept = Oracle.merge raws in
      let got = ref [] in
      let n =
        Runner.Journal.merge ~frame:(fun i p -> got := (i, p) :: !got) ~into paths
      in
      if read_file into <> want then Alcotest.fail "merged bytes differ from the oracle";
      check_int "merge count" (List.length kept) n;
      check_true "frames handed over" (List.rev !got = kept);
      (* compaction and inspection of each journal on its own *)
      List.iter
        (fun raw ->
          let p = Filename.concat dir "single" in
          write_file p raw;
          let _, frames, valid = Oracle.read raw in
          let distinct = List.length (Oracle.dedup_first frames) in
          let i = Runner.Journal.inspect p in
          check_int "inspect frames" (List.length frames) i.Runner.Journal.frames;
          check_int "inspect distinct" distinct i.Runner.Journal.distinct;
          check_int "inspect valid bytes" valid i.Runner.Journal.valid_bytes;
          check_true "inspect max index"
            (i.Runner.Journal.max_index
            = List.fold_left (fun m (i, _) -> Some (max i (Option.value m ~default:i))) None frames);
          let kept, dropped = Runner.Journal.compact p in
          check_int "compact kept" distinct kept;
          check_int "compact dropped" (List.length frames - distinct) dropped;
          if read_file p <> Oracle.compact raw then
            Alcotest.fail "compacted bytes differ from the oracle")
        (List.filter_map Fun.id sources);
      true)

let test_merge_lone_source () =
  let dir = scratch_dir () in
  (* canonical: the record first, indices strictly ascending, no torn
     tail — the merge is the file itself and leaves it alone *)
  let path = Filename.concat dir "canonical" in
  let j = Runner.Journal.create path ~key:"k" in
  List.iter (fun i -> Runner.Journal.append j ~index:i (string_of_int i)) [ 0; 1; 5; 9 ];
  Runner.Journal.close j;
  Unix.utimes path 1e9 1e9;
  let before = Unix.stat path and bytes = read_file path in
  let got = ref [] in
  check_int "kept" 4
    (Runner.Journal.merge ~frame:(fun i p -> got := (i, p) :: !got) ~into:path [ path ]);
  let after = Unix.stat path in
  check_int "same inode" before.Unix.st_ino after.Unix.st_ino;
  check_true "same mtime" (Float.equal before.Unix.st_mtime after.Unix.st_mtime);
  check_true "same bytes" (read_file path = bytes);
  check_true "frames handed over"
    (List.rev !got = [ (0, "0"); (1, "1"); (5, "5"); (9, "9") ]);
  (* not canonical: a duplicate, an index out of order, a torn tail —
     each is rewritten to the oracle's bytes *)
  List.iter
    (fun (name, frames, tail) ->
      let p = mk_journal dir name frames in
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 p in
      output_string oc tail;
      close_out oc;
      let want, _ = Oracle.merge [ read_file p ] in
      let ino = (Unix.stat p).Unix.st_ino in
      ignore (Runner.Journal.merge ~into:p [ p ]);
      check_true (name ^ ": rewritten") ((Unix.stat p).Unix.st_ino <> ino);
      check_true (name ^ ": the oracle's bytes") (read_file p = want))
    [
      ("duplicate", [ (0, "a"); (1, "b"); (1, "c") ], "");
      ("out of order", [ (1, "b"); (0, "a") ], "");
      ("torn tail", [ (0, "a"); (1, "b") ], "torn");
    ]

(* [append_range] writes the bytes of one [append] per [Some], in index
   order: over random Some/None batches, a third of them of 100-400 kB
   payloads that take the batch past the 1 MiB flush, and batches
   following earlier frames *)
let gen_batch =
  QCheck2.Gen.(
    let small = map Option.some (string_size (int_range 0 40)) in
    let big = map2 (fun n c -> Some (String.make n c)) (int_range 100_000 400_000) printable in
    let batch payload =
      list_size (int_range 0 16) (frequency [ (1, return None); (2, payload) ])
    in
    pair (int_range 0 100_000) (frequency [ (2, batch small); (1, batch big) ]))

let qcheck_append_range =
  qcheck ~count:40 "journal append_range equals append per Some in index order"
    QCheck2.Gen.(list_size (int_range 1 3) gen_batch)
    (fun batches ->
      let dir = scratch_dir () in
      let write name f =
        let p = Filename.concat dir name in
        let j = Runner.Journal.create p ~key:"k" in
        List.iter (fun (lo, values) -> f j lo (Array.of_list values)) batches;
        Runner.Journal.close j;
        let bytes = read_file p in
        Sys.remove p;
        bytes
      in
      let ranged = write "ranged" (fun j lo values -> Runner.Journal.append_range j ~lo values) in
      let single =
        write "single" (fun j lo values ->
            Array.iteri
              (fun k v -> Option.iter (Runner.Journal.append j ~index:(lo + k)) v)
              values)
      in
      ranged = single)

let test_append_range_flush () =
  (* twelve 200 kB frames: the batch crosses the 1 MiB flush twice *)
  let dir = scratch_dir () in
  let values =
    Array.init 12 (fun k -> if k = 5 then None else Some (String.make 200_000 (Char.chr (65 + k))))
  in
  let p = Filename.concat dir "big" in
  let j = Runner.Journal.create p ~key:"k" in
  Runner.Journal.append_range j ~lo:7 values;
  Runner.Journal.close j;
  let want = List.filter_map (fun k -> Option.map (fun v -> (7 + k, v)) values.(k)) (List.init 12 Fun.id) in
  check_true "frames in index order" (Runner.Journal.replay p = want);
  check_int "no torn bytes" 0 (Runner.Journal.inspect p).Runner.Journal.torn_bytes;
  (* the whole range is checked before anything is written *)
  let j = Runner.Journal.open_append p in
  let size = String.length (read_file p) in
  (match Runner.Journal.append_range j ~lo:(0xFFFF_FFFF - 1) [| Some "a"; Some "b" |] with
  | () -> Alcotest.fail "range past 2^32 - 2 accepted"
  | exception Invalid_argument _ -> ());
  Runner.Journal.close j;
  check_int "nothing written" size (String.length (read_file p));
  Sys.remove p

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
      (farm_cfg ~base { quiet with flaky_every = Some 5 } 3)
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
  check_true "resumed payloads equal the fresh run's"
    (r2.Farm.Coordinator.payloads = r1.Farm.Coordinator.payloads);
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

(* The farm's lanes are the coordinator's domain budget: a worker runs
   [max 1 (budget / shards)] of them. *)
let test_lane_budget () =
  let dir = scratch_dir () in
  let var = "PLLSCOPE_DOMAINS" in
  let old = Sys.getenv_opt var in
  Unix.putenv var "4";
  Fun.protect
    ~finally:(fun () -> Unix.putenv var (Option.value old ~default:""))
    (fun () ->
      List.iter
        (fun (shards, want) ->
          let base = Filename.concat dir (Printf.sprintf "lanes%d" shards) in
          let r =
            Farm.Coordinator.run
              (farm_cfg ~base { quiet with lanes = true } shards)
              ~n:16
          in
          Array.iteri
            (fun i p ->
              match p with
              | None -> Alcotest.failf "%d shards: point %d missing" shards i
              | Some s ->
                  check_int
                    (Printf.sprintf "%d shards: lanes of point %d" shards i)
                    want (Marshal.from_string s 0))
            r.Farm.Coordinator.payloads)
        [ (2, 2); (8, 1) ])

(* A worker killed mid-range: its journal holds the acknowledged range
   and nothing of the one it died in — no torn tail, no frame — and a
   resume over it completes to the canonical bytes. The worker is
   driven by hand (the farm would merge and delete its journal): shard
   0 dies at its sixth point, so range [0, 3) is acknowledged and range
   [3, 6) dies after two computed points. *)
let test_kill_mid_range_journal () =
  let dir = scratch_dir () in
  let canon = read_file (canonical_journal dir n_points) in
  let base = Filename.concat dir "midrange" in
  let journal = Farm.Coordinator.shard_path base 0 in
  Runner.Journal.close
    (Runner.Journal.create journal ~key:(Digest.string (blob_of quiet)));
  let to_r, to_w = Unix.pipe ~cloexec:true () in
  let from_r, from_w = Unix.pipe ~cloexec:true () in
  let argv = [| Sys.executable_name; "farm-worker"; "0"; "5" |] in
  let pid = Unix.create_process argv.(0) argv to_r from_w Unix.stderr in
  Unix.close to_r;
  Unix.close from_w;
  let status =
    Fun.protect
      ~finally:(fun () ->
        Unix.close to_w;
        Unix.close from_r)
      (fun () ->
        Farm.Protocol.send to_w
          (Farm.Protocol.Hello
             {
               shard = 0;
               journal;
               blob = blob_of quiet;
               chunk = None;
               retries = None;
               task_timeout = None;
             });
        check_true "ready" (Farm.Protocol.recv from_r = Some Farm.Protocol.Ready);
        Farm.Protocol.send to_w (Farm.Protocol.Assign { lo = 0; hi = 3 });
        (match Farm.Protocol.recv from_r with
        | Some (Farm.Protocol.Done { d_lo = 0; d_hi = 3; failed = [] }) -> ()
        | _ -> Alcotest.fail "range [0, 3) not acknowledged");
        Farm.Protocol.send to_w (Farm.Protocol.Assign { lo = 3; hi = 6 });
        check_true "killed mid-range" (Farm.Protocol.recv from_r = None);
        snd (Unix.waitpid [] pid))
  in
  check_true "SIGKILL" (status = Unix.WSIGNALED Sys.sigkill);
  let info = Runner.Journal.inspect journal in
  check_int "no torn tail" 0 info.Runner.Journal.torn_bytes;
  check_true "the acknowledged range and nothing else"
    (Runner.Journal.replay journal = List.init 3 (fun i -> (i, encode_value i)));
  let r =
    Farm.Coordinator.run (farm_cfg ~resume:true ~base quiet 2) ~n:n_points
  in
  check_payloads_complete "resumed" n_points r;
  check_int "resumed the acknowledged range" 3 r.Farm.Coordinator.resumed;
  check_true "merged journal byte-identical" (read_file base = canon)

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
  let other = { quiet with flaky_every = Some 5 } in
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
    qcheck_merge_oracle;
    case "journal merge leaves a lone canonical source alone"
      (clean test_merge_lone_source);
    qcheck_append_range;
    case "journal append_range flushes at 1 MiB and checks its range first"
      (clean test_append_range_flush);
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
    case "worker lanes split the domain budget across shards"
      (clean test_lane_budget);
    case "worker killed mid-range leaves no frame of the range"
      (clean test_kill_mid_range_journal);
    case "resume refuses a base or shard journal of another workload"
      (clean test_resume_refuses_other_workload);
    case "journal from before the identity record resumes"
      (clean test_pre_identity_journal_resumes);
    case "identity record: replay omits it, compact and check_key keep it"
      (clean test_record_survives_compact);
  ]
