(* Append-only checkpoint journal for sweep runs.

   File layout:

     +--------------------+
     | magic "PLLSCJ1\n"  |  8 bytes
     +--------------------+
     | frame 0            |
     | frame 1            |
     | ...                |
     +--------------------+

   each frame being

     [4B LE payload_len] [4B LE point index] [4B LE crc32] [payload]

   where the CRC covers the 4 index bytes followed by the payload, so
   a frame whose length field survived but whose body was torn — or
   whose index was bit-flipped — fails the check. Frames are
   self-delimiting and appended with a single [write]; [replay] accepts
   every complete, checksummed frame up to the first torn or corrupt
   one and ignores the rest. That makes the journal crash-tolerant by
   construction: a process killed mid-append leaves a torn tail that
   replay treats exactly as if the append never happened.

   A journal may open with an identity record: a frame at the reserved
   index [record_index] holding the key of the workload that wrote it
   (a digest of the workload's bytes). [check_key] compares it with the
   caller's key before any point frame is decoded; [replay] never
   returns it, and [merge] and [compact] carry it over. A journal
   written before the record existed has none and is trusted as is.

   [open_append] re-scans an existing journal, truncates the torn tail
   (so the next append starts on a clean frame boundary) and positions
   at the end. Appends from concurrent pool lanes are serialised by a
   per-journal mutex; each append is flushed to the OS immediately so
   only the process's own buffered data — never a previously appended
   frame — can be lost to a crash. *)

let magic = "PLLSCJ1\n"
let header_len = String.length magic
let frame_header_len = 12

(* the largest index a 4-byte field holds, kept for the record *)
let record_index = 0xFFFF_FFFF

let parse_failure path msg =
  Robust.Pllscope_error.raise_
    (Robust.Pllscope_error.Parse { file = path; line = 0; col = 0; msg })

let bad_header path =
  parse_failure path "not a pllscope checkpoint journal (bad magic)"

let put_u32 b v =
  Buffer.add_char b (Char.chr (v land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xff))

let get_u32 s pos =
  Char.code s.[pos]
  lor (Char.code s.[pos + 1] lsl 8)
  lor (Char.code s.[pos + 2] lsl 16)
  lor (Char.code s.[pos + 3] lsl 24)

let frame_crc index payload =
  let b = Buffer.create 4 in
  put_u32 b index;
  let crc = Crc32.string (Buffer.contents b) in
  Crc32.update crc payload 0 (String.length payload)

let add_frame b ~index payload =
  put_u32 b (String.length payload);
  put_u32 b index;
  put_u32 b (Int32.to_int (frame_crc index payload) land 0xffffffff);
  Buffer.add_string b payload

let encode_frame ~index payload =
  let b = Buffer.create (frame_header_len + String.length payload) in
  add_frame b ~index payload;
  Buffer.contents b

(* Scan raw journal bytes; return the complete frames and the byte
   length of the valid prefix (header + whole frames). Anything past
   [valid_len] is a torn tail. *)
let scan path raw =
  let n = String.length raw in
  if n < header_len || String.sub raw 0 header_len <> magic then
    if n = 0 then ([], 0) else bad_header path
  else begin
    let frames = ref [] in
    let pos = ref header_len in
    let stop = ref false in
    while not !stop do
      if !pos + frame_header_len > n then stop := true
      else begin
        let len = get_u32 raw !pos in
        let index = get_u32 raw (!pos + 4) in
        let crc = Int32.of_int (get_u32 raw (!pos + 8)) in
        let body = !pos + frame_header_len in
        if len < 0 || body + len > n then stop := true
        else begin
          let payload = String.sub raw body len in
          if frame_crc index payload <> crc then stop := true
          else begin
            frames := (index, payload) :: !frames;
            pos := body + len
          end
        end
      end
    done;
    (List.rev !frames, !pos)
  end

let read_raw path =
  if Sys.file_exists path then
    Some (In_channel.with_open_bin path In_channel.input_all)
  else None

(* the identity record, when the first frame is one, and the point
   frames *)
let split_record = function
  | (i, key) :: frames when i = record_index -> (Some key, frames)
  | frames -> (None, frames)

let read path =
  match read_raw path with
  | None -> (None, [])
  | Some raw -> split_record (fst (scan path raw))

let replay path = snd (read path)

(* Up to [k] bytes of [ic]: fewer only at end of file. Reads, never
   seeks, so it works on a FIFO. *)
let read_upto ic k =
  let b = Bytes.create k in
  let rec go off =
    if off = k then off
    else
      match In_channel.input ic b off (k - off) with
      | 0 -> off
      | r -> go (off + r)
  in
  Bytes.sub_string b 0 (go 0)

(* a record is a digest; anything longer is a corrupt length field *)
let max_record_len = 4096

(* The record alone: the header and the first frame, not the whole
   journal. *)
let key path =
  if not (Sys.file_exists path) then None
  else
    In_channel.with_open_bin path (fun ic ->
        let head = read_upto ic (header_len + frame_header_len) in
        let n = String.length head in
        if n = 0 then None
        else if n < header_len || String.sub head 0 header_len <> magic then
          bad_header path
        else if
          n < header_len + frame_header_len
          || get_u32 head (header_len + 4) <> record_index
        then None
        else
          let len = get_u32 head header_len in
          let crc = Int32.of_int (get_u32 head (header_len + 8)) in
          if len > max_record_len then None
          else
            let payload = read_upto ic len in
            if
              String.length payload = len
              && frame_crc record_index payload = crc
            then Some payload
            else None)

let check_key path ~key:expected =
  match key path with
  | Some k when not (String.equal k expected) ->
      parse_failure path
        "checkpoint journal was written by another workload (identity \
         record mismatch)"
  | Some _ | None -> ()

type t = {
  fd : Unix.file_descr;
  path : string;
  m : Mutex.t;
  mutable closed : bool;
}

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    match Unix.write fd b !off (n - !off) with
    | k -> off := !off + k
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let create path ~key =
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  write_all fd (magic ^ encode_frame ~index:record_index key);
  { fd; path; m = Mutex.create (); closed = false }

let open_append path =
  match read_raw path with
  | None ->
      let fd =
        Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
      in
      write_all fd magic;
      { fd; path; m = Mutex.create (); closed = false }
  | Some raw ->
      let _, valid_len = scan path raw in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      (* drop the torn tail so the next frame starts on a boundary *)
      if valid_len < String.length raw then Unix.ftruncate fd valid_len;
      if valid_len = 0 then write_all fd magic
      else ignore (Unix.lseek fd valid_len Unix.SEEK_SET);
      { fd; path; m = Mutex.create (); closed = false }

let check_open t fn =
  if t.closed then
    invalid_arg (fn ^ ": journal " ^ t.path ^ " is closed")

let append t ~index payload =
  if index < 0 || index >= record_index then
    invalid_arg "Journal.append: index outside 0 .. 2^32 - 2";
  let frame = encode_frame ~index payload in
  Mutex.lock t.m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.m)
    (fun () ->
      check_open t "Journal.append";
      if Robust.Inject.fire Robust.Inject.Journal_torn then begin
        (* model a crash mid-append: half a frame reaches the disk,
           then the process "dies" *)
        let torn = String.length frame / 2 in
        write_all t.fd (String.sub frame 0 torn);
        raise Robust.Inject.Simulated_crash
      end;
      write_all t.fd frame)

let sync t =
  Mutex.lock t.m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.m)
    (fun () ->
      check_open t "Journal.sync";
      Unix.fsync t.fd)

let close t =
  Mutex.lock t.m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.m)
    (fun () ->
      if not t.closed then begin
        t.closed <- true;
        (try Unix.fsync t.fd with Unix.Unix_error _ -> ());
        Unix.close t.fd
      end)

(* ------------------------------------------------------------------ *)
(* inspection, compaction and merge                                    *)

type info = {
  frames : int;
  distinct : int;
  duplicates : int;
  bytes : int;
  valid_bytes : int;
  torn_bytes : int;
  max_index : int option;
}

let distinct_count frames =
  let seen = Hashtbl.create 256 in
  List.iter
    (fun (i, _) -> if not (Hashtbl.mem seen i) then Hashtbl.add seen i ())
    frames;
  Hashtbl.length seen

let inspect path =
  match read_raw path with
  | None ->
      {
        frames = 0;
        distinct = 0;
        duplicates = 0;
        bytes = 0;
        valid_bytes = 0;
        torn_bytes = 0;
        max_index = None;
      }
  | Some raw ->
      let frames, valid_len = scan path raw in
      let frames = snd (split_record frames) in
      let n_frames = List.length frames in
      let distinct = distinct_count frames in
      {
        frames = n_frames;
        distinct;
        duplicates = n_frames - distinct;
        bytes = String.length raw;
        valid_bytes = valid_len;
        torn_bytes = String.length raw - valid_len;
        max_index =
          List.fold_left
            (fun acc (i, _) ->
              match acc with Some m when m >= i -> acc | _ -> Some i)
            None frames;
      }

(* Keep the first frame of each index — exactly the one a resumed
   [Run.grid] would use — drop later duplicates and any torn tail, and
   rewrite the journal atomically. *)
let dedup_first frames =
  let seen = Hashtbl.create 256 in
  List.filter
    (fun (i, _) ->
      if Hashtbl.mem seen i then false
      else begin
        Hashtbl.add seen i ();
        true
      end)
    frames

let write_frames path (record, frames) =
  Atomic_file.write path (fun oc ->
      output_string oc magic;
      Option.iter
        (fun key -> output_string oc (encode_frame ~index:record_index key))
        record;
      let b = Buffer.create 4096 in
      List.iter
        (fun (index, payload) ->
          Buffer.clear b;
          add_frame b ~index payload;
          Buffer.output_buffer oc b)
        frames)

let compact path =
  let record, frames = read path in
  let kept = dedup_first frames in
  write_frames path (record, kept);
  (List.length kept, List.length frames - List.length kept)

let merge ~into sources =
  (* Replay every source (missing files are empty journals), keep the
     first frame seen for each index in source-list order, then write
     the frames sorted by index: the merged journal depends only on the
     decoded content of the sources, never on interleaving or append
     order, which is what makes sharded-and-merged runs canonical. The
     first identity record among the sources heads the result. *)
  let parts = List.map read sources in
  let kept = dedup_first (List.concat_map snd parts) in
  let sorted =
    List.sort (fun (a, _) (b, _) -> Stdlib.compare (a : int) b) kept
  in
  write_frames into (List.find_map fst parts, sorted);
  List.length sorted

(* ------------------------------------------------------------------ *)
(* pipe framing                                                        *)

module Frame = struct
  (* The journal's frame layout reused as a message codec over
     pipes/sockets: [tag] rides in the index field, the CRC covers tag
     and payload. A torn frame (peer died mid-write) reads as a clean
     EOF; a CRC mismatch on a complete frame is real corruption, a
     typed [Parse] error. *)

  let rec retry_read fd buf off len =
    match Unix.read fd buf off len with
    | n -> n
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        retry_read fd buf off len

  (* false iff EOF struck before [len] bytes arrived *)
  let read_exact fd buf off len =
    let off = ref off and left = ref len in
    let eof = ref false in
    while !left > 0 && not !eof do
      let n = retry_read fd buf !off !left in
      if n = 0 then eof := true
      else begin
        off := !off + n;
        left := !left - n
      end
    done;
    not !eof

  let now () = (Unix.gettimeofday () [@lint.allow "nondeterminism"])

  (* Deadline waits: select with the remaining budget, retrying EINTR
     and spurious early wakeups. false iff the deadline passed first. *)
  let rec wait_io fd ~until ~dir =
    let remaining = until -. now () in
    if remaining <= 0. then false
    else
      let rs, ws = match dir with `R -> ([ fd ], []) | `W -> ([], [ fd ]) in
      match Unix.select rs ws [] remaining with
      | [], [], _ -> wait_io fd ~until ~dir
      | _ -> true
      | exception Unix.Unix_error (Unix.EINTR, _, _) ->
          wait_io fd ~until ~dir

  (* Fill [len] bytes by the absolute deadline [until]. The select-first
     loop also tolerates EAGAIN so it works on nonblocking descriptors. *)
  let read_exact_deadline fd buf off len ~until =
    let off = ref off and left = ref len in
    let verdict = ref `Ok in
    while !left > 0 && !verdict = `Ok do
      if not (wait_io fd ~until ~dir:`R) then verdict := `Timeout
      else
        match retry_read fd buf !off !left with
        | 0 -> verdict := `Eof
        | n ->
            off := !off + n;
            left := !left - n
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            ()
    done;
    !verdict

  let parse_error msg =
    Robust.Pllscope_error.Parse { file = "<pipe>"; line = 0; col = 0; msg }

  let encode ~tag payload =
    if tag < 0 then invalid_arg "Journal.Frame.encode: negative tag";
    encode_frame ~index:tag payload

  let write_all = write_all

  let write_result ?timeout fd ~tag payload =
    let frame = encode ~tag payload in
    match timeout with
    | None ->
        write_all fd frame;
        Ok ()
    | Some seconds ->
        (* A blocking write(2) larger than the kernel buffer can stall
           past any select verdict, so toggle O_NONBLOCK for the loop:
           select bounds the wait, the nonblocking write never sticks. *)
        let until = now () +. seconds in
        let b = Bytes.of_string frame in
        let n = Bytes.length b in
        Unix.set_nonblock fd;
        Fun.protect
          ~finally:(fun () -> Unix.clear_nonblock fd)
          (fun () ->
            let off = ref 0 in
            let timed_out = ref false in
            while !off < n && not !timed_out do
              if not (wait_io fd ~until ~dir:`W) then timed_out := true
              else
                match Unix.write fd b !off (n - !off) with
                | k -> off := !off + k
                | exception
                    Unix.Unix_error
                      ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
                  ->
                    ()
            done;
            if !timed_out then
              Error
                (Robust.Pllscope_error.Io_timeout
                   { seconds; what = "frame write" })
            else Ok ())

  let read_result ?timeout fd =
    let fill =
      match timeout with
      | None ->
          fun buf len -> if read_exact fd buf 0 len then `Ok else `Eof
      | Some seconds ->
          let until = now () +. seconds in
          fun buf len -> read_exact_deadline fd buf 0 len ~until
    in
    let timed_out () =
      let seconds = Option.value timeout ~default:0. in
      Error
        (Robust.Pllscope_error.Io_timeout { seconds; what = "frame read" })
    in
    let header = Bytes.create frame_header_len in
    match fill header frame_header_len with
    | `Timeout -> timed_out ()
    | `Eof -> Ok None
    | `Ok -> (
        let header = Bytes.to_string header in
        let len = get_u32 header 0 in
        let tag = get_u32 header 4 in
        let crc = Int32.of_int (get_u32 header 8) in
        if len < 0 || len > 1 lsl 30 then
          Error (parse_error "Journal.Frame: implausible frame length")
        else
          let body = Bytes.create len in
          match fill body len with
          | `Timeout -> timed_out ()
          | `Eof -> Ok None
          | `Ok ->
              let payload = Bytes.to_string body in
              if frame_crc tag payload <> crc then
                Error
                  (parse_error
                     "Journal.Frame: CRC mismatch on pipe frame")
              else Ok (Some (tag, payload)))
end
