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
   self-delimiting and written end to end; [replay] accepts every
   complete, checksummed frame up to the first torn or corrupt one and
   ignores the rest. That makes the journal crash-tolerant by
   construction: a process killed mid-write leaves a torn tail that
   replay treats exactly as if the write never happened.

   Every reader — [replay], [snapshot], [inspect], [compact], [merge],
   [open_append], [key] — checks frames through one scanner that walks
   offsets in the raw bytes and checksums each frame's index bytes and
   payload in place; a payload is copied only for a caller that keeps
   it. A [snapshot] is one file's bytes and checked frame table; [merge]
   takes a caller's snapshot of a source instead of reading it again.
   [merge] and [compact] decode nothing: they order the checked frames
   by (index, source, offset) in int arrays and copy their bytes, which
   are the bytes a re-encoding would give, a frame being a function of
   its index and payload.

   A journal may open with an identity record: a frame at the reserved
   index [record_index] holding the key of the workload that wrote it
   (a digest of the workload's bytes). [check_key] compares it with the
   caller's key before any point frame is decoded; [replay] never
   returns it, and [merge] and [compact] carry it over. A journal
   written before the record existed has none and is trusted as is.

   [open_append] re-scans an existing journal, truncates the torn tail
   (so the next write starts on a clean frame boundary) and positions
   at the end. One write path serves [append] (one frame) and
   [append_range] (the frames of a range, in index order): under the
   journal's mutex, held once per call, it encodes the frames straight
   into the journal's one reusable buffer and hands that buffer to
   [write(2)] whenever the next frame would take it past [flush_at],
   and at the end. Every frame of a call has reached the OS when the
   call returns, so a crash loses at most the call in flight: its
   unwritten frames and a torn tail, never a frame of an earlier call.
   Appends from concurrent pool lanes are serialised by the mutex. *)

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

let get_u32 s pos =
  Char.code s.[pos]
  lor (Char.code s.[pos + 1] lsl 8)
  lor (Char.code s.[pos + 2] lsl 16)
  lor (Char.code s.[pos + 3] lsl 24)

let frame_crc index payload =
  Crc32.update (Crc32.update_u32 0 index) payload 0 (String.length payload)

(* The frame of [payload] at [index], encoded into [b] from byte [at];
   returns the offset past it. *)
let encode_into b at ~index payload =
  let len = String.length payload in
  Bytes.set_int32_le b at (Int32.of_int len);
  Bytes.set_int32_le b (at + 4) (Int32.of_int index);
  Bytes.set_int32_le b (at + 8) (Int32.of_int (frame_crc index payload));
  Bytes.blit_string payload 0 b (at + frame_header_len) len;
  at + frame_header_len + len

(* [prefix] and then one frame, built once in a fresh buffer that goes
   to [write(2)] as it is *)
let frame_bytes ?(prefix = "") ~index payload =
  let at = String.length prefix in
  let b = Bytes.create (at + frame_header_len + String.length payload) in
  Bytes.blit_string prefix 0 b 0 at;
  ignore (encode_into b at ~index payload);
  b

(* The one frame check every reader makes: the end offset of the frame
   starting at [pos] of [raw], or -1 when it is torn (its header or
   body runs past the end of [raw]) or corrupt (its CRC, over the index
   bytes and the payload in place, fails). *)
let frame_end raw pos =
  let n = String.length raw in
  if pos + frame_header_len > n then -1
  else
    let len = get_u32 raw pos in
    let body = pos + frame_header_len in
    if len > n - body then -1
    else if
      Crc32.update (Crc32.update 0 raw (pos + 4) 4) raw body len
      <> get_u32 raw (pos + 8)
    then -1
    else body + len

(* Walk raw journal bytes: [f index pos stop] on each complete,
   checksummed frame in file order, [raw.[pos .. stop-1]] being the
   whole frame, up to the first torn or corrupt one. Copies nothing;
   a caller that keeps a frame takes its bytes itself. Returns the byte
   length of the valid prefix (header + whole frames): anything past it
   is a torn tail. *)
let scan path raw f =
  let n = String.length raw in
  if n = 0 then 0
  else if not (String.starts_with ~prefix:magic raw) then bad_header path
  else
    let rec go pos =
      match frame_end raw pos with
      | -1 -> pos
      | stop ->
          f (get_u32 raw (pos + 4)) pos stop;
          go stop
    in
    go header_len

(* the identity record is the first frame, at the reserved index *)
let is_record index pos = index = record_index && pos = header_len

let payload raw pos stop =
  String.sub raw (pos + frame_header_len) (stop - pos - frame_header_len)

let frame_stop raw pos = pos + frame_header_len + get_u32 raw pos

let read_raw path =
  if Sys.file_exists path then
    Some (In_channel.with_open_bin path In_channel.input_all)
  else None

let replay path =
  match read_raw path with
  | None -> []
  | Some raw ->
      let frames = ref [] in
      ignore
        (scan path raw (fun index pos stop ->
             if not (is_record index pos) then
               frames := (index, payload raw pos stop) :: !frames));
      List.rev !frames

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
        else if not (String.starts_with ~prefix:magic head) then
          bad_header path
        else if
          n < header_len + frame_header_len
          || get_u32 head (header_len + 4) <> record_index
        then None
        else
          let len = get_u32 head header_len in
          if len > max_record_len then None
          else
            let raw = head ^ read_upto ic len in
            match frame_end raw header_len with
            | -1 -> None
            | stop -> Some (payload raw header_len stop))

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
  mutable buf : Bytes.t;  (* frames on their way to write(2) *)
  mutable closed : bool;
}

let handle fd path =
  { fd; path; m = Mutex.create (); buf = Bytes.empty; closed = false }

let write_bytes fd b len =
  let off = ref 0 in
  while !off < len do
    match Unix.write fd b !off (len - !off) with
    | k -> off := !off + k
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let write_all fd s = write_bytes fd (Bytes.unsafe_of_string s) (String.length s)

let create path ~key =
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let b = frame_bytes ~prefix:magic ~index:record_index key in
  write_bytes fd b (Bytes.length b);
  handle fd path

let open_append path =
  match read_raw path with
  | None ->
      let fd =
        Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
      in
      write_all fd magic;
      handle fd path
  | Some raw ->
      let valid_len = scan path raw (fun _ _ _ -> ()) in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      (* drop the torn tail so the next frame starts on a boundary *)
      if valid_len < String.length raw then Unix.ftruncate fd valid_len;
      if valid_len = 0 then write_all fd magic
      else ignore (Unix.lseek fd valid_len Unix.SEEK_SET);
      handle fd path

let check_open t fn =
  if t.closed then
    invalid_arg (fn ^ ": journal " ^ t.path ^ " is closed")

(* the buffer's fill at which the frames in it go to write(2) *)
let flush_at = 1 lsl 20

(* The first [fill] bytes of the buffer to the OS. Each write is an
   inject site: a crash mid-write leaves half its bytes on disk. *)
let flush t fill =
  if fill > 0 then begin
    if Robust.Inject.fire Robust.Inject.Journal_torn then begin
      write_bytes t.fd t.buf (fill / 2);
      raise Robust.Inject.Simulated_crash
    end;
    write_bytes t.fd t.buf fill
  end

(* Room for [need] more bytes after [fill]: the buffer goes to the OS
   first when the frame would take it past [flush_at], and grows
   (keeping its first [fill] bytes) when it is too small. Returns the
   new fill. *)
let reserve t fill need =
  let fill =
    if fill > 0 && fill + need > flush_at then begin
      flush t fill;
      0
    end
    else fill
  in
  let cap = Bytes.length t.buf in
  if fill + need > cap then begin
    let b = Bytes.create (max (fill + need) (min flush_at (max 4096 (2 * cap)))) in
    Bytes.blit t.buf 0 b 0 fill;
    t.buf <- b
  end;
  fill

let check_index fn index =
  if index < 0 || index >= record_index then
    invalid_arg (fn ^ ": index outside 0 .. 2^32 - 2")

let append_range t ~lo values =
  let n = Array.length values in
  if n > 0 then begin
    check_index "Journal.append_range" lo;
    check_index "Journal.append_range" (lo + n - 1)
  end;
  Mutex.lock t.m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.m)
    (fun () ->
      check_open t "Journal.append_range";
      let fill = ref 0 in
      for k = 0 to n - 1 do
        match values.(k) with
        | None -> ()
        | Some payload ->
            let at = reserve t !fill (frame_header_len + String.length payload) in
            fill := encode_into t.buf at ~index:(lo + k) payload
      done;
      flush t !fill)

let append t ~index payload =
  check_index "Journal.append" index;
  append_range t ~lo:index [| Some payload |]

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

(* The point frames of one or more sources as scanned, in source-list
   and then file order: frame [k] has index [index.(k)] and starts at
   byte [pos.(k)] of source [src.(k)]. The arrays are sized once, for
   every frame the table can receive. *)
type table = {
  mutable len : int;
  index : int array;
  src : int array;
  pos : int array;
}

let table cap =
  { len = 0; index = Array.make cap 0; src = Array.make cap 0; pos = Array.make cap 0 }

let push t index src pos =
  t.index.(t.len) <- index;
  t.src.(t.len) <- src;
  t.pos.(t.len) <- pos;
  t.len <- t.len + 1

(* How many frames the length fields of [raw] delimit before one runs
   past its end: at least as many as [scan] checks, so a table of that
   size holds them all. *)
let count_frames raw =
  let n = String.length raw in
  let rec go pos k =
    if pos + frame_header_len > n then k
    else
      let stop = pos + frame_header_len + get_u32 raw pos in
      if stop > n then k else go stop (k + 1)
  in
  if n < header_len then 0 else go header_len 0

(* One journal file as read and checked once: its bytes, its point
   frames (source 0 of [frames]), whether its first frame is a record,
   and its valid prefix length. *)
type snapshot = {
  path : string;
  raw : string;
  frames : table;
  record : bool;
  valid : int;
}

let snapshot path =
  let raw = Option.value (read_raw path) ~default:"" in
  let frames = table (count_frames raw) in
  let record = ref false in
  let valid =
    scan path raw (fun index pos _ ->
        if is_record index pos then record := true else push frames index 0 pos)
  in
  { path; raw; frames; record = !record; valid }

let iter_indices s f =
  for k = 0 to s.frames.len - 1 do
    f s.frames.index.(k)
  done

(* The frames of [snaps] in one table, snapshot [s] as source [s]. *)
let concat_frames snaps =
  if Array.length snaps = 1 then snaps.(0).frames
  else begin
    let t = table (Array.fold_left (fun a s -> a + s.frames.len) 0 snaps) in
    Array.iteri
      (fun src s ->
        let f = s.frames in
        Array.blit f.index 0 t.index t.len f.len;
        Array.blit f.pos 0 t.pos t.len f.len;
        Array.fill t.src t.len f.len src;
        t.len <- t.len + f.len)
      snaps;
    t
  end

(* The frames of [t] stably sorted by index — so each index's frames
   stay in source-list and file order — and deduplicated to the first
   of each: a least-significant-digit radix sort over the index bytes,
   skipping those above the largest index, and no sort at all when the
   frames already come in order. Returns the kept frames and how many. *)
let first_per_index t =
  let n = t.len and key = t.index in
  let top = ref 0 and sorted = ref true in
  for k = 0 to n - 1 do
    if key.(k) > !top then top := key.(k);
    if k > 0 && key.(k) < key.(k - 1) then sorted := false
  done;
  let order = ref (Array.init n Fun.id) in
  if not !sorted then begin
    let spare = ref (Array.make n 0) in
    let count = Array.make 257 0 in
    let shift = ref 0 in
    while !top lsr !shift > 0 do
      let from = !order and into = !spare and s = !shift in
      Array.fill count 0 257 0;
      for k = 0 to n - 1 do
        let d = (key.(from.(k)) lsr s) land 0xFF in
        count.(d + 1) <- count.(d + 1) + 1
      done;
      for d = 1 to 256 do
        count.(d) <- count.(d) + count.(d - 1)
      done;
      for k = 0 to n - 1 do
        let f = from.(k) in
        let d = (key.(f) lsr s) land 0xFF in
        into.(count.(d)) <- f;
        count.(d) <- count.(d) + 1
      done;
      order := into;
      spare := from;
      shift := !shift + 8
    done
  end;
  let order = !order in
  let kept = ref 0 in
  for k = 0 to n - 1 do
    let f = order.(k) in
    if !kept = 0 || key.(f) <> key.(order.(!kept - 1)) then begin
      order.(!kept) <- f;
      incr kept
    end
  done;
  (order, !kept)

(* Write the journal of [raws]' record (the first frame of source
   [record], if >= 0) and frames [ks.(0 .. nk-1)] of [t] to [path]
   atomically, copying each frame's bytes from its source. A frame is a
   pure function of its index and payload, so the copy is the frame an
   encoder would build; frames that lie end to end in one source go out
   in one write. *)
let write_copies path raws record t ks nk =
  Atomic_file.write path (fun oc ->
      output_string oc magic;
      if record >= 0 then
        output_substring oc raws.(record) header_len
          (frame_stop raws.(record) header_len - header_len);
      let run_src = ref (-1) and run_pos = ref 0 and run_stop = ref 0 in
      let flush () =
        if !run_src >= 0 then
          output_substring oc raws.(!run_src) !run_pos (!run_stop - !run_pos)
      in
      for j = 0 to nk - 1 do
        let k = ks.(j) in
        let s = t.src.(k) and pos = t.pos.(k) in
        let stop = frame_stop raws.(s) pos in
        if s = !run_src && pos = !run_stop then run_stop := stop
        else begin
          flush ();
          run_src := s;
          run_pos := pos;
          run_stop := stop
        end
      done;
      flush ())

type info = {
  frames : int;
  distinct : int;
  duplicates : int;
  bytes : int;
  valid_bytes : int;
  torn_bytes : int;
  max_index : int option;
}

let inspect path =
  let { raw; frames = t; valid; _ } = snapshot path in
  let order, distinct = first_per_index t in
  {
    frames = t.len;
    distinct;
    duplicates = t.len - distinct;
    bytes = String.length raw;
    valid_bytes = valid;
    torn_bytes = String.length raw - valid;
    max_index =
      (if distinct = 0 then None else Some t.index.(order.(distinct - 1)));
  }

(* Keep the first frame of each index — exactly the one a resumed
   [Run.grid] would use — in file order, drop later duplicates and any
   torn tail, and rewrite the journal atomically. *)
let compact path =
  let { raw; frames = t; record; _ } = snapshot path in
  let order, kept = first_per_index t in
  let first = Bytes.make t.len '\000' in
  for j = 0 to kept - 1 do
    Bytes.set first order.(j) '\001'
  done;
  let ks = Array.make kept 0 in
  let j = ref 0 in
  for k = 0 to t.len - 1 do
    if Bytes.get first k = '\001' then begin
      ks.(!j) <- k;
      incr j
    end
  done;
  write_copies path [| raw |] (if record then 0 else -1) t ks kept;
  (kept, t.len - kept)

let merge ?frame ?(scanned = []) ~into sources =
  (* Scan every source once (a missing file is an empty journal; a
     source with a snapshot in [scanned] is not read again), keep the
     first frame seen for each index in source-list order, then copy
     the kept frames sorted by index: the merged journal depends only on
     the decoded content of the sources, never on interleaving or append
     order, which is what makes sharded-and-merged runs canonical. The
     first identity record among the sources heads the result. Every
     source is read before [into] is replaced. *)
  let snaps =
    Array.of_list
      (List.map
         (fun p ->
           match List.find_opt (fun s -> String.equal s.path p) scanned with
           | Some s -> s
           | None -> snapshot p)
         sources)
  in
  let raws = Array.map (fun s -> s.raw) snaps in
  let t = concat_frames snaps in
  let record = ref (-1) and complete = ref true in
  Array.iteri
    (fun i s ->
      if s.record && !record < 0 then record := i;
      if s.valid = 0 || s.valid < String.length s.raw then complete := false)
    snaps;
  let ks, kept = first_per_index t in
  (* a lone target with its record first, its indices strictly
     ascending and no torn tail is already its own merge *)
  let canonical =
    !complete
    && (match sources with [ p ] -> String.equal p into | _ -> false)
    &&
    let ascending = ref true in
    for k = 1 to t.len - 1 do
      if t.index.(k) <= t.index.(k - 1) then ascending := false
    done;
    !ascending
  in
  if not canonical then write_copies into raws !record t ks kept;
  Option.iter
    (fun f ->
      for j = 0 to kept - 1 do
        let k = ks.(j) in
        let raw = raws.(t.src.(k)) and pos = t.pos.(k) in
        f t.index.(k) (payload raw pos (frame_stop raw pos))
      done)
    frame;
  kept

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

  let tagged ~tag payload =
    if tag < 0 then invalid_arg "Journal.Frame.encode: negative tag";
    frame_bytes ~index:tag payload

  let encode ~tag payload = Bytes.unsafe_to_string (tagged ~tag payload)
  let write_all = write_all

  let write_result ?timeout fd ~tag payload =
    let b = tagged ~tag payload in
    let n = Bytes.length b in
    match timeout with
    | None ->
        write_bytes fd b n;
        Ok ()
    | Some seconds ->
        (* A blocking write(2) larger than the kernel buffer can stall
           past any select verdict, so toggle O_NONBLOCK for the loop:
           select bounds the wait, the nonblocking write never sticks. *)
        let until = now () +. seconds in
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
        let header = Bytes.unsafe_to_string header in
        let len = get_u32 header 0 in
        let tag = get_u32 header 4 in
        let crc = get_u32 header 8 in
        if len < 0 || len > 1 lsl 30 then
          Error (parse_error "Journal.Frame: implausible frame length")
        else
          let body = Bytes.create len in
          match fill body len with
          | `Timeout -> timed_out ()
          | `Eof -> Ok None
          | `Ok ->
              let payload = Bytes.unsafe_to_string body in
              if frame_crc tag payload <> crc then
                Error
                  (parse_error
                     "Journal.Frame: CRC mismatch on pipe frame")
              else Ok (Some (tag, payload)))
end
