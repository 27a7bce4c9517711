(** Append-only, checksummed checkpoint journal for sweep runs.

    An 8-byte magic header followed by self-delimiting frames

    {v [4B LE payload_len][4B LE point index][4B LE crc32][payload] v}

    where the CRC-32 covers the index bytes and the payload. Each
    {!append} writes its frame with a single [write(2)] flushed straight
    to the OS, so a crash (or [kill -9]) can only tear the frame being
    written — never a frame already appended. {!replay} accepts every
    complete, checksummed frame up to the first torn or corrupt one;
    {!open_append} additionally truncates that torn tail so new frames
    land on a clean boundary. A resumed run therefore sees exactly the
    set of points whose frames were durably appended, in any order, and
    recomputes the rest.

    Appends are serialised by a per-journal mutex and may come from
    concurrent {!Parallel.Pool} lanes.

    {b Identity record.} A journal made by {!create} opens with a frame
    at a reserved index holding a [key]: a digest of the bytes of the
    workload that writes it. {!check_key} compares it with the key of
    the workload about to resume, before any point frame is decoded, so
    a journal is never replayed into another workload's values.
    {!replay} and {!inspect} leave the record out; {!merge} and
    {!compact} carry it over. A journal written before the record
    existed has none, and every check trusts it. *)

type t

(** [create path ~key] — a new journal at [path] (an existing file is
    replaced) whose first frame records [key]. *)
val create : string -> key:string -> t

(** [key path] — the identity record of the journal at [path]; [None]
    for a missing file or a journal without one. Reads the header and
    the first frame only. Raises like {!open_append} on a bad magic. *)
val key : string -> string option

(** [check_key path ~key] — raises {!Robust.Pllscope_error.Error} with
    a [Parse] payload naming [path] when the journal there records
    another key than [key]. A missing journal, or one without a record,
    passes. *)
val check_key : string -> key:string -> unit

(** [open_append path] — create [path] (with header) if absent;
    otherwise validate the header, truncate any torn tail and position
    at the end. Raises {!Robust.Pllscope_error.Error} with a [Parse]
    payload if [path] exists but is not a journal (bad magic). *)
val open_append : string -> t

(** [append t ~index payload] — durably order one frame after all
    previous ones. Thread-safe. Raises [Invalid_argument] on an [index]
    outside [0 .. 2^32 - 2] (the top one is the record's) or a closed
    journal. *)
val append : t -> index:int -> string -> unit

(** [replay path] — the complete frames of [path] in file order, as
    [(index, payload)] pairs. A missing file is an empty journal; a
    torn or corrupt tail is silently dropped. Raises like
    {!open_append} on a bad magic. *)
val replay : string -> (int * string) list

(** [sync t] — [fsync(2)] the journal. *)
val sync : t -> unit

(** [close t] — fsync and close. Idempotent; later appends raise. *)
val close : t -> unit

(** What {!inspect} reports about a journal file on disk. *)
type info = {
  frames : int;  (** complete, checksummed frames *)
  distinct : int;  (** distinct point indices among them *)
  duplicates : int;  (** frames superseded by an earlier frame *)
  bytes : int;  (** file size *)
  valid_bytes : int;  (** header + complete frames *)
  torn_bytes : int;  (** trailing bytes past the last valid frame *)
  max_index : int option;  (** highest point index seen, if any *)
}

(** [inspect path] — frame counts, CRC/torn-tail status and index range
    of [path] without modifying it. A missing file reports all zeros.
    Raises like {!open_append} on a bad magic. *)
val inspect : string -> info

(** [compact path] — atomically rewrite [path] keeping only the first
    frame of each index (the one {!replay}-driven resume would use),
    dropping duplicate frames and any torn tail. Returns
    [(kept, dropped)] frame counts. Bounds the replay cost of
    long-lived, repeatedly resumed journals. *)
val compact : string -> int * int

(** [merge ~into sources] — combine the frames of [sources] (missing
    files are empty journals) into a single journal at [into], written
    atomically via {!Atomic_file}. For each index the first frame in
    source-list order wins; the output is sorted by index, so the merged
    bytes depend only on the decoded content of the sources — never on
    append interleaving — making sharded-and-merged runs canonical.
    Returns the number of distinct frames written. [into] may itself
    appear in [sources]; it is fully read before being replaced. *)
val merge : into:string -> string list -> int

(** The journal's CRC-32 frame layout reused as a message envelope over
    pipes and sockets: the frame's index field carries a small message
    [tag] and the CRC covers tag + payload. The sweep farm's
    coordinator/worker protocol and the analysis daemon's wire protocol
    both read and write through it. *)
module Frame : sig
  (** [encode ~tag payload] — the exact bytes {!write_result} puts on
      the wire. Exposed so fault harnesses can write deliberately torn
      or stalled partial frames (with {!write_all}). Raises
      [Invalid_argument] on a negative tag. *)
  val encode : tag:int -> string -> string

  (** [write_all fd s] — write every byte of [s], retrying short writes
      and [EINTR]. Raises [Unix.Unix_error EPIPE] if the peer is gone. *)
  val write_all : Unix.file_descr -> string -> unit

  (** [write_result ?timeout fd ~tag payload] — write one framed
      message. Without [~timeout] it is {!write_all} of {!encode} and
      returns [Ok ()]. With [~timeout] the whole frame must drain within
      that many seconds or the call returns [Error (Io_timeout _)] (the
      descriptor's [O_NONBLOCK] flag is toggled for the duration, so a
      slow or stalled reader cannot wedge the writer). Raises
      [Invalid_argument] on a negative tag and [Unix.Unix_error EPIPE]
      if the peer is gone (callers treat that as peer death). *)
  val write_result :
    ?timeout:float ->
    Unix.file_descr ->
    tag:int ->
    string ->
    (unit, Robust.Pllscope_error.t) result

  (** [read_result ?timeout fd] — the next complete frame as
      [Ok (Some (tag, payload))]; [Ok None] on EOF, including EOF
      mid-frame (a peer that died while writing); [Error] with a [Parse]
      payload on a CRC mismatch or implausible length prefix — that is
      corruption, not a clean shutdown. With [~timeout] the whole frame
      — header and body — must arrive within that many seconds of the
      call, else [Error (Io_timeout _)]: a peer trickling bytes
      (slow-loris) cannot hold the reader hostage. The wait is
      [select]-based and EINTR-safe, and tolerates nonblocking
      descriptors. *)
  val read_result :
    ?timeout:float ->
    Unix.file_descr ->
    ((int * string) option, Robust.Pllscope_error.t) result
end
