(** Request/response protocol of the analysis daemon.

    Messages are {!Runner.Journal.Frame} CRC-32 frames whose index
    field carries a message tag and whose payload is the
    {!Runner.Codec} bytes of a plain record. Grammar (tags, and the
    {!msg} constructor each one carries):

    {v
    1 request     client -> daemon   Request of request
    2 result      daemon -> client   Reply of response
    3 error       daemon -> client   Failed of Pllscope_error.t
    4 overloaded  daemon -> client   Failed of Pllscope_error.t
    5 chunk       daemon -> client   Chunk (streamed cells)
    6 summary     daemon -> client   Summary (closes a stream)
    7 progress    daemon -> client   Progress (heartbeat)
    v}

    The [overloaded] tag is an [error] frame whose payload is always
    [Overloaded _]; it is distinguished at the tag level so trivial
    clients can implement retry-after without decoding payloads.

    A streamed sweep reply is a sequence of [chunk] frames (ascending
    [seq], cells addressed by absolute point index) closed by one
    [summary] frame; [progress] frames may be interleaved anywhere and
    carry no data a client must retain — they exist so a reader can
    distinguish slow-compute from dead-peer. *)

type request_body =
  | Analyze of Pll_lib.Design.spec
      (** LTI vs time-varying loop reports for one design. *)
  | Bode of { spec : Pll_lib.Design.spec; points : int }
      (** Open-loop [A(jω)] and effective [λ(jω)] sweeps. *)
  | Sweep of { spec : Pll_lib.Design.spec; ratios : float array }
      (** Fig. 7 ratio sweep over explicit ratios. *)
  | Stats  (** Server counters; never cached, never queued. *)
  | Health  (** Liveness probe; never cached, never queued. *)

(** The request envelope. [deadline] is a per-request budget in seconds
    (from daemon receipt); the daemon substitutes its configured default
    when [None]. [key] is an idempotency key (use {!stable_key}) naming
    the server-side journal a streamed request persists to; [None]
    disables persistence. [resume_from] is the number of contiguous
    leading cells the client already holds — the daemon starts streaming
    at that index. [stream] requests a chunked reply (honoured for
    [Sweep] bodies; others answer one-shot regardless). *)
type request = {
  deadline : float option;
  key : string option;
  resume_from : int;
  stream : bool;
  body : request_body;
}

(** [oneshot ?deadline body] — the classic non-streamed envelope:
    no key, no resume, no streaming. *)
val oneshot : ?deadline:float -> request_body -> request

type analyze_result = {
  lti : Pll_lib.Analysis.loop_report;
  eff : Pll_lib.Analysis.loop_report;
  metrics : Pll_lib.Analysis.closed_loop_metrics;
  stable : bool;
}

type bode_point = { omega : float; mag_db : float; phase_deg : float }

(** Log-grid sweeps of the classical and effective open loops on the
    same grid. *)
type bode_result = { a : bode_point array; lambda : bode_point array }

(** Mirror of {!Parallel.Sweep.partial}: [rows.(i)] is [None] exactly
    when ratio [i] failed (or was cancelled by the request deadline),
    with the typed reason in [failures]. *)
type sweep_result = {
  rows : Pll_lib.Analysis.ratio_point option array;
  failures : (int * Robust.Pllscope_error.t) list;
  total : int;
}

type server_stats = {
  served : int;  (** successful replies written *)
  shed : int;  (** requests refused with [Overloaded] *)
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;  (** LRU entries displaced when full *)
  single_flight_waits : int;
      (** requests that deduplicated onto an in-flight identical one *)
  request_errors : int;  (** typed error replies (excluding sheds) *)
  io_timeouts : int;  (** reads/writes that hit their frame deadline *)
  streams_started : int;  (** streamed sweep requests admitted *)
  streams_resumed : int;  (** of those, ones arriving with a journal *)
  chunks_sent : int;
  points_computed : int;  (** sweep cells evaluated by the engine *)
  points_replayed : int;  (** sweep cells served from request journals *)
  stale_keys : int;  (** journals discarded on fingerprint mismatch *)
  heartbeats : int;  (** progress frames written by the ticker *)
  memo_hits : int;
      (** retired, always 0: the daemon no longer has a plan/grid memo.
          The three [memo_*] fields stay because this record's codec
          layout is the stats wire format and existing readers
          (including [serve --status] consumers) still name them. *)
  memo_misses : int;  (** retired, always 0 *)
  memo_evictions : int;  (** retired, always 0 *)
  active : int;  (** compute slots in use at snapshot time *)
  uptime_s : float;
  robust : Robust.Stats.t;
}

type response =
  | R_analyze of analyze_result
  | R_bode of bode_result
  | R_sweep of sweep_result
  | R_stats of server_stats
  | R_healthy

(** One streamed batch of sweep cells: [cells.(k)] is the encoded cell
    of absolute point index [base + k]. [seq] numbers chunks within one
    reply stream from 0. *)
type chunk = { seq : int; base : int; cells : string array }

(** Closes a stream. [digest] is [Digest.string] of the canonical
    one-shot reply payload (the marshalled [R_sweep]), letting the
    client prove its reassembly byte-identical. [computed]/[replayed]
    split the points by whether this request evaluated them or replayed
    them from its journal. *)
type summary = {
  total : int;
  chunks : int;
  digest : string;
  computed : int;
  replayed : int;
}

(** Heartbeat: the request is alive and [done_points] of
    [total_points] cells exist so far. *)
type progress = { done_points : int; total_points : int }

(** One frame's message. *)
type msg =
  | Request of request
  | Reply of response
  | Failed of Robust.Pllscope_error.t
      (** an [error] frame, or an [overloaded] one when the error is
          [Overloaded _] *)
  | Chunk of chunk
  | Summary of summary
  | Progress of progress

val tag_result : int
val tag_overloaded : int
[@@lint.allow "test-only-export" "test seam: frame tag of the wire round-trip test"]

(** Digest of the codec bytes of the request {e body} — the envelope
    is deliberately excluded, so identical analyses share a cache slot
    regardless of caller patience. Process-local identity only. *)
val cache_key : request_body -> string

(** Compute requests are cacheable; [Stats]/[Health] are not. *)
val cacheable : request_body -> bool
[@@lint.allow "test-only-export" "test seam: cache admission rule the cache-key test checks"]

val body_name : request_body -> string

(** Canonical text fingerprint of one design spec (field-ordered hex of
    the raw IEEE-754 bits); building block of {!body_fingerprint}. *)
val spec_fingerprint : Pll_lib.Design.spec -> string
[@@lint.allow "test-only-export" "test seam: stable key of the golden journal-key test"]

(** Canonical text fingerprint of a request body: field-ordered hex of
    the raw IEEE-754 bits ([Int64.bits_of_float]) of every float. Two
    bodies share a fingerprint iff they are bit-identical analyses; the
    encoding contains no codec bytes, so it is stable across OCaml
    versions — safe to persist in request journals that outlive the
    daemon process. *)
val body_fingerprint : request_body -> string

(** [stable_key body] — hex MD5 of {!body_fingerprint}: the idempotency
    key clients put in {!request}[.key]. Golden-pinned by the test
    suite; changing either encoder is a wire-format break. *)
val stable_key : request_body -> string

(** One streamed sweep cell: exactly what {!sweep_result} records for
    one point — the row, or the typed reason there is none. *)
type cell = (Pll_lib.Analysis.ratio_point, Robust.Pllscope_error.t) result

(** The codec's {!Runner.Codec.encode} and {!Runner.Codec.decode} at
    type {!cell}. *)
val encode_cell : cell -> string

val decode_cell : string -> (cell, Robust.Pllscope_error.t) result
[@@lint.allow "test-only-export" "test seam: inverse of the cell codec, for the round-trip test"]

(** [assemble_sweep cells] — rebuild the exact {!sweep_result} a
    single-shot reply would carry from one encoded cell per point
    (failures ascending by index, matching
    {!Parallel.Sweep.grid_checked}). [Error] if any cell is corrupt.
    [marshal_response (R_sweep (assemble_sweep cells))] is
    byte-identical to the uninterrupted one-shot reply. *)
val assemble_sweep :
  string array -> (sweep_result, Robust.Pllscope_error.t) result

(** The payload of a [result] frame. The daemon caches and replays
    these bytes verbatim, which is what makes cached replies
    byte-identical to cold ones. *)
val marshal_response : response -> string

(** [frame msg] — the tag and payload [msg] travels as: the sending
    half of the tag table. The daemon writes [(tag, payload)] pairs
    itself (a cached reply is [(tag_result, bytes)]), and fault
    harnesses tear or stall the {!Runner.Journal.Frame.encode} of
    one. *)
val frame : msg -> int * string

(** [send ?timeout fd msg] — write [msg] as one frame. With [timeout]
    the whole frame must drain in time (see
    {!Runner.Journal.Frame.write_result}): a stalled peer surfaces as
    [Error (Io_timeout _)], never as a wedged daemon thread. *)
val send :
  ?timeout:float ->
  Unix.file_descr ->
  msg ->
  (unit, Robust.Pllscope_error.t) result

(** [recv ?timeout fd] — the next frame's message: the receiving half
    of the tag table. [Ok None] — clean EOF (including a peer that died
    mid-frame: torn frames read as EOF by construction). [Error _] —
    corruption, an unknown tag or an undecodable payload ([Parse]), or
    a frame that outran [timeout] ([Io_timeout]); [timeout] bounds the
    wait for the next frame of any kind, so heartbeats keep a
    healthy-but-slow stream alive while a dead peer still fails within
    one timeout. *)
val recv :
  ?timeout:float ->
  Unix.file_descr ->
  (msg option, Robust.Pllscope_error.t) result

(** Daemon side: {!recv} expecting a [request] frame. *)
val recv_request :
  ?timeout:float ->
  Unix.file_descr ->
  (request option, Robust.Pllscope_error.t) result

(** Client side: {!recv} expecting a reply. Decodes a [result] frame to
    [Ok]; [error]/[overloaded] frames, EOF-before-reply, corruption and
    reply timeouts all come back as typed [Error]s. *)
val recv_reply :
  ?timeout:float ->
  Unix.file_descr ->
  (response, Robust.Pllscope_error.t) result
