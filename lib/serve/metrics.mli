(** Daemon request counters (atomics; bumped from connection threads)
    and their JSON rendering for [pllscope serve --status]. *)

type t

val create : unit -> t
val incr_served : t -> unit
val incr_shed : t -> unit
val incr_cache_hit : t -> unit
val incr_cache_miss : t -> unit

(** A request that found an identical one in flight and waited to
    replay the leader's bytes (counted once per request). *)
val incr_single_flight_wait : t -> unit

val incr_request_error : t -> unit
val incr_io_timeout : t -> unit
val incr_stream_started : t -> unit
val incr_stream_resumed : t -> unit
val incr_chunk_sent : t -> unit

(** Sweep cells this daemon evaluated / replayed from request journals.
    The pair is what lets the resume tests prove "recompute only
    un-acked chunks". *)
val add_points_computed : t -> int -> unit

val add_points_replayed : t -> int -> unit
val incr_stale_key : t -> unit
val incr_heartbeat : t -> unit

(** [snapshot t ~active ~cache_evictions] — current counters plus the
    process-wide {!Robust.Stats} snapshot, as the wire record the
    [Stats] request returns (its retired [memo_*] fields read 0). The
    labelled arguments carry the counters that live in the daemon and
    {!Lru} rather than here. *)
val snapshot : t -> active:int -> cache_evictions:int -> Wire.server_stats

(** Flat JSON object of every counter (server and robust-layer). *)
val json_of_stats : Wire.server_stats -> string
