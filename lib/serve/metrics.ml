(* Daemon counters. Atomics: connection threads bump them without
   holding the daemon state mutex (responses are written after the
   compute slot is released, so no lock is live at count time). *)

let now () = (Unix.gettimeofday () [@lint.allow "nondeterminism"])

type t = {
  served : int Atomic.t;
  shed : int Atomic.t;
  cache_hits : int Atomic.t;
  cache_misses : int Atomic.t;
  single_flight_waits : int Atomic.t;
  request_errors : int Atomic.t;
  io_timeouts : int Atomic.t;
  streams_started : int Atomic.t;
  streams_resumed : int Atomic.t;
  chunks_sent : int Atomic.t;
  points_computed : int Atomic.t;
  points_replayed : int Atomic.t;
  stale_keys : int Atomic.t;
  heartbeats : int Atomic.t;
  started : float;
}

let create () =
  {
    served = Atomic.make 0;
    shed = Atomic.make 0;
    cache_hits = Atomic.make 0;
    cache_misses = Atomic.make 0;
    single_flight_waits = Atomic.make 0;
    request_errors = Atomic.make 0;
    io_timeouts = Atomic.make 0;
    streams_started = Atomic.make 0;
    streams_resumed = Atomic.make 0;
    chunks_sent = Atomic.make 0;
    points_computed = Atomic.make 0;
    points_replayed = Atomic.make 0;
    stale_keys = Atomic.make 0;
    heartbeats = Atomic.make 0;
    started = now ();
  }

let incr_served t = Atomic.incr t.served
let incr_shed t = Atomic.incr t.shed
let incr_cache_hit t = Atomic.incr t.cache_hits
let incr_cache_miss t = Atomic.incr t.cache_misses
let incr_single_flight_wait t = Atomic.incr t.single_flight_waits
let incr_request_error t = Atomic.incr t.request_errors
let incr_io_timeout t = Atomic.incr t.io_timeouts
let incr_stream_started t = Atomic.incr t.streams_started
let incr_stream_resumed t = Atomic.incr t.streams_resumed
let incr_chunk_sent t = Atomic.incr t.chunks_sent
let add_points_computed t n = ignore (Atomic.fetch_and_add t.points_computed n)
let add_points_replayed t n = ignore (Atomic.fetch_and_add t.points_replayed n)
let incr_stale_key t = Atomic.incr t.stale_keys
let incr_heartbeat t = Atomic.incr t.heartbeats

let snapshot t ~active ~cache_evictions : Wire.server_stats =
  {
    Wire.served = Atomic.get t.served;
    shed = Atomic.get t.shed;
    cache_hits = Atomic.get t.cache_hits;
    cache_misses = Atomic.get t.cache_misses;
    cache_evictions;
    single_flight_waits = Atomic.get t.single_flight_waits;
    request_errors = Atomic.get t.request_errors;
    io_timeouts = Atomic.get t.io_timeouts;
    streams_started = Atomic.get t.streams_started;
    streams_resumed = Atomic.get t.streams_resumed;
    chunks_sent = Atomic.get t.chunks_sent;
    points_computed = Atomic.get t.points_computed;
    points_replayed = Atomic.get t.points_replayed;
    stale_keys = Atomic.get t.stale_keys;
    heartbeats = Atomic.get t.heartbeats;
    memo_hits = 0;
    memo_misses = 0;
    memo_evictions = 0;
    active;
    uptime_s = now () -. t.started;
    robust = Robust.Stats.snapshot ();
  }

(* Hand-rolled JSON: the repo has no JSON dependency and the object is
   flat integers plus one float. *)
let json_of_stats (s : Wire.server_stats) =
  let r = s.Wire.robust in
  let b = Buffer.create 512 in
  let field ?(last = false) name v =
    Buffer.add_string b (Printf.sprintf "  %S: %s%s\n" name v
                           (if last then "" else ","))
  in
  Buffer.add_string b "{\n";
  field "served" (string_of_int s.Wire.served);
  field "shed" (string_of_int s.Wire.shed);
  field "cache_hits" (string_of_int s.Wire.cache_hits);
  field "cache_misses" (string_of_int s.Wire.cache_misses);
  field "cache_evictions" (string_of_int s.Wire.cache_evictions);
  field "single_flight_waits" (string_of_int s.Wire.single_flight_waits);
  field "request_errors" (string_of_int s.Wire.request_errors);
  field "io_timeouts" (string_of_int s.Wire.io_timeouts);
  field "streams_started" (string_of_int s.Wire.streams_started);
  field "streams_resumed" (string_of_int s.Wire.streams_resumed);
  field "chunks_sent" (string_of_int s.Wire.chunks_sent);
  field "points_computed" (string_of_int s.Wire.points_computed);
  field "points_replayed" (string_of_int s.Wire.points_replayed);
  field "stale_keys" (string_of_int s.Wire.stale_keys);
  field "heartbeats" (string_of_int s.Wire.heartbeats);
  field "memo_hits" (string_of_int s.Wire.memo_hits);
  field "memo_misses" (string_of_int s.Wire.memo_misses);
  field "memo_evictions" (string_of_int s.Wire.memo_evictions);
  field "active" (string_of_int s.Wire.active);
  field "uptime_s" (Printf.sprintf "%.3f" s.Wire.uptime_s);
  field "dense_fallbacks" (string_of_int r.Robust.Stats.dense_fallbacks);
  field "singular_guards" (string_of_int r.Robust.Stats.singular_guards);
  field "nonfinite_guards" (string_of_int r.Robust.Stats.nonfinite_guards);
  field "non_convergences" (string_of_int r.Robust.Stats.non_convergences);
  field "pool_retries" (string_of_int r.Robust.Stats.pool_retries);
  field "worker_failures" (string_of_int r.Robust.Stats.worker_failures);
  field "task_timeouts" (string_of_int r.Robust.Stats.task_timeouts);
  field "cancelled_points" (string_of_int r.Robust.Stats.cancelled_points);
  field ~last:true "resumed_points"
    (string_of_int r.Robust.Stats.resumed_points);
  Buffer.add_string b "}";
  Buffer.contents b
