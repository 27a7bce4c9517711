(** Fixed pool of worker domains for embarrassingly parallel sweeps.

    A pool owns [size - 1] long-lived worker domains plus the calling
    domain, which always participates in the work. Work items are
    dispatched as chunks of a contiguous index range; every output slot
    is written by exactly one chunk at its own index, so the result of
    {!map} is {b independent of scheduling} — bit-identical for any pool
    size, including 1. A size-1 pool spawns no domains and runs the very
    same chunk loop on the caller, so the sequential fallback exercises
    the exact code path of the parallel one.

    Pools are safe for nested use: a worker that calls {!map} on the
    pool it is running on helps drain the shared queue while waiting for
    its own chunks, so nested maps cannot deadlock.

    Exceptions raised by the mapped function are caught in the worker,
    the sweep is cancelled (remaining chunks are skipped), and the first
    exception is re-raised in the caller with its backtrace. The pool
    stays usable afterwards.

    Every map also polls a {!Cancel.t} token (the explicit [?cancel]
    argument, or else {!Cancel.global}) before claiming each chunk, so
    deadlines and signal handlers drain a sweep cleanly: in-flight
    chunks finish, unclaimed ones never start. Plain maps raise
    {!Cancel.Cancelled} when that leaves the result incomplete;
    {!map_checked} instead returns the skipped points as typed
    [Cancelled] errors. *)

type t

(** Cumulative per-pool instrumentation. [busy_seconds] sums the time
    every lane (workers and caller) spent executing chunks;
    [wall_seconds] sums the elapsed time of each {!map} call as seen by
    the caller. Their ratio estimates the achieved speedup over running
    the same chunks on one lane. *)
type stats = {
  domains : int;  (** lanes: worker domains + the calling domain *)
  maps : int;  (** {!map}/{!init} calls serviced *)
  tasks : int;  (** chunks executed *)
  items : int;  (** elements mapped *)
  wall_seconds : float;
  busy_seconds : float;
}

(** [default_domains ()] — pool size used by {!default}: the
    [PLLSCOPE_DOMAINS] environment variable when set to a positive
    integer (clamped to 64), otherwise [Domain.recommended_domain_count
    ()]. *)
val default_domains : unit -> int

(** [create ?domains ()] — spawn a pool of [domains] lanes (default
    {!default_domains}; clamped below by 1). [domains - 1] worker
    domains are spawned immediately and live until {!shutdown}. *)
val create : ?domains:int -> unit -> t

(** The shared lazily-created pool used by sweep helpers when no
    explicit pool is given. Never shut down. *)
val default : unit -> t

(** Number of lanes (worker domains + caller). *)
val size : t -> int

(** [map ?chunk ?cancel pool f a] — [Array.map f a], computed by all
    lanes in chunks of [chunk] indices (default: balanced across lanes,
    at most 32 items). Output ordering and values are independent of
    pool size and scheduling. Raises {!Cancel.Cancelled} if [cancel]
    (default {!Cancel.global}) is cancelled before every chunk ran. *)
val map : ?chunk:int -> ?cancel:Cancel.t -> t -> ('a -> 'b) -> 'a array -> 'b array

(** [mapi ?chunk ?cancel pool f a] — indexed variant of {!map}. *)
val mapi :
  ?chunk:int -> ?cancel:Cancel.t -> t -> (int -> 'a -> 'b) -> 'a array -> 'b array
[@@lint.allow "test-only-export" "queued: only its own unit tests call it"]

(** [map_chunked ?chunk ?cancel pool ~enter ~leave f a] — {!map} with
    per-chunk state: the lane that claims a chunk calls [enter ()] once,
    maps every element of the chunk as [f st a.(i)] with that one [st],
    and calls [leave st] after the chunk's last element — also when [f]
    raises, before the exception goes on to the caller as in {!map}.
    Chunks are those of {!map} for the same [chunk] and array length;
    output ordering and values are independent of pool size and
    scheduling as long as [f]'s results do not depend on which [st] it
    is handed. *)
val map_chunked :
  ?chunk:int ->
  ?cancel:Cancel.t ->
  t ->
  enter:(unit -> 's) ->
  leave:('s -> unit) ->
  ('s -> 'a -> 'b) ->
  'a array ->
  'b array

(** [map_checked ?retries ?cancel ?task_timeout pool f a] — like {!map},
    but a task that raises is retried in-lane up to [retries] times
    (default 2) before its slot becomes [Error (Worker_failure _)];
    other tasks are unaffected and the sweep always completes. Retries
    happen inside the owning lane before it advances, so surviving slots
    are bit-identical to a fully clean run at any pool size. Retries and
    exhausted tasks are counted in {!Robust.Stats}.

    [task_timeout] (seconds, > 0) arms a watchdog: a monitor domain
    marks any attempt running longer than the bound as overdue. The
    watchdog cannot preempt a task: an overdue task is abandoned only
    at a poll point — today the cooperative hang of the [task-hang]
    injection site is the only one — and its slot then becomes
    [Error (Timed_out _)] without retrying, the payload carrying the
    configured bound, not a wall-clock measurement, so results stay
    deterministic. A task that overruns without polling runs to
    completion and its slot is [Ok] with its value; if it raises after
    being marked overdue, the slot is [Error (Timed_out _)]. Cancellation mid-map turns never-claimed points into
    [Error (Cancelled _)] slots instead of raising, so everything
    computed is still returned. *)
val map_checked :
  ?chunk:int ->
  ?retries:int ->
  ?cancel:Cancel.t ->
  ?task_timeout:float ->
  t ->
  ('a -> 'b) ->
  'a array ->
  ('b, Robust.Pllscope_error.t) result array

(** [init ?chunk ?cancel pool n f] — [Array.init n f] with the same
    guarantees as {!map}. *)
val init : ?chunk:int -> ?cancel:Cancel.t -> t -> int -> (int -> 'b) -> 'b array

(** Snapshot of the cumulative counters. *)
val stats : t -> stats

val reset_stats : t -> unit

(** [shutdown pool] — join the worker domains. Idempotent. Maps on a
    shut-down pool raise [Invalid_argument]. *)
val shutdown : t -> unit

(** [with_pool ?domains f] — [create], run [f], [shutdown] (also on
    exception). *)
val with_pool : ?domains:int -> (t -> 'a) -> 'a
