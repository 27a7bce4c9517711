(** Deterministic parallel sweeps over frequency grids and parameter
    lists.

    Thin wrappers over {!Pool} that default to the shared {!Pool.default}
    pool. All helpers guarantee that both the {b ordering} and the
    {b values} of the result are independent of the pool size and of the
    scheduling of chunks: every output element is computed by exactly
    one lane from its own input element, and reductions ({!sum}) combine
    the materialized per-index terms sequentially in index order. A
    sweep run on a 1-lane pool and on an N-lane pool is bit-identical. *)

(** [grid ?pool ?chunk f a] — [Array.map f a] on the pool. *)
val grid : ?pool:Pool.t -> ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array

(** [grid_local ?pool ?chunk ~local f a] — like {!grid}, but each point
    runs as [f lane_state a.(i)] with a lane-owned instance of
    [local ()], taken once per chunk ({!Pool.map_chunked}): every point
    of a chunk sees the same instance. Instances are pooled: at most
    one per concurrently running lane is ever created, and an instance
    is owned by exactly one chunk at a time — this is how mutable
    per-lane workspaces (e.g. an [Htm_core.Plan.t], whose buffers are
    overwritten at every evaluation) ride a sweep without aliasing
    across lanes. An exception in [f] returns the instance to the pool
    and re-raises in the caller.

    Ownership rule: [f] may freely mutate its lane state but must leave
    it reusable, and its {b result must not depend on} which instance it
    received or on the instance's history — fresh instance and reused
    instance must produce bit-identical values, otherwise results would
    depend on the pool size and schedule. (Plans satisfy this by
    construction: every output cell of a plan evaluation is
    overwritten before it is read.) *)
val grid_local :
  ?pool:Pool.t ->
  ?chunk:int ->
  local:(unit -> 'l) ->
  ('l -> 'a -> 'b) ->
  'a array ->
  'b array

(** [map_list ?pool ?chunk f l] — [List.map f l] on the pool, preserving
    order. *)
val map_list : ?pool:Pool.t -> ?chunk:int -> ('a -> 'b) -> 'a list -> 'b list

(** Partial-failure summary of a checked sweep: [values.(i)] is [None]
    exactly when point [i] failed, [failures] lists those points in
    ascending index order with their typed errors, and [total] is the
    grid size. *)
type 'a partial = {
  values : 'a option array;
  failures : (int * Robust.Pllscope_error.t) list;
  total : int;
}

val ok_count : 'a partial -> int
[@@lint.allow "test-only-export" "test seam: counts the successes of a partial sweep in the robust and runner tests"]

(** [grid_checked ?retries ?cancel ?task_timeout f a] — {!grid} through
    {!Pool.map_checked}: each point is retried in-lane up to [retries]
    times (default 2) and a failure costs only its own slot. Surviving
    values are bit-identical to a clean {!grid} run at any pool size.
    [cancel] and [task_timeout] behave as in {!Pool.map_checked}:
    cancelled points and watchdog timeouts surface as typed failures in
    the partial summary rather than exceptions. *)
val grid_checked :
  ?pool:Pool.t ->
  ?chunk:int ->
  ?retries:int ->
  ?cancel:Cancel.t ->
  ?task_timeout:float ->
  ('a -> 'b) ->
  'a array ->
  'b partial

val pp_partial : Format.formatter -> 'a partial -> unit

(** [sum ?pool ?chunk n term] — [term 0 +. term 1 +. ... +. term (n-1)],
    terms evaluated in parallel, then reduced {b sequentially in index
    order} so the float rounding never depends on the schedule. *)
val sum : ?pool:Pool.t -> ?chunk:int -> int -> (int -> float) -> float
