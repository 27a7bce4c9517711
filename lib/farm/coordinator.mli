(** Sweep-farm coordinator: shard a grid across worker subprocesses,
    steal work from ragged shards, and merge per-shard checkpoint
    journals into one canonical base journal.

    The coordinator computes nothing itself. It replays prior journals
    (on resume) to find completed points — after checking that each
    records [Digest.string blob] as its identity (see
    {!Runner.Journal.check_key}) — partitions the missing indices
    into [shards] contiguous regions balanced by count, spawns the
    workers with pipes on their stdin/stdout, and feeds each one slices
    carved from the front of its own region — then, with stealing on,
    from the back of the largest remaining region. A worker that dies
    (EOF without an Exit frame) has its outstanding range re-queued for
    the survivors; everything it journaled before death is kept. At the
    end {!Runner.Journal.merge} collapses base + shard journals to the
    canonical sorted, deduplicated form.

    {b Bit-identity:} with a deterministic task and bit-exact encoding,
    every frame ever written for an index holds identical bytes, so
    first-wins dedup plus index sort make the merged journal — and the
    payload array decoded from it — a pure function of (task, grid):
    byte-equal across shard counts, stealing decisions, worker kills and
    resumes. *)

type config = {
  shards : int;  (** number of worker subprocesses, >= 1 *)
  steal : bool;  (** allow ragged shards to be rebalanced *)
  resume : bool;  (** replay base + shard journals before sharding *)
  checkpoint : string;  (** base journal path; shards use [.shardK] *)
  blob : string;  (** opaque workload, resolved by the worker *)
  worker_argv : int -> string array;  (** argv for shard [k]'s process *)
  slice : int option;
      (** points per Assign; default [max 1 (missing / (shards*16))] *)
  chunk : int option;  (** forwarded to the worker's in-process pool *)
  retries : int option;  (** forwarded in-lane retry count *)
  task_timeout : float option;  (** forwarded per-task watchdog *)
  progress : bool;  (** live progress line when stderr is a TTY *)
}

type report = {
  payloads : string option array;
      (** encoded point values from the merged journal; [None] = failed *)
  failures : (int * Robust.Pllscope_error.t) list;
      (** ascending; typed where a worker reported one, synthesized
          [Worker_failure] (death) or [Cancelled] otherwise *)
  total : int;
  resumed : int;  (** points restored from prior journals *)
  steals : int;  (** ranges carved from another shard's region *)
  worker_deaths : int;  (** EOFs without an Exit frame *)
  assign_waits : int;  (** worker idle waits (from Exit frames) *)
  assign_wait_seconds : float;  (** total worker idle time *)
  merged_frames : int;  (** distinct frames in the merged journal *)
}

(** [shard_path base k] — shard [k]'s private journal path,
    [base ^ ".shard" ^ k]. *)
val shard_path : string -> int -> string

(** [existing_shards base] — every shard journal currently on disk for
    [base], sorted by name, whatever shard count wrote them. *)
val existing_shards : string -> string list

(** [run cfg ~n] — execute the farm over grid indices [0..n-1] and
    return the merged result. Blocks until every worker has exited or
    died; honours {!Parallel.Cancel.global} (stops handing out work,
    lets in-flight ranges finish, marks the rest [Cancelled]). Worker
    [Robust.Stats] are absorbed into this process's counters. On
    resume, a prior journal that records another workload's identity
    raises {!Robust.Pllscope_error.Error} with a [Parse] payload naming
    it, before any worker is spawned. Raises
    [Invalid_argument] on [shards < 1], negative [n], an empty
    checkpoint path, or [slice < 1]. *)
val run : config -> n:int -> report
