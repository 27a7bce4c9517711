(** Per-run counters of the robustness machinery.

    Guard sites increment atomics (they fire from pool worker domains);
    {!snapshot} freezes them into a plain record the CLI prints after a
    run. Counter semantics:

    - [dense_fallbacks]: structured-path evaluations that degraded to
      the dense oracle;
    - [singular_guards] / [nonfinite_guards] / [non_convergences]:
      guard firings by error kind (a fallback increments both its kind
      counter and [dense_fallbacks]);
    - [pool_retries]: task re-executions after an exception;
    - [worker_failures]: tasks that still failed after all retries;
    - [task_timeouts]: tasks converted to typed [Timed_out] by the
      pool watchdog;
    - [cancelled_points]: sweep points skipped because the run was
      cancelled (deadline, signal, explicit token);
    - [resumed_points]: points restored from a checkpoint journal
      instead of being recomputed. *)

type t = {
  dense_fallbacks : int;
  singular_guards : int;
  nonfinite_guards : int;
  non_convergences : int;
  pool_retries : int;
  worker_failures : int;
  task_timeouts : int;
  cancelled_points : int;
  resumed_points : int;
}

val snapshot : unit -> t
val reset : unit -> unit

(** Sum of all counters — nonzero iff anything noteworthy happened. *)
val total : t -> int

(** [record_fallback err] — a dense-oracle fallback triggered by [err];
    increments [dense_fallbacks] plus the kind counter of [err]. *)
val record_fallback : Pllscope_error.t -> unit

(** [record_guard err] — a guard fired without a fallback (strict mode,
    checked APIs); increments only the kind counter. *)
val record_guard : Pllscope_error.t -> unit

val record_retry : unit -> unit
val record_worker_failure : unit -> unit
val record_timeout : unit -> unit
val record_cancelled : unit -> unit

(** [record_resumed n] — [n] points were restored from a checkpoint
    journal (no-op for [n <= 0]). *)
val record_resumed : int -> unit

(** [absorb s] — add every counter of [s] (a snapshot marshalled from
    another process, e.g. a sweep-farm worker's exit frame) into the
    live counters, so a coordinator's end-of-run summary aggregates the
    whole farm. *)
val absorb : t -> unit

val pp : Format.formatter -> t -> unit
