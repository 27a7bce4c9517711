(** Deterministic, seeded fault injection for robustness testing.

    Guarded kernels call {!fire} at named sites; when the harness is
    disarmed (the default) that is a single atomic load returning
    [false], so production paths pay nothing. Arm it programmatically
    with {!configure}, or via the [PLLSCOPE_INJECT] environment variable
    (read once at startup; [PLLSCOPE_INJECT_SEED] overrides the seed).

    Spec grammar — comma-separated [site:trigger] entries:
    - [site:N] — fire on the N-th hit of that site only (1-based);
    - [site:N+] — fire on the N-th and every subsequent hit;
    - [site:*] — fire on every hit;
    - [site:~P] — fire with probability [P] per hit, drawn from a
      splitmix64 stream seeded per (seed, site), hence reproducible.

    Site names: ["lu-pivot"], ["smat-nan"], ["power-stall"],
    ["pool-task"], ["task-hang"], ["journal-torn"], ["crash-at-point"],
    ["grid-plan-nan"], ["net-torn"], ["net-drop"], ["net-slow"],
    ["stream-disconnect"], ["chunk-torn"], ["stale-key"].
    Example: ["lu-pivot:2,smat-nan:*"]. *)

type site =
  | Lu_pivot  (** force an LU pivot-breakdown in [Cmatf.lu_decompose]. *)
  | Smat_nan  (** poison a structured matvec result with a NaN. *)
  | Power_stall  (** stall the power-iteration update in [Htm]. *)
  | Pool_task  (** throw inside a [Parallel.Pool] task body. *)
  | Task_hang
      (** hang a [Parallel.Pool] task until the watchdog marks it
          overdue (cooperative: the simulated hang polls the abort
          flag). *)
  | Journal_torn
      (** tear a [Runner.Journal] write (one frame, or a range's
          frames) halfway through and simulate the process dying,
          leaving a truncated tail on disk. *)
  | Crash_at_point
      (** simulate an abrupt process death right after a sweep point
          has been journaled. *)
  | Grid_plan_nan
      (** poison the root of a planned grid evaluation ([Htm_core.Plan])
          with a NaN after one point's in-place execution, exercising
          the per-point dense-oracle fallback of the plan layer. *)
  | Net_torn
      (** tear a [Serve.Client] request frame mid-write and close the
          connection, so the daemon reads a half-written frame followed
          by EOF. *)
  | Net_drop
      (** drop a [Serve.Client] connection right before the request
          frame is written (models a client killed between connect and
          send). *)
  | Net_slow
      (** stall a [Serve.Client] request write mid-frame (slow-loris
          behaviour), exercising the daemon's per-frame read deadline. *)
  | Stream_disconnect
      (** cut a [Serve.Daemon] streaming connection right after a chunk
          frame has been delivered (models a mid-stream connection
          loss; the client must reconnect and resume by key). *)
  | Chunk_torn
      (** tear a [Serve.Daemon] chunk frame mid-write and close the
          connection, so the client reads a half-written frame followed
          by EOF (torn frames decode as clean EOF by construction). *)
  | Stale_key
      (** make a [Serve.Daemon] request-journal header validation fail,
          modelling an idempotency-key collision: the daemon must
          discard the stale journal and recompute from scratch. *)

(** Raised by the crash-simulation sites ([Journal_torn],
    [Crash_at_point]) to model abrupt process death. [Parallel.Pool]
    lets it bypass task retries (a crash is not a retryable task
    failure) and propagates it to the caller, which is exactly what a
    [kill -9] at that instant would leave behind — minus the dead
    process. *)
exception Simulated_crash

(** [configure ?seed spec] parses [spec], resets all hit counters, and
    arms the harness iff [spec] names at least one site. Raises
    [Invalid_argument] on malformed specs. *)
val configure : ?seed:int -> string -> unit

(** Disarm all sites and reset counters; restores the zero-cost state. *)
val disarm : unit -> unit

val enabled : unit -> bool
[@@lint.allow "test-only-export" "fault hook: reports which sites a spec armed"]

(** [fire site] — true iff the armed trigger for [site] fires on this
    hit. Increments the site's hit counter whenever the harness is
    armed (even if the trigger does not match). *)
val fire : site -> bool

(** Hits recorded at [site] since the last [configure]/[disarm]. *)
val hits : site -> int
[@@lint.allow "test-only-export" "fault hook: counts the fires of an armed site"]
