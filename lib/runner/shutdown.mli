(** Graceful shutdown for the CLI: signal handling, distinct exit
    codes, and broken-pipe hygiene. *)

(** Exit code after a forced (second-signal) SIGTERM exit: 143
    (128 + SIGTERM). *)
val exit_terminated : int
[@@lint.allow "test-only-export" "test seam: the forced-exit code the double-signal test expects"]

(** Install SIGINT/SIGTERM handlers. The {e first} signal cancels
    {!Parallel.Cancel.global} instead of killing the process, so
    in-flight chunks drain, journals stay consistent and the CLI can
    report a typed partial summary. A {e second} signal (either kind)
    forces an immediate [_exit] — {!exit_interrupted} for SIGINT,
    {!exit_terminated} for SIGTERM — so a stuck drain never needs
    [kill -9]. Platforms without these signals are tolerated silently. *)
val install_handlers : unit -> unit

(** Ignore SIGPIPE so writes to a closed pipe raise [EPIPE] (which
    {!run_quiet_epipe} turns into a quiet exit) instead of killing the
    process. *)
val ignore_sigpipe : unit -> unit

(** Map a cancellation reason to the process exit code:
    {!exit_interrupted} for signals, {!exit_deadline} for deadlines. *)
val exit_code_of_reason : Parallel.Cancel.reason -> int

(** [run_quiet_epipe f] — run [f ()]; on a broken pipe, silence the
    formatters and return [Some 0] (the exit code for a downstream
    consumer like [head] closing the pipe early — conventionally not an
    error). [None] means [f] completed normally. Other exceptions
    propagate. *)
val run_quiet_epipe : (unit -> unit) -> int option
