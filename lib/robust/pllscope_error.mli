(** Typed errors for the numerical-robustness layer.

    One constructor per guarded failure mode of the solver stack.
    [_checked] APIs across [Numeric], [Htm_core] and [Parallel] return
    [(_, t) result]; {!Error} wraps the same payload where an exception
    is unavoidable (parsers, strict mode). *)

type t =
  | Singular of { cond_est : float; context : string }
      (** Ill-conditioned or exactly singular linear algebra.
          [cond_est] is a 1-norm condition estimate ([infinity] when a
          pivot was exactly zero); [context] names the operation. *)
  | Non_convergence of { iters : int; residual : float }
      (** An iterative method exhausted its budget without meeting its
          convergence certificate. *)
  | Non_finite of { where : string }
      (** A NaN or infinity escaped the kernel named by [where]. *)
  | Parse of { file : string; line : int; col : int; msg : string }
      (** Netlist syntax error at [file:line:col] (0-based column). *)
  | Worker_failure of { task : int; attempts : int; last : string }
      (** A pool task kept throwing after deterministic retries; [last]
          is the printed final exception. *)
  | Timed_out of { task : int; seconds : float }
      (** A pool task overran the per-task watchdog timeout. [seconds]
          is the configured bound, not a measurement, so the error is
          deterministic for a given configuration. *)
  | Cancelled of { reason : string }
      (** A sweep point was skipped because the run was cancelled
          (deadline, signal, or explicit token) before its chunk was
          claimed. *)
  | Overloaded of { retry_after : float }
      (** The analysis daemon shed this request under load (admission
          queue full or too many clients). [retry_after] is a hint, in
          seconds, for when a retry is likely to be admitted. *)
  | Io_timeout of { seconds : float; what : string }
      (** A framed I/O operation ([what], e.g. ["frame read"]) exceeded
          its deadline — a stalled peer or a half-written frame followed
          by silence. [seconds] is the configured bound. *)
  | Budget_exhausted of { budget_s : float; attempts : int }
      (** A client retry loop hit its total wall-clock budget
          ([budget_s] seconds across all [attempts]) without a
          success — a permanently dead daemon fails in bounded time. *)
  | Circuit_open of { cooldown_s : float }
      (** The client-side circuit breaker is open after too many
          consecutive failures: the call failed fast without touching
          the network. [cooldown_s] is the time until the next probe is
          allowed. *)

exception Error of t

(** [raise_ t] raises {!Error}[ t]. *)
val raise_ : t -> 'a

val to_string : t -> string

(** [parse_snippet ~src t] — for a {!Parse} error, the offending source
    line of [src] with a caret under the offending column; [None] for
    other constructors or out-of-range lines. *)
val parse_snippet : src:string -> t -> string option
