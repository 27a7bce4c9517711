(** Client for the analysis daemon, with deterministic retry/backoff,
    a wall-clock retry budget, a circuit breaker, resumable streamed
    sweeps, and the client-side fault-injection sites ([net-torn],
    [net-drop], [net-slow]) of {!Robust.Inject}. *)

type addr = Unix_path of string | Tcp of string * int

type t

(** [connect addr] — open a connection. Raises [Unix.Unix_error] when
    the daemon is unreachable (wrap in {!with_retries} for backoff). *)
val connect : addr -> t

val close : t -> unit

(** The raw descriptor — for harnesses that want to speak frames
    directly (half-written requests, raw reply-byte comparisons). *)
val fd : t -> Unix.file_descr
[@@lint.allow "test-only-export" "test seam: raw socket of a connection, for malformed-frame tests"]

(** [request ?timeout ?stall t req] — send one request, decode one
    reply. [timeout] bounds the wait for the complete reply frame
    (default 60 s). Connection loss, corrupt frames, server error
    frames and shed requests all come back as typed [Error]s.

    [stall] (default 0.75 s) is the mid-frame pause used when the
    [net-slow] injection site fires; the [net-torn]/[net-drop] sites
    instead kill the send and return a retryable [<socket>] parse
    error, exactly as the harnessed fault would. *)
val request :
  ?timeout:float ->
  ?stall:float ->
  t ->
  Wire.request ->
  (Wire.response, Robust.Pllscope_error.t) result

(** Client-side circuit breaker: after [threshold] consecutive
    {!with_retries} call failures the circuit opens and further calls
    fail fast with [Circuit_open] — no connect, no backoff — until
    [cooldown] seconds elapse; then one half-open probe goes through
    and its outcome re-opens or closes the circuit. Thread-safe; share
    one breaker across all calls targeting the same daemon. *)
type breaker

(** [breaker ?threshold ?cooldown ()] — default threshold 5, cooldown
    1 s. Raises [Invalid_argument] on [threshold < 1] or a
    non-positive [cooldown]. *)
val breaker : ?threshold:int -> ?cooldown:float -> unit -> breaker
[@@lint.allow "test-only-export" "test seam: circuit breaker the breaker test drives"]

(** Observability for tests and callers deciding whether to probe. *)
val breaker_is_open : breaker -> bool
[@@lint.allow "test-only-export" "test seam: breaker state the breaker test reads"]

(** [with_retries ?attempts ?base_delay ?max_delay ?seed ?budget
    ?breaker ~connect f] — run [f] on a fresh connection, retrying on
    [Overloaded] (honouring its [retry_after] hint), connection-level
    failures (refused, reset, EOF before reply) and reply timeouts,
    with exponential backoff [base_delay * 2^k] capped at [max_delay]
    and multiplicative jitter in [0.5, 1.5) drawn from a splitmix64
    stream seeded by [seed] — the schedule is deterministic per seed.
    The connection is closed after every attempt.

    [budget] caps the total wall-clock spent across attempts: when the
    next backoff would cross it, the call stops with a typed
    [Budget_exhausted] instead of sleeping — a permanently dead daemon
    fails in bounded time. [breaker] layers the circuit breaker on
    top: an open circuit returns [Circuit_open] before any network
    traffic, and each completed call records its outcome. Non-retryable
    typed errors and exhaustion return the last [Error]. *)
val with_retries :
  ?attempts:int ->
  ?base_delay:float ->
  ?max_delay:float ->
  ?seed:int ->
  ?budget:float ->
  ?breaker:breaker ->
  connect:(unit -> t) ->
  (t -> ('a, Robust.Pllscope_error.t) result) ->
  ('a, Robust.Pllscope_error.t) result

(** What a {!sweep_streamed} call did: [resumes] is the number of
    reconnect-and-resume cycles after the first attempt, [chunks] the
    chunk frames received across all attempts, [computed]/[replayed]
    the server-side split from the final summary frame. *)
type stream_stats = {
  resumes : int;
  chunks : int;
  computed : int;
  replayed : int;
}

(** [sweep_streamed ?timeout ?deadline ?attempts ?base_delay ?max_delay
    ?seed ?budget ?breaker ~connect ~spec ~ratios ()] — run one ratio
    sweep as a resumable stream. The cell buffer survives reconnects:
    every retry sends the same {!Wire.stable_key} with [resume_from]
    set to the buffer's contiguous prefix, so the daemon replays
    journaled cells and recomputes only what neither side has.
    [timeout] bounds the wait for {e each} frame (heartbeats reset it,
    so a slow compute stays alive while a dead peer fails within one
    timeout). The reassembled result is verified against the summary
    digest — byte-identical to a one-shot reply — and on a mismatch
    the buffer is wiped and the stream restarted from scratch.
    Retry/budget/breaker semantics are exactly {!with_retries}'s. *)
val sweep_streamed :
  ?timeout:float ->
  ?deadline:float ->
  ?attempts:int ->
  ?base_delay:float ->
  ?max_delay:float ->
  ?seed:int ->
  ?budget:float ->
  ?breaker:breaker ->
  connect:(unit -> t) ->
  spec:Pll_lib.Design.spec ->
  ratios:float array ->
  unit ->
  (Wire.sweep_result * stream_stats, Robust.Pllscope_error.t) result
