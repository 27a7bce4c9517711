(** The analysis daemon: concurrent clients over Unix-domain and/or
    loopback TCP sockets, speaking the CRC-framed {!Wire} protocol.

    Robustness model (see DESIGN.md "Analysis daemon"):
    - connection-level admission control past [max_clients] and a
      bounded compute gate ([workers] running, [queue_depth] queued) —
      both shed with typed [Overloaded { retry_after }] frames;
    - per-request deadlines enforced by cancellation tokens that a
      ticker thread expires; the engine polls them between points;
    - whole-frame read/write timeouts, so slow-loris clients get typed
      [Io_timeout] frames and slow readers can never hold a compute
      slot (slots are released before the reply is written);
    - an LRU of marshalled responses keyed by request-body digest with
      single-flight dedup — a cached reply is byte-identical to the
      cold one, and a sweep partial cut short by its deadline is
      answered but never cached;
    - streamed sweeps ([Wire.request.stream]): cells journaled to
      [state_dir/<key>.stream] as computed, chunk frames interleaved
      with ticker heartbeats, and resume-by-idempotency-key across
      connection loss, client death and daemon restarts — the
      reassembled reply is byte-identical to a one-shot one (proved by
      the summary frame's digest);
    - drain on the first SIGINT/SIGTERM (via the global cancel token)
      or {!stop}: listeners close, in-flight requests get
      [drain_grace] seconds to deliver, then leftovers are cancelled.
      {!serve} returns normally, so a drained daemon exits 0. *)

type config = {
  socket_path : string option;  (** Unix-domain listener (unlinked on exit) *)
  tcp_port : int option;
      (** loopback TCP listener; [Some 0] binds an ephemeral port,
          reported by {!tcp_port} *)
  workers : int;  (** concurrent compute slots (>= 1) *)
  queue_depth : int;  (** admissions queued past the slots (>= 0) *)
  max_clients : int;  (** open connections before accept-time shedding *)
  cache_entries : int;  (** LRU capacity; 0 disables caching *)
  read_timeout : float;  (** whole-frame read deadline, seconds *)
  write_timeout : float;  (** whole-frame write deadline, seconds *)
  default_deadline : float option;
      (** applied to requests that carry none *)
  drain_grace : float;  (** shutdown grace for in-flight requests *)
  retry_after : float;  (** hint carried by [Overloaded] frames *)
  strict : bool;  (** run the engine in [--strict] guard mode *)
  state_dir : string option;
      (** request-journal directory for streamed sweeps (created if
          missing); [None] streams without persistence — resume then
          saves network replay but recomputes cells *)
  chunk_points : int;  (** sweep cells per streamed chunk frame (>= 1) *)
  heartbeat : float;
      (** seconds of stream silence before the ticker writes a
          progress frame (> 0) *)
}

(** 2 workers, queue 8, 32 clients, 128 cache entries, 10 s I/O
    timeouts, no default deadline, 5 s drain grace, 0.1 s retry hint,
    non-strict, no state dir, 16-point chunks, 1 s heartbeat — and no
    listeners: set at least one of [socket_path] / [tcp_port]. *)
val default_config : config

type t

(** [create cfg] — validate [cfg] and bind the listeners (so the
    caller knows the ephemeral port before {!serve} blocks). Raises
    [Invalid_argument] on a listener-less or malformed config and
    [Unix.Unix_error] when binding fails. *)
val create : config -> t

(** The actual TCP port after an ephemeral bind. *)
val tcp_port : t -> int option

(** Request a drain programmatically (same path as the first signal). *)
val stop : t -> unit
[@@lint.allow "test-only-export" "test seam: stops an in-process daemon in the serve tests"]

(** [serve t] — run accept loop, connection threads and deadline ticker
    until {!stop} or the global cancel token fires, then drain and
    return the final counters. Call
    {!Runner.Shutdown.ignore_sigpipe}/[install_handlers] first in a
    real process. *)
val serve : t -> Wire.server_stats
