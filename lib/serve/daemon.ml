(* The analysis daemon.

   Architecture: one accept loop (the calling thread), one ticker
   thread, and one sys-thread per connection. All shared state — the
   admission gate, the response cache, single-flight bookkeeping, the
   deadline watch list and the connection table — lives behind a single
   mutex [t.m] with a single condition [t.c] that every state change
   (and every ticker tick) broadcasts. Sys-threads all share domain 0,
   so the per-request compute runs on the caller's thread and the
   watchdog machinery of Parallel.Pool (whose control block is
   domain-local) is deliberately not used here; per-request deadlines
   are enforced by cancellation tokens instead.

   Robustness decisions, in the order a request meets them:

   - Admission at accept: past [max_clients] open connections the
     daemon answers a typed [Overloaded] frame and closes — before
     reading a byte, so a connection flood cannot consume read
     timeouts' worth of daemon attention.
   - Framed reads carry a whole-frame deadline ([read_timeout]): an
     idle client is closed quietly after that long, and a slow-loris
     client trickling a frame gets a typed [Io_timeout] error frame
     back. Torn frames (client died mid-write) read as clean EOF by
     frame-codec construction.
   - The compute gate admits [workers] concurrent requests and queues
     [queue_depth] more; past that the request is shed with
     [Overloaded { retry_after }]. Queued requests still honour their
     deadline (the ticker's broadcast wakes them to re-check).
   - Every compute request owns a fresh Cancel token registered with
     its absolute deadline; the ticker cancels expired tokens and the
     engine polls them between points, so an overrun burns at most one
     point's work beyond its budget.
   - Responses are cached as marshalled payload bytes keyed by the
     digest of the request body (deadline excluded), with single-flight
     dedup: concurrent identical requests compute once, waiters replay
     the leader's bytes. A cached reply is byte-identical to the cold
     one. A sweep partial with Cancelled/Timed_out points depends on
     when its deadline fired, so it is answered but never cached.
     Leader failure (or an uncached partial) wakes waiters, one of
     which becomes the new leader.
   - The compute slot is released *before* the response is written, so
     a slow-reading client can never hold a worker slot; the write
     itself carries [write_timeout]. (Streamed replies are the one
     exception: compute and delivery interleave, so the slot is held
     across chunk writes — each bounded by [write_timeout] — and
     released at stream end.)
   - Drain: when the global cancel token fires (first SIGINT/SIGTERM)
     or [stop] is called, listeners close, idle connections are nudged
     out of their reads, in-flight requests get [drain_grace] seconds
     to finish and deliver, then leftover tokens are cancelled and
     sockets shut down. [serve] then returns normally — exit 0 — with
     the final stats. A second signal force-exits via
     Runner.Shutdown.

   Streamed sweeps ([request.stream], Sweep bodies only) add a
   resumable delivery layer on top:

   - Cells (one per ratio, Marshal of the point-or-typed-failure) are
     computed window by window — one Engine.sweep over each window's
     missing points, the one-shot compute — and journaled to
     [state_dir/<key>.stream] through Runner.Journal the moment they
     exist, with frame index 0 pinning the request's canonical
     fingerprint. A client reconnecting with the same idempotency key
     — after connection loss, client kill -9, or a daemon restart —
     replays journaled cells and recomputes only the missing ones.
     A fingerprint mismatch (or the [stale-key] injection) discards
     the journal and heals by recomputing from scratch.
   - Schedule-dependent failures (Cancelled, Timed_out) are never
     journaled and never streamed: they abort the stream with a typed
     error frame, and the journal keeps every deterministic cell for
     the resume.
   - The final summary frame carries the digest of the canonical
     one-shot reply payload, which is also seeded into the response
     LRU — so the client can prove its reassembly byte-identical, and
     a later one-shot request for the same sweep is a cache hit.
   - While a stream computes, the ticker writes progress heartbeats on
     the connection (serialised with chunk writes by a per-connection
     write mutex) so the client can tell slow-compute from dead-peer. *)

let now () = (Unix.gettimeofday () [@lint.allow "nondeterminism"])

type config = {
  socket_path : string option;
  tcp_port : int option;
  workers : int;
  queue_depth : int;
  max_clients : int;
  cache_entries : int;
  read_timeout : float;
  write_timeout : float;
  default_deadline : float option;
  drain_grace : float;
  retry_after : float;
  strict : bool;
  state_dir : string option;
  chunk_points : int;
  heartbeat : float;
}

let default_config =
  {
    socket_path = None;
    tcp_port = None;
    workers = 2;
    queue_depth = 8;
    max_clients = 32;
    cache_entries = 128;
    read_timeout = 10.0;
    write_timeout = 10.0;
    default_deadline = None;
    drain_grace = 5.0;
    retry_after = 0.1;
    strict = false;
    state_dir = None;
    chunk_points = 16;
    heartbeat = 1.0;
  }

type conn = {
  fd : Unix.file_descr;
  mutable busy : bool;
  wm : Mutex.t;
      (* serialises every frame write on [fd] once a stream is live:
         chunk/summary/error writes from the handler thread and
         progress heartbeats from the ticker *)
  mutable streaming : (int * int) option;  (* done points, total *)
  mutable last_frame : float;
  mutable closed : bool;
}

type t = {
  cfg : config;
  metrics : Metrics.t;
  cache : Lru.t;
  m : Mutex.t;
  c : Condition.t;
  mutable active : int;
  mutable waiting : int;
  inflight : (string, unit) Hashtbl.t;
  stream_inflight : (string, unit) Hashtbl.t;
  mutable watched : (Parallel.Cancel.t * float * float) list;
      (* token, absolute deadline, configured seconds *)
  mutable conns : conn list;
  mutable threads : Thread.t list;
  mutable stopping : bool;
  mutable finished : bool;
  stop_requested : bool Atomic.t;
  listeners : Unix.file_descr list;
  bound_port : int option;
}

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let quiet_close fd =
  try Unix.close fd with Unix.Unix_error (_, "close", _) -> ()

let quiet_shutdown fd mode =
  try Unix.shutdown fd mode with Unix.Unix_error (_, "shutdown", _) -> ()

let listen_unix path =
  (try Unix.unlink path with Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match Unix.bind fd (Unix.ADDR_UNIX path) with
  | () -> ()
  | exception e ->
      quiet_close fd;
      raise e);
  Unix.listen fd 64;
  fd

let listen_tcp port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  (match Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
  | () -> ()
  | exception e ->
      quiet_close fd;
      raise e);
  Unix.listen fd 64;
  let bound =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> port
  in
  (fd, bound)

let rec mkdir_p path =
  if path = "" || path = "." || path = "/" then ()
  else if Sys.file_exists path then ()
  else begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create cfg =
  if cfg.workers < 1 then invalid_arg "Daemon.create: workers must be >= 1";
  if cfg.queue_depth < 0 then
    invalid_arg "Daemon.create: queue_depth must be >= 0";
  if cfg.max_clients < 1 then
    invalid_arg "Daemon.create: max_clients must be >= 1";
  if cfg.chunk_points < 1 then
    invalid_arg "Daemon.create: chunk_points must be >= 1";
  if cfg.heartbeat <= 0.0 then
    invalid_arg "Daemon.create: heartbeat must be > 0";
  if cfg.socket_path = None && cfg.tcp_port = None then
    invalid_arg "Daemon.create: no listener configured (socket or port)";
  Option.iter mkdir_p cfg.state_dir;
  let unix_listener = Option.map listen_unix cfg.socket_path in
  let tcp_listener = Option.map listen_tcp cfg.tcp_port in
  let listeners =
    Option.to_list unix_listener
    @ List.map fst (Option.to_list tcp_listener)
  in
  {
    cfg;
    metrics = Metrics.create ();
    cache = Lru.create ~cap:cfg.cache_entries;
    m = Mutex.create ();
    c = Condition.create ();
    active = 0;
    waiting = 0;
    inflight = Hashtbl.create 16;
    stream_inflight = Hashtbl.create 16;
    watched = [];
    conns = [];
    threads = [];
    stopping = false;
    finished = false;
    stop_requested = Atomic.make false;
    listeners;
    bound_port = Option.map snd tcp_listener;
  }

let tcp_port t = t.bound_port
let stop t = Atomic.set t.stop_requested true

let should_stop t =
  Atomic.get t.stop_requested
  || Parallel.Cancel.is_cancelled (Parallel.Cancel.global ())

(* ------------------------------------------------------------------ *)
(* deadline watch + ticker                                             *)

let error_of_reason r =
  Robust.Pllscope_error.Cancelled
    { reason = Parallel.Cancel.reason_to_string r }

let cancel_error token =
  match Parallel.Cancel.get token with
  | Some r -> error_of_reason r
  | None -> Robust.Pllscope_error.Cancelled { reason = "cancelled" }

let with_watch t token deadline f =
  match deadline with
  | None -> f ()
  | Some s when s <= 0.0 ->
      (* already expired on arrival: cancel deterministically, no
         ticker race *)
      Parallel.Cancel.cancel token (Parallel.Cancel.Deadline s);
      f ()
  | Some s ->
      let until = now () +. s in
      locked t (fun () -> t.watched <- (token, until, s) :: t.watched);
      Fun.protect
        ~finally:(fun () ->
          locked t (fun () ->
              t.watched <-
                List.filter (fun (tok, _, _) -> tok != token) t.watched))
        f

(* Quiet streams get a heartbeat so the client can tell slow-compute
   from dead-peer. [try_lock]: if the handler is mid-chunk the stream
   is plainly alive and the ticker must not queue behind the write. *)
let heartbeat_conn t tnow conn =
  match conn.streaming with
  | Some _ when tnow -. conn.last_frame >= t.cfg.heartbeat ->
      if Mutex.try_lock conn.wm then
        Fun.protect
          ~finally:(fun () -> Mutex.unlock conn.wm)
          (fun () ->
            match conn.streaming with
            | Some (done_points, total_points)
              when (not conn.closed)
                   && tnow -. conn.last_frame >= t.cfg.heartbeat -> (
                match
                  Wire.send ~timeout:t.cfg.write_timeout conn.fd
                    (Wire.Progress { Wire.done_points; total_points })
                with
                | Ok () ->
                    conn.last_frame <- now ();
                    Metrics.incr_heartbeat t.metrics
                | Error _ -> ()
                | exception Unix.Unix_error (_, _, _) -> ())
            | _ -> ())
  | _ -> ()

let ticker t =
  let rec loop () =
    let done_ = locked t (fun () -> t.finished) in
    if not done_ then begin
      Thread.delay 0.05;
      let t_now = now () in
      locked t (fun () ->
          List.iter
            (fun (tok, until, s) ->
              if t_now > until then
                Parallel.Cancel.cancel tok (Parallel.Cancel.Deadline s))
            t.watched;
          (* wake gate and single-flight waiters so deadline expiry and
             drain are noticed without their own timed waits *)
          Condition.broadcast t.c);
      let conns = locked t (fun () -> t.conns) in
      List.iter (heartbeat_conn t t_now) conns;
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* admission gate                                                      *)

let acquire t token =
  locked t (fun () ->
      if t.stopping then `Shed
      else if t.active < t.cfg.workers then begin
        t.active <- t.active + 1;
        `Go
      end
      else if t.waiting >= t.cfg.queue_depth then `Shed
      else begin
        t.waiting <- t.waiting + 1;
        let rec wait () =
          if Parallel.Cancel.is_cancelled token then begin
            t.waiting <- t.waiting - 1;
            `Cancelled
          end
          else if t.stopping then begin
            t.waiting <- t.waiting - 1;
            `Shed
          end
          else if t.active < t.cfg.workers then begin
            t.waiting <- t.waiting - 1;
            t.active <- t.active + 1;
            `Go
          end
          else begin
            Condition.wait t.c t.m;
            wait ()
          end
        in
        wait ()
      end)

let release t =
  locked t (fun () ->
      t.active <- t.active - 1;
      Condition.broadcast t.c)

(* ------------------------------------------------------------------ *)
(* frame writes and admission                                          *)

(* Every frame the daemon writes on a connection goes through here, as
   a [Wire.frame] tag and payload. It runs under the connection's write
   mutex, so it never interleaves with a ticker heartbeat. false => the
   connection is gone (the peer closed it, or the write outran
   [write_timeout]). *)
let send_frame t conn (tag, payload) =
  Mutex.lock conn.wm;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.wm)
    (fun () ->
      match
        Runner.Journal.Frame.write_result ~timeout:t.cfg.write_timeout conn.fd
          ~tag payload
      with
      | Ok () ->
          conn.last_frame <- now ();
          true
      | Error _ ->
          Metrics.incr_io_timeout t.metrics;
          false
      | exception
          Unix.Unix_error
            ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF | Unix.ENOTCONN), _, _)
        ->
          false)

let send t conn msg = send_frame t conn (Wire.frame msg)

(* A reply payload (counted as served once written) or a typed error
   frame (counted as a request error). *)
let reply t conn = function
  | Ok payload ->
      let ok = send_frame t conn (Wire.tag_result, payload) in
      if ok then Metrics.incr_served t.metrics;
      ok
  | Error err ->
      Metrics.incr_request_error t.metrics;
      send t conn (Wire.Failed err)

let shed t conn =
  Metrics.incr_shed t.metrics;
  send t conn
    (Wire.Failed
       (Robust.Pllscope_error.Overloaded { retry_after = t.cfg.retry_after }))

(* Every compute request enters here: resolve its deadline, watch a
   fresh token, and wait for a compute slot — or answer a typed
   [Overloaded]/[Cancelled] frame instead. [work token] runs holding
   the slot and returns the delivery step, which runs after the slot is
   released so a slow reader never holds one. (A stream delivers inside
   [work] and returns its verdict.) *)
let admit t conn (req : Wire.request) work =
  let deadline =
    match req.Wire.deadline with
    | Some _ as d -> d
    | None -> t.cfg.default_deadline
  in
  let token = Parallel.Cancel.create () in
  with_watch t token deadline @@ fun () ->
  match acquire t token with
  | `Shed -> shed t conn
  | `Cancelled -> reply t conn (Error (cancel_error token))
  | `Go ->
      let deliver =
        Fun.protect ~finally:(fun () -> release t) (fun () -> work token)
      in
      deliver ()

(* ------------------------------------------------------------------ *)
(* compute with cache + single-flight                                  *)

(* Cancelled and Timed_out depend on when a deadline fired, not on the
   request. A stream aborts on such a cell (never journaling or
   streaming it); a one-shot reply carrying one is answered but never
   cached. *)
let schedule_dependent : Robust.Pllscope_error.t -> bool = function
  | Cancelled _ | Timed_out _ -> true
  | Singular _ | Non_convergence _ | Non_finite _ | Parse _ | Worker_failure _
  | Overloaded _ | Io_timeout _ | Budget_exhausted _ | Circuit_open _ ->
      false

let run_body ~token (body : Wire.request_body) =
  match body with
  | Wire.Analyze spec -> Wire.R_analyze (Engine.analyze ~cancel:token spec)
  | Wire.Bode { spec; points } ->
      Wire.R_bode (Engine.bode ~cancel:token spec ~points)
  | Wire.Sweep { spec; ratios } ->
      Wire.R_sweep (Engine.sweep ~cancel:token spec ratios)
  | Wire.Stats | Wire.Health ->
      invalid_arg "Daemon.run_body: stats/health are not compute requests"

(* Returns the marshalled response payload. The leader computes and
   caches; concurrent identical requests wait on [t.c] and replay the
   cached bytes. If the leader fails, or its reply is a
   schedule-dependent partial, nothing is cached: its answer is its
   own, and one woken waiter finds neither cache entry nor inflight
   mark and becomes the new leader. *)
let compute t ~key ~token body =
  let deduped = ref false in
  let rec obtain () =
    let verdict =
      locked t (fun () ->
          match Lru.find t.cache key with
          | Some payload -> `Cached payload
          | None ->
              if Hashtbl.mem t.inflight key then
                if Parallel.Cancel.is_cancelled token then `Cancelled
                else begin
                  if not !deduped then begin
                    deduped := true;
                    Metrics.incr_single_flight_wait t.metrics
                  end;
                  Condition.wait t.c t.m;
                  `Retry
                end
              else begin
                Hashtbl.add t.inflight key ();
                `Lead
              end)
    in
    match verdict with
    | `Cached payload ->
        Metrics.incr_cache_hit t.metrics;
        Ok payload
    | `Cancelled -> Error (cancel_error token)
    | `Retry -> obtain ()
    | `Lead ->
        Metrics.incr_cache_miss t.metrics;
        let outcome =
          match run_body ~token body with
          | resp -> Ok (resp, Wire.marshal_response resp)
          | exception Robust.Pllscope_error.Error err -> Error err
          | exception Parallel.Cancel.Cancelled r -> Error (error_of_reason r)
        in
        locked t (fun () ->
            Hashtbl.remove t.inflight key;
            (match outcome with
            | Ok (Wire.R_sweep s, _)
              when List.exists
                     (fun (_, e) -> schedule_dependent e)
                     s.Wire.failures ->
                ()
            | Ok (_, payload) -> Lru.add t.cache key payload
            | Error _ -> ());
            Condition.broadcast t.c);
        Result.map snd outcome
  in
  obtain ()

let stats_snapshot t =
  let active, cache_evictions =
    locked t (fun () -> (t.active, Lru.evictions t.cache))
  in
  Metrics.snapshot t.metrics ~active ~cache_evictions

(* ------------------------------------------------------------------ *)
(* streamed sweeps                                                     *)

let request_parse_err msg =
  Robust.Pllscope_error.Parse { file = "<request>"; line = 0; col = 0; msg }

(* Keys name files under [state_dir]; accept only flat, dot-free-prefix
   names so a hostile key cannot traverse out of the directory. *)
let valid_key k =
  let n = String.length k in
  n > 0 && n <= 64
  && k.[0] <> '.'
  && String.for_all
       (fun c ->
         (c >= '0' && c <= '9')
         || (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || c = '-' || c = '_' || c = '.')
       k

let set_streaming conn v =
  Mutex.lock conn.wm;
  conn.streaming <- v;
  conn.last_frame <- now ();
  Mutex.unlock conn.wm

(* Chunk delivery with the daemon-side net-fault sites armed:
   [chunk-torn] writes half the encoded frame then cuts the wire (the
   client reads it as clean EOF); [stream-disconnect] delivers the
   chunk, then cuts. Both model mid-stream connection loss the client
   must heal by resuming. *)
let send_chunk_inject t conn (c : Wire.chunk) =
  if Robust.Inject.fire Robust.Inject.Chunk_torn then begin
    let tag, payload = Wire.frame (Wire.Chunk c) in
    let frame = Runner.Journal.Frame.encode ~tag payload in
    Mutex.lock conn.wm;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock conn.wm)
      (fun () ->
        try
          Runner.Journal.Frame.write_all conn.fd
            (String.sub frame 0 (String.length frame / 2))
        with Unix.Unix_error _ -> ());
    quiet_shutdown conn.fd Unix.SHUTDOWN_ALL;
    false
  end
  else if not (send t conn (Wire.Chunk c)) then false
  else begin
    Metrics.incr_chunk_sent t.metrics;
    if Robust.Inject.fire Robust.Inject.Stream_disconnect then begin
      quiet_shutdown conn.fd Unix.SHUTDOWN_ALL;
      false
    end
    else true
  end

(* A window's [Engine.sweep] numbers failures by sub-grid position;
   [task] restores the global point index, so streamed failure cells
   are byte-identical to the one-shot sweep's. *)
let with_task task (err : Robust.Pllscope_error.t) =
  match err with
  | Worker_failure w -> Robust.Pllscope_error.Worker_failure { w with task }
  | Timed_out tt -> Robust.Pllscope_error.Timed_out { tt with task }
  | Singular _ | Non_convergence _ | Non_finite _ | Parse _ | Cancelled _
  | Overloaded _ | Io_timeout _ | Budget_exhausted _ | Circuit_open _ ->
      err

(* The stream body, run while holding a compute slot. Returns true iff
   the connection is still usable afterwards. *)
let stream_compute t conn (req : Wire.request) ~spec ~ratios ~key ~token =
  let n = Array.length ratios in
  let fp = Wire.body_fingerprint req.Wire.body in
  let journal_path =
    match (t.cfg.state_dir, key) with
    | Some dir, Some k -> Some (Filename.concat dir (k ^ ".stream"))
    | _ -> None
  in
  (* replay the request journal, validating its identity header *)
  let replayed_cells = Hashtbl.create 64 in
  let have_header = ref false in
  (match journal_path with
  | None -> ()
  | Some path -> (
      let frames, corrupt =
        match Runner.Journal.replay path with
        | frames -> (frames, false)
        | exception Robust.Pllscope_error.Error _ -> ([], true)
      in
      match frames with
      | [] -> if corrupt then (try Sys.remove path with Sys_error _ -> ())
      | _ -> (
          match List.assoc_opt 0 frames with
          | Some h
            when h = fp && not (Robust.Inject.fire Robust.Inject.Stale_key) ->
              have_header := true;
              List.iter
                (fun (idx, payload) ->
                  if
                    idx >= 1 && idx <= n
                    && not (Hashtbl.mem replayed_cells (idx - 1))
                  then Hashtbl.add replayed_cells (idx - 1) payload)
                frames
          | Some _ | None ->
              (* wrong body behind this key (or the stale-key fault):
                 self-heal by discarding and recomputing *)
              Metrics.incr_stale_key t.metrics;
              (try Sys.remove path with Sys_error _ -> ()))));
  let replayed = Hashtbl.length replayed_cells in
  if replayed > 0 then Metrics.incr_stream_resumed t.metrics;
  let journal = Option.map Runner.Journal.open_append journal_path in
  (match journal with
  | Some jr when not !have_header -> Runner.Journal.append jr ~index:0 fp
  | _ -> ());
  let close_journal () =
    match journal with Some jr -> Runner.Journal.close jr | None -> ()
  in
  let cells = Array.make n None in
  Hashtbl.iter
    (fun i payload -> if i < n then cells.(i) <- Some payload)
    replayed_cells;
  let done_count () =
    Array.fold_left (fun acc c -> if c = None then acc else acc + 1) 0 cells
  in
  set_streaming conn (Some (done_count (), n));
  let resume_from = max 0 (min req.Wire.resume_from n) in
  let computed = ref 0 in
  let chunks = ref 0 in
  let seq = ref 0 in
  let abort = ref None in
  let alive = ref true in
  let cp = t.cfg.chunk_points in
  let base = ref 0 in
  while !alive && Option.is_none !abort && !base < n do
    let stop = min n (!base + cp) in
    let missing = ref [] in
    for i = stop - 1 downto !base do
      if cells.(i) = None then missing := i :: !missing
    done;
    let idxs = Array.of_list !missing in
    if Array.length idxs > 0 then begin
      (* the one-shot compute, so every cell is bit-identical to the
         one-shot reply's *)
      let s =
        Engine.sweep ~cancel:token spec (Array.map (fun i -> ratios.(i)) idxs)
      in
      Array.iteri
        (fun j i ->
          let cell : Wire.cell =
            match s.Wire.rows.(j) with
            | Some v -> Ok v
            | None -> Error (with_task i (List.assoc j s.Wire.failures))
          in
          match cell with
          | Error e when schedule_dependent e ->
              if Option.is_none !abort then abort := Some e
          | Ok _ | Error _ ->
              let enc = Wire.encode_cell cell in
              cells.(i) <- Some enc;
              (match journal with
              | Some jr -> Runner.Journal.append jr ~index:(i + 1) enc
              | None -> ());
              incr computed)
        idxs
    end;
    if Option.is_none !abort then begin
      if stop > resume_from then begin
        let window =
          Array.init (stop - !base) (fun k -> Option.get cells.(!base + k))
        in
        let c = { Wire.seq = !seq; base = !base; cells = window } in
        incr seq;
        if send_chunk_inject t conn c then incr chunks else alive := false
      end;
      set_streaming conn (Some (done_count (), n));
      base := stop
    end
  done;
  set_streaming conn None;
  close_journal ();
  Metrics.add_points_computed t.metrics !computed;
  match !abort with
  | Some err -> reply t conn (Error err)
  | None when not !alive -> false
  | None -> (
      let all = Array.map Option.get cells in
      match Wire.assemble_sweep all with
      | Error err ->
          (* a journaled cell failed to decode: the journal is poison —
             drop it so the next attempt recomputes *)
          (match journal_path with
          | Some path -> ( try Sys.remove path with Sys_error _ -> ())
          | None -> ());
          reply t conn (Error err)
      | Ok sres ->
          let payload = Wire.marshal_response (Wire.R_sweep sres) in
          let digest = Digest.string payload in
          locked t (fun () ->
              Lru.add t.cache (Wire.cache_key req.Wire.body) payload);
          Metrics.add_points_replayed t.metrics (n - !computed);
          let summary =
            {
              Wire.total = n;
              chunks = !chunks;
              digest;
              computed = !computed;
              replayed = n - !computed;
            }
          in
          let ok = send t conn (Wire.Summary summary) in
          if ok then Metrics.incr_served t.metrics;
          ok)

(* Streamed request entry: single-flight per idempotency key (a
   concurrent stream on the same key would race the journal, and a
   waiting stream connection would get no heartbeats, so the second
   one is shed), then the same admission as one-shot requests. *)
let handle_stream t conn (req : Wire.request) ~spec ~ratios =
  let key = req.Wire.key in
  if Array.length ratios = 0 then
    reply t conn (Error (request_parse_err "Engine.sweep: empty ratio grid"))
  else if not (Option.fold ~none:true ~some:valid_key key) then
    reply t conn
      (Error (request_parse_err "Daemon.stream: malformed idempotency key"))
  else
    let claimed =
      match key with
      | None -> true
      | Some k ->
          locked t (fun () ->
              if Hashtbl.mem t.stream_inflight k then false
              else begin
                Hashtbl.add t.stream_inflight k ();
                true
              end)
    in
    if not claimed then shed t conn
    else
      Fun.protect
        ~finally:(fun () ->
          Option.iter
            (fun k -> locked t (fun () -> Hashtbl.remove t.stream_inflight k))
            key)
        (fun () ->
          admit t conn req (fun token ->
              Metrics.incr_stream_started t.metrics;
              let ok = stream_compute t conn req ~spec ~ratios ~key ~token in
              fun () -> ok))

(* Handle one decoded request; true iff the connection survives. *)
let handle_request t conn (req : Wire.request) =
  match req.Wire.body with
  | Wire.Health -> reply t conn (Ok (Wire.marshal_response Wire.R_healthy))
  | Wire.Stats ->
      reply t conn (Ok (Wire.marshal_response (Wire.R_stats (stats_snapshot t))))
  | Wire.Sweep { spec; ratios } when req.Wire.stream ->
      handle_stream t conn req ~spec ~ratios
  | Wire.Analyze _ | Wire.Bode _ | Wire.Sweep _ -> (
      let key = Wire.cache_key req.Wire.body in
      match locked t (fun () -> Lru.find t.cache key) with
      | Some payload ->
          Metrics.incr_cache_hit t.metrics;
          reply t conn (Ok payload)
      | None ->
          admit t conn req (fun token ->
              let outcome = compute t ~key ~token req.Wire.body in
              fun () -> reply t conn outcome))

let draining t = locked t (fun () -> t.stopping)

let handle_conn t conn =
  let rec loop () =
    match Wire.recv_request ~timeout:t.cfg.read_timeout conn.fd with
    | Ok None -> () (* clean EOF: client done (or died mid-frame) *)
    | Error err ->
        (* corrupt or stalled stream: answer if the pipe still works,
           then drop the connection — the framing can't be trusted *)
        (match err with
        | Robust.Pllscope_error.Io_timeout _ ->
            Metrics.incr_io_timeout t.metrics
        | Robust.Pllscope_error.Singular _ | Non_convergence _ | Non_finite _
        | Parse _ | Worker_failure _ | Timed_out _ | Cancelled _
        | Overloaded _ | Budget_exhausted _ | Circuit_open _ ->
            Metrics.incr_request_error t.metrics);
        let (_ : bool) = send t conn (Wire.Failed err) in
        ()
    | Ok (Some req) ->
        conn.busy <- true;
        let keep = handle_request t conn req in
        conn.busy <- false;
        if keep && not (draining t) then loop ()
  in
  loop ()

let conn_main t conn =
  Fun.protect
    ~finally:(fun () ->
      locked t (fun () ->
          t.conns <- List.filter (fun c -> c != conn) t.conns;
          Condition.broadcast t.c);
      (* close under the write mutex so the ticker can never race a
         heartbeat onto a recycled descriptor number *)
      Mutex.lock conn.wm;
      conn.closed <- true;
      conn.streaming <- None;
      quiet_close conn.fd;
      Mutex.unlock conn.wm)
    (fun () ->
      match handle_conn t conn with
      | () -> ()
      | exception
          Unix.Unix_error
            ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF | Unix.ENOTCONN), _, _)
        ->
          (* peer vanished mid-conversation; nothing left to say *)
          ())

(* ------------------------------------------------------------------ *)
(* accept loop + drain                                                 *)

let accept_one t lfd =
  match Unix.accept lfd with
  | exception
      Unix.Unix_error
        ( ( Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED
          | Unix.EBADF ),
          _,
          _ ) ->
      ()
  | fd, _addr ->
      let conn =
        {
          fd;
          busy = false;
          wm = Mutex.create ();
          streaming = None;
          last_frame = now ();
          closed = false;
        }
      in
      let n = locked t (fun () -> List.length t.conns) in
      if n >= t.cfg.max_clients then begin
        (* connection-level load shedding: refuse before reading *)
        let (_ : bool) = shed t conn in
        quiet_close fd
      end
      else
        locked t (fun () ->
            t.conns <- conn :: t.conns;
            t.threads <- Thread.create (conn_main t) conn :: t.threads)

let rec accept_loop t =
  if not (should_stop t) then begin
    (match Unix.select t.listeners [] [] 0.1 with
    | ready, _, _ -> List.iter (accept_one t) ready
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    accept_loop t
  end

let drain t =
  locked t (fun () ->
      t.stopping <- true;
      Condition.broadcast t.c);
  (* nudge idle connections out of their blocking reads *)
  let conns = locked t (fun () -> t.conns) in
  List.iter
    (fun conn ->
      if not conn.busy then quiet_shutdown conn.fd Unix.SHUTDOWN_RECEIVE)
    conns;
  (* let in-flight requests finish and deliver *)
  let grace_until = now () +. t.cfg.drain_grace in
  let rec wait_empty () =
    let empty =
      locked t (fun () -> match t.conns with [] -> true | _ :: _ -> false)
    in
    if (not empty) && now () < grace_until then begin
      Thread.delay 0.02;
      wait_empty ()
    end
  in
  wait_empty ();
  (* grace over: cancel whatever is still computing and cut the wires *)
  let leftover =
    locked t (fun () ->
        List.iter
          (fun (tok, _, _) ->
            Parallel.Cancel.cancel tok (Parallel.Cancel.User "daemon shutdown"))
          t.watched;
        Condition.broadcast t.c;
        t.conns)
  in
  List.iter (fun conn -> quiet_shutdown conn.fd Unix.SHUTDOWN_ALL) leftover;
  let threads = locked t (fun () -> t.threads) in
  List.iter Thread.join threads

let serve t =
  Robust.Config.set_strict t.cfg.strict;
  let tick = Thread.create ticker t in
  accept_loop t;
  List.iter quiet_close t.listeners;
  (match t.cfg.socket_path with
  | Some path -> ( try Unix.unlink path with Unix.Unix_error (_, "unlink", _) -> ())
  | None -> ());
  drain t;
  locked t (fun () -> t.finished <- true);
  Thread.join tick;
  stats_snapshot t
