(* Client side of the analysis daemon protocol.

   [request] sends one framed request and decodes one reply;
   [with_retries] wraps connect-request-close in exponential backoff
   with deterministic jitter, honouring the server's [retry_after] hint
   on [Overloaded] and treating connection-level failures (refused,
   reset, EOF-before-reply) as retryable. Two failure bounds layer on
   top: a wall-clock retry *budget* (a permanently dead daemon fails in
   bounded time with a typed [Budget_exhausted]) and a circuit breaker
   (past [threshold] consecutive call failures, further calls fail fast
   with [Circuit_open] without touching the network until a cooldown
   elapses, then a half-open probe decides).

   [sweep_streamed] is the self-healing streamed-sweep loop: it keeps a
   cell buffer across reconnects, resumes by idempotency key from its
   contiguous prefix, verifies the reassembled bytes against the
   summary digest, and on a (should-be-impossible) digest mismatch
   wipes its buffer and restarts the stream from scratch.

   The jitter stream is splitmix64 seeded by the caller — wall-clock
   and OS randomness stay out of the retry schedule, so a test that
   fixes the seed replays the exact same backoff sequence. (The budget
   and breaker do consult the wall clock: they bound real elapsed
   time, which is the point.)

   This module also hosts the client-side fault-injection sites of the
   Robust.Inject harness (net-torn, net-drop, net-slow): each attacks
   the request *send* path the way a dying or misbehaving client
   would, which is precisely what the daemon's robustness tests need a
   controllable supply of. *)

let now () = (Unix.gettimeofday () [@lint.allow "nondeterminism"])

type addr = Unix_path of string | Tcp of string * int

type t = { fd : Unix.file_descr }

let resolve host =
  match Unix.inet_addr_of_string host with
  | a -> a
  | exception Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } ->
          failwith ("Client.resolve: no address for host " ^ host)
      | h -> h.Unix.h_addr_list.(0)
      | exception Not_found ->
          failwith ("Client.resolve: unknown host " ^ host))

let connect addr =
  let domain, sockaddr =
    match addr with
    | Unix_path p -> (Unix.PF_UNIX, Unix.ADDR_UNIX p)
    | Tcp (host, port) -> (Unix.PF_INET, Unix.ADDR_INET (resolve host, port))
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  match Unix.connect fd sockaddr with
  | () -> { fd }
  | exception e ->
      (try Unix.close fd with Unix.Unix_error (_, "close", _) -> ());
      raise e

let close t =
  try Unix.close t.fd with Unix.Unix_error (_, "close", _) -> ()

let fd t = t.fd

(* ------------------------------------------------------------------ *)
(* fault-injected send path                                            *)

let socket_err msg =
  Robust.Pllscope_error.Parse { file = "<socket>"; line = 0; col = 0; msg }

let send_request t ~stall (req : Wire.request) =
  let encoded () =
    let tag, payload = Wire.frame (Wire.Request req) in
    Runner.Journal.Frame.encode ~tag payload
  in
  let write_all = Runner.Journal.Frame.write_all t.fd in
  if Robust.Inject.fire Robust.Inject.Net_drop then begin
    (* die between connect and send: the daemon sees an immediate EOF *)
    (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error (_, "shutdown", _) -> ());
    Error (socket_err "Client.send_request: injected connection drop")
  end
  else if Robust.Inject.fire Robust.Inject.Net_torn then begin
    (* die mid-write: the daemon reads a half frame, then EOF *)
    let frame = encoded () in
    write_all (String.sub frame 0 (String.length frame / 2));
    (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error (_, "shutdown", _) -> ());
    Error (socket_err "Client.send_request: injected torn frame")
  end
  else if Robust.Inject.fire Robust.Inject.Net_slow then begin
    (* slow-loris: half the header, a stall, then the rest — if the
       stall exceeds the daemon's read timeout the reply is a typed
       Io_timeout error frame *)
    let frame = encoded () in
    write_all (String.sub frame 0 6);
    Thread.delay stall;
    write_all (String.sub frame 6 (String.length frame - 6));
    Ok ()
  end
  else Wire.send t.fd (Wire.Request req)

let request ?(timeout = 60.0) ?(stall = 0.75) t (req : Wire.request) =
  match send_request t ~stall req with
  | Error _ as e -> e
  | Ok () -> Wire.recv_reply ~timeout t.fd

(* ------------------------------------------------------------------ *)
(* retries                                                             *)

(* splitmix64, same generator Robust.Inject uses; local copy keeps the
   jitter stream independent of the injection stream. *)
let splitmix64 state =
  let open Int64 in
  let z = add state 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  (z, logxor z (shift_right_logical z 31))

let retryable (err : Robust.Pllscope_error.t) =
  match err with
  | Overloaded _ -> true
  | Parse { file = "<socket>"; _ } -> true (* connection-level failure *)
  | Io_timeout _ -> true (* reply outran its budget; server may recover *)
  | Singular _ | Non_convergence _ | Non_finite _ | Parse _
  | Worker_failure _ | Timed_out _ | Cancelled _ | Budget_exhausted _
  | Circuit_open _ ->
      false

(* ------------------------------------------------------------------ *)
(* circuit breaker                                                     *)

type breaker = {
  bm : Mutex.t;
  threshold : int;
  cooldown : float;
  mutable consecutive : int;
  mutable opened_at : float option;
}

let breaker ?(threshold = 5) ?(cooldown = 1.0) () =
  if threshold < 1 then invalid_arg "Client.breaker: threshold must be >= 1";
  if cooldown <= 0.0 then invalid_arg "Client.breaker: cooldown must be > 0";
  {
    bm = Mutex.create ();
    threshold;
    cooldown;
    consecutive = 0;
    opened_at = None;
  }

let breaker_locked b f =
  Mutex.lock b.bm;
  Fun.protect ~finally:(fun () -> Mutex.unlock b.bm) f

(* [`Proceed] also covers the half-open probe: once the cooldown has
   elapsed the next caller goes through, and its outcome re-opens or
   closes the circuit. *)
let breaker_gate b =
  breaker_locked b (fun () ->
      match b.opened_at with
      | None -> `Proceed
      | Some t0 ->
          let remaining = b.cooldown -. (now () -. t0) in
          if remaining > 0.0 then `Open remaining
          else begin
            b.opened_at <- None;
            `Proceed
          end)

let breaker_success b =
  breaker_locked b (fun () ->
      b.consecutive <- 0;
      b.opened_at <- None)

let breaker_failure b =
  breaker_locked b (fun () ->
      b.consecutive <- b.consecutive + 1;
      if b.consecutive >= b.threshold then b.opened_at <- Some (now ()))

let breaker_is_open b =
  breaker_locked b (fun () ->
      match b.opened_at with
      | None -> false
      | Some t0 -> b.cooldown -. (now () -. t0) > 0.0)

let with_retries ?(attempts = 5) ?(base_delay = 0.05) ?(max_delay = 2.0)
    ?(seed = 1) ?budget ?breaker:br ~connect f =
  if attempts < 1 then invalid_arg "Client.with_retries: attempts must be >= 1";
  (match budget with
  | Some b when b <= 0.0 ->
      invalid_arg "Client.with_retries: budget must be > 0"
  | _ -> ());
  let state = ref (Int64.of_int (if seed = 0 then 0x5eed else seed)) in
  let jitter () =
    let state', out = splitmix64 !state in
    state := state';
    Int64.to_float (Int64.shift_right_logical out 11) /. 9007199254740992.0
  in
  let backoff k (last : Robust.Pllscope_error.t) =
    let hint =
      match last with
      | Robust.Pllscope_error.Overloaded { retry_after } -> retry_after
      | Singular _ | Non_convergence _ | Non_finite _ | Parse _
      | Worker_failure _ | Timed_out _ | Cancelled _ | Io_timeout _
      | Budget_exhausted _ | Circuit_open _ ->
          0.0
    in
    let exp_ = base_delay *. (2.0 ** float_of_int (k - 1)) in
    let d = Float.min max_delay (Float.max hint exp_) in
    (* jitter in [0.5, 1.5): desynchronises retry herds without ever
       collapsing the delay to zero *)
    d *. (0.5 +. jitter ())
  in
  let started = now () in
  let rec go k last =
    if k >= attempts then Error last
    else begin
      match
        if k > 0 then begin
          let d = backoff k last in
          (* budget check *before* sleeping: a dead daemon fails within
             [budget] seconds instead of [budget + one backoff] *)
          match budget with
          | Some b when now () -. started +. d > b ->
              Some
                (Robust.Pllscope_error.Budget_exhausted
                   { budget_s = b; attempts = k })
          | _ ->
              Thread.delay d;
              None
        end
        else None
      with
      | Some exhausted -> Error exhausted
      | None -> (
          match connect () with
          | exception
              Unix.Unix_error
                (( Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.ENOENT
                 | Unix.EPIPE | Unix.ETIMEDOUT ),
                  _,
                  _ ) ->
              go (k + 1) (socket_err "Client.with_retries: connect failed")
          | conn -> (
              let outcome =
                match f conn with
                | res -> res
                | exception
                    Unix.Unix_error
                      ((Unix.EPIPE | Unix.ECONNRESET | Unix.ENOTCONN), _, _) ->
                    Error
                      (socket_err
                         "Client.with_retries: connection lost mid-call")
              in
              close conn;
              match outcome with
              | Ok _ as ok -> ok
              | Error err when retryable err -> go (k + 1) err
              | Error _ as fatal -> fatal))
    end
  in
  let finish outcome =
    (match (br, outcome) with
    | Some b, Ok _ -> breaker_success b
    | Some b, Error _ -> breaker_failure b
    | None, _ -> ());
    outcome
  in
  match br with
  | Some b -> (
      match breaker_gate b with
      | `Open remaining ->
          (* fail fast without touching the network; deliberately NOT
             counted as a breaker failure — the circuit state only
             tracks real attempts *)
          Error (Robust.Pllscope_error.Circuit_open { cooldown_s = remaining })
      | `Proceed ->
          finish (go 0 (socket_err "Client.with_retries: no attempt made")))
  | None -> go 0 (socket_err "Client.with_retries: no attempt made")

(* ------------------------------------------------------------------ *)
(* streamed sweeps                                                     *)

type stream_stats = {
  resumes : int;
  chunks : int;
  computed : int;
  replayed : int;
}

let sweep_streamed ?(timeout = 60.0) ?deadline ?attempts ?base_delay
    ?max_delay ?seed ?budget ?breaker ~connect ~spec ~ratios () =
  let n = Array.length ratios in
  let body = Wire.Sweep { spec; ratios } in
  let key = Wire.stable_key body in
  (* the cell buffer outlives individual connections: that is what a
     resume resumes from *)
  let cells : string option array = Array.make n None in
  let attempts_made = ref 0 in
  let chunks_seen = ref 0 in
  let contiguous_prefix () =
    let i = ref 0 in
    while !i < n && cells.(!i) <> None do
      incr i
    done;
    !i
  in
  let attempt conn =
    incr attempts_made;
    let req =
      {
        Wire.deadline;
        key = Some key;
        resume_from = contiguous_prefix ();
        stream = true;
        body;
      }
    in
    match send_request conn ~stall:0.75 req with
    | Error _ as e -> e
    | Ok () ->
        (* EOF mid-stream is a retryable closed-connection error:
           with_retries reconnects and resumes by key *)
        let rec consume () =
          match Wire.recv ~timeout conn.fd with
          | Error _ as e -> e
          | Ok None ->
              Error (socket_err "Wire: connection closed mid-stream")
          | Ok (Some (Wire.Failed err)) -> Error err
          | Ok (Some (Wire.Progress _)) ->
              (* heartbeat: the stream is alive, keep waiting *)
              consume ()
          | Ok (Some (Wire.Chunk c)) ->
              incr chunks_seen;
              Array.iteri
                (fun k payload ->
                  let i = c.Wire.base + k in
                  if i >= 0 && i < n then cells.(i) <- Some payload)
                c.Wire.cells;
              consume ()
          | Ok (Some (Wire.Summary s)) ->
              if Array.exists (fun c -> c = None) cells then
                Error
                  (socket_err
                     "Client.sweep_streamed: summary arrived with missing \
                      cells")
              else begin
                let all = Array.map Option.get cells in
                match Wire.assemble_sweep all with
                | Error _ as e -> e
                | Ok sres ->
                    let payload = Wire.marshal_response (Wire.R_sweep sres) in
                    if Digest.string payload <> s.Wire.digest then begin
                      (* self-heal: the buffer cannot be trusted — wipe
                         it and restart the stream from scratch (the
                         error is retryable, so with_retries loops) *)
                      Array.fill cells 0 n None;
                      Error
                        (socket_err
                           "Client.sweep_streamed: reassembly digest \
                            mismatch; restarting stream")
                    end
                    else Ok (sres, s)
              end
          | Ok (Some (Wire.Reply (Wire.R_sweep sres))) ->
              (* a daemon that answered one-shot anyway *)
              Ok
                ( sres,
                  {
                    Wire.total = n;
                    chunks = 0;
                    digest = "";
                    computed = n;
                    replayed = 0;
                  } )
          | Ok (Some (Wire.Reply _ | Wire.Request _)) ->
              Error
                (socket_err "Client.sweep_streamed: unexpected reply variant")
        in
        consume ()
  in
  match
    with_retries ?attempts ?base_delay ?max_delay ?seed ?budget ?breaker
      ~connect attempt
  with
  | Error _ as e -> e
  | Ok (sres, (s : Wire.summary)) ->
      Ok
        ( sres,
          {
            resumes = max 0 (!attempts_made - 1);
            chunks = !chunks_seen;
            computed = s.Wire.computed;
            replayed = s.Wire.replayed;
          } )
