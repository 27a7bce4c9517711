(* Request/response protocol of the analysis daemon.

   Messages ride the same CRC-32 frames and the same codec the
   checkpoint journals and the sweep farm use (Runner.Journal.Frame,
   Runner.Codec): the frame's index field carries a message tag, the
   payload is the codec bytes of a plain record — floats, options,
   lists, no closures — so both sides validate integrity identically
   and a peer that dies mid-write reads as a clean EOF, never as
   garbage.

   Tags ([frame] and [recv] are the table, one per direction):
     1  request     client -> daemon   [request]
     2  result      daemon -> client   [response]
     3  error       daemon -> client   [Pllscope_error.t]
     4  overloaded  daemon -> client   [Pllscope_error.t]
                                       (always [Overloaded _])
     5  chunk       daemon -> client   [chunk] (streamed cells)
     6  summary     daemon -> client   [summary] (stream close)
     7  progress    daemon -> client   [progress] (heartbeat)

   Shedding gets its own tag so a minimal client can recognise
   "retry later" without decoding the payload; full clients decode the
   typed error either way.

   The codec marshals with [No_sharing]: every wire value is a tree,
   and suppressing back-references makes the bytes a function of the
   *structure* alone. That is what lets a client reassemble a streamed
   sweep cell-by-cell and still produce bytes identical to the
   single-shot reply — with sharing enabled, two failures raised from
   the same site could share a physical string in the one-shot value
   and encode as a back-reference the reassembly cannot reproduce.

   Cache identity: [cache_key] digests the codec bytes of the request
   {e body} — deliberately excluding the envelope (deadline, stream
   flags, idempotency key) — so two requests for the same analysis hit
   the same cache slot regardless of how patient their callers are, and
   a cached reply is byte-identical to the cold one (the daemon caches
   the marshalled response payload, not the value).

   Idempotency identity: [stable_key] digests a *canonical text*
   fingerprint (hex of [Int64.bits_of_float] per field) instead of
   codec bytes, because request journals outlive daemon processes and
   Marshal's byte format is only guaranteed within one OCaml version.
   The fingerprint text itself is stored as the journal's header frame
   so a key collision is detected by content, not by digest. *)

type request_body =
  | Analyze of Pll_lib.Design.spec
  | Bode of { spec : Pll_lib.Design.spec; points : int }
  | Sweep of { spec : Pll_lib.Design.spec; ratios : float array }
  | Stats
  | Health

type request = {
  deadline : float option;
  key : string option;
  resume_from : int;
  stream : bool;
  body : request_body;
}

let oneshot ?deadline body =
  { deadline; key = None; resume_from = 0; stream = false; body }

type analyze_result = {
  lti : Pll_lib.Analysis.loop_report;
  eff : Pll_lib.Analysis.loop_report;
  metrics : Pll_lib.Analysis.closed_loop_metrics;
  stable : bool;
}

type bode_point = { omega : float; mag_db : float; phase_deg : float }

type bode_result = { a : bode_point array; lambda : bode_point array }

type sweep_result = {
  rows : Pll_lib.Analysis.ratio_point option array;
  failures : (int * Robust.Pllscope_error.t) list;
  total : int;
}

type server_stats = {
  served : int;
  shed : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  single_flight_waits : int;
  request_errors : int;
  io_timeouts : int;
  streams_started : int;
  streams_resumed : int;
  chunks_sent : int;
  points_computed : int;
  points_replayed : int;
  stale_keys : int;
  heartbeats : int;
  memo_hits : int;
  memo_misses : int;
  memo_evictions : int;
  active : int;
  uptime_s : float;
  robust : Robust.Stats.t;
}

type response =
  | R_analyze of analyze_result
  | R_bode of bode_result
  | R_sweep of sweep_result
  | R_stats of server_stats
  | R_healthy

type chunk = { seq : int; base : int; cells : string array }

type summary = {
  total : int;
  chunks : int;
  digest : string;
  computed : int;
  replayed : int;
}

type progress = { done_points : int; total_points : int }

type msg =
  | Request of request
  | Reply of response
  | Failed of Robust.Pllscope_error.t
  | Chunk of chunk
  | Summary of summary
  | Progress of progress

let tag_request = 1
let tag_result = 2
let tag_error = 3
let tag_overloaded = 4
let tag_chunk = 5
let tag_summary = 6
let tag_progress = 7

let parse_err msg =
  Robust.Pllscope_error.Parse { file = "<socket>"; line = 0; col = 0; msg }

let cache_key (body : request_body) = Digest.string (Runner.Codec.encode body)

let cacheable = function
  | Analyze _ | Bode _ | Sweep _ -> true
  | Stats | Health -> false

let body_name = function
  | Analyze _ -> "analyze"
  | Bode _ -> "bode"
  | Sweep _ -> "sweep"
  | Stats -> "stats"
  | Health -> "health"

(* ------------------------------------------------------------------ *)
(* idempotency keys                                                    *)

(* Hex of the raw IEEE-754 bits: total (distinguishes -0.0/0.0 and
   every NaN payload) and stable across OCaml versions, unlike Marshal
   bytes or printed decimals. *)
let hex_of_float x = Printf.sprintf "%Lx" (Int64.bits_of_float x)

let spec_fingerprint (s : Pll_lib.Design.spec) =
  String.concat ","
    (List.map hex_of_float
       [
         s.Pll_lib.Design.fref;
         s.Pll_lib.Design.n_div;
         s.Pll_lib.Design.icp;
         s.Pll_lib.Design.kvco;
         s.Pll_lib.Design.ratio;
         s.Pll_lib.Design.phase_margin_deg;
       ])

let body_fingerprint (body : request_body) =
  match body with
  | Analyze spec -> "analyze|" ^ spec_fingerprint spec
  | Bode { spec; points } ->
      Printf.sprintf "bode|%s|%d" (spec_fingerprint spec) points
  | Sweep { spec; ratios } ->
      let b = Buffer.create (64 + (17 * Array.length ratios)) in
      Buffer.add_string b "sweep|";
      Buffer.add_string b (spec_fingerprint spec);
      Array.iter
        (fun r ->
          Buffer.add_char b '|';
          Buffer.add_string b (hex_of_float r))
        ratios;
      Buffer.contents b
  | Stats -> "stats"
  | Health -> "health"

let stable_key body = Digest.to_hex (Digest.string (body_fingerprint body))

(* ------------------------------------------------------------------ *)
(* streamed sweep cells                                                *)

type cell = (Pll_lib.Analysis.ratio_point, Robust.Pllscope_error.t) result

let encode_cell : cell -> string = Runner.Codec.encode
let decode_cell s : (cell, _) result = Runner.Codec.decode ~file:"<socket>" s

(* Rebuild the exact [sweep_result] a single-shot reply would carry:
   rows by index, failures ascending (Parallel.Sweep.grid_checked
   builds its list with a downto-prepend, so ascending is the
   canonical order). *)
let assemble_sweep (cells : string array) :
    (sweep_result, Robust.Pllscope_error.t) result =
  let n = Array.length cells in
  let rows = Array.make n None in
  let failures = ref [] in
  let bad = ref None in
  for i = n - 1 downto 0 do
    match decode_cell cells.(i) with
    | Ok (Ok pt) -> rows.(i) <- Some pt
    | Ok (Error e) -> failures := (i, e) :: !failures
    | Error e -> bad := Some e
  done;
  match !bad with
  | Some e -> Error e
  | None -> Ok { rows; failures = !failures; total = n }

let marshal_response : response -> string = Runner.Codec.encode

(* ------------------------------------------------------------------ *)
(* framed sends/receives                                               *)

let frame = function
  | Request r -> (tag_request, Runner.Codec.encode r)
  | Reply r -> (tag_result, marshal_response r)
  | Failed (Robust.Pllscope_error.Overloaded _ as err) ->
      (tag_overloaded, Runner.Codec.encode err)
  | Failed err -> (tag_error, Runner.Codec.encode err)
  | Chunk c -> (tag_chunk, Runner.Codec.encode c)
  | Summary s -> (tag_summary, Runner.Codec.encode s)
  | Progress p -> (tag_progress, Runner.Codec.encode p)

let send ?timeout fd msg =
  let tag, payload = frame msg in
  Runner.Journal.Frame.write_result ?timeout fd ~tag payload

let recv ?timeout fd =
  match Runner.Journal.Frame.read_result ?timeout fd with
  | Error e -> Error e
  | Ok None -> Ok None
  | Ok (Some (tag, payload)) ->
      let decode wrap =
        Result.map
          (fun v -> Some (wrap v))
          (Runner.Codec.decode ~file:"<socket>" payload)
      in
      if tag = tag_request then decode (fun r -> Request r)
      else if tag = tag_result then decode (fun r -> Reply r)
      else if tag = tag_error || tag = tag_overloaded then
        decode (fun e -> Failed e)
      else if tag = tag_chunk then decode (fun c -> Chunk c)
      else if tag = tag_summary then decode (fun s -> Summary s)
      else if tag = tag_progress then decode (fun p -> Progress p)
      else Error (parse_err (Printf.sprintf "Wire: unexpected tag %d" tag))

let unexpected fn = Error (parse_err ("Wire." ^ fn ^ ": unexpected frame"))

(* Daemon side: [Ok None] is a clean EOF (client went away between
   requests or died mid-frame); [Error _] is corruption or a stalled
   peer, both of which the caller answers with a typed error frame. *)
let recv_request ?timeout fd =
  match recv ?timeout fd with
  | Error e -> Error e
  | Ok None -> Ok None
  | Ok (Some (Request r)) -> Ok (Some r)
  | Ok (Some _) -> unexpected "recv_request"

(* Client side: every failure mode is a typed error — a server-sent
   error frame, a dropped connection (EOF where a reply was due), a
   corrupt frame, or a reply that outran [timeout]. *)
let recv_reply ?timeout fd =
  match recv ?timeout fd with
  | Error _ as e -> e
  | Ok None -> Error (parse_err "Wire: connection closed before a reply")
  | Ok (Some (Reply r)) -> Ok r
  | Ok (Some (Failed err)) -> Error err
  | Ok (Some _) -> unexpected "recv_reply"
