(* serve_mix — the real `pllscope serve` binary in its own process
   (defaults plus a scratch --state-dir), driven by this process as a
   load generator over at most [connections] Unix-socket connections.
   Exercises lib/serve and the pll/lti/numeric analysis stages; bypasses
   lib/core (the engine never calls Plan) and lib/farm.

   Each round interleaves:
   - set-up: restart the daemon, time exec until the first Health reply;
   - recover: re-request the previous round's streamed sweeps, which the
     restarted daemon replays from its request journals;
   - streamed: a closed loop on one connection of back-to-back
     [Client.sweep_streamed] 32-ratio sweeps of fresh designs;
   - one-shot: 1000 requests of an open loop with Poisson arrivals at
     the reference rate: Analyze on fresh designs, Bode with 200 points
     and repeats of recently seen bodies (LRU hits), each request timed
     from when it was due.
   After the rounds, a ladder of open-loop rates past saturation gives
   the highest rate whose p99 stays under [latency_limit_ms] with no
   growing backlog and at most 1 % failed; a rate fails only when two
   trials in a row fail, so one host stall does not end the climb. *)

open Util
module W = Serve.Wire
module Cl = Serve.Client

let connections = 2
let reference_rps = 200.0
let latency_limit_ms = 100.0
let replay_sweeps = 8
let ladder_ratio = 1.3
let ladder_steps = 8
let sweep_ratios = Array.init 32 (fun i -> 0.02 +. (0.4 *. float_of_int i /. 31.0))

let fresh_spec rng =
  let u lo hi = lo +. Random.State.float rng (hi -. lo) in
  {
    Pll_lib.Design.default_spec with
    fref = 1e6 *. u 0.8 1.25;
    ratio = u 0.03 0.2;
    phase_margin_deg = u 45.0 65.0;
  }

(* ---------------------------------------------------------------- *)
(* daemon process                                                   *)

type daemon = { pid : int; addr : Cl.addr }

let request_once ?(timeout = 10.0) addr body =
  match Cl.connect addr with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | c ->
      Fun.protect
        ~finally:(fun () -> Cl.close c)
        (fun () ->
          match Cl.request ~timeout c (W.oneshot body) with
          | Ok r -> Ok r
          | Error e -> Error (Robust.Pllscope_error.to_string e))

(* exec the daemon; returns it with the seconds until its first Health
   reply *)
let start ~pllscope ~dir =
  let sock = Filename.concat dir "d.sock" in
  (try Sys.remove sock with Sys_error _ -> ());
  let log_fd =
    Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o600
  in
  let argv =
    [| pllscope; "serve"; "--socket"; sock; "--state-dir"; Filename.concat dir "state" |]
  in
  let t0 = now () in
  let pid = Unix.create_process pllscope argv Unix.stdin log_fd log_fd in
  Unix.close log_fd;
  let addr = Cl.Unix_path sock in
  let rec wait () =
    match request_once ~timeout:5.0 addr W.Health with
    | Ok W.R_healthy -> now () -. t0
    | Ok _ -> failwith "daemon answered Health with another reply"
    | Error e ->
        if now () -. t0 > 30.0 then begin
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          failwith ("daemon never became healthy: " ^ e)
        end;
        Unix.sleepf 0.001;
        wait ()
  in
  let dt = wait () in
  ({ pid; addr }, dt)

(* final counters and peak RSS, then a graceful drain *)
let stop d =
  let stats =
    match request_once d.addr W.Stats with Ok (W.R_stats s) -> Some s | _ -> None
  in
  let rss = peak_rss_mb (string_of_int d.pid) in
  Unix.kill d.pid Sys.sigterm;
  ignore (Unix.waitpid [] d.pid);
  (stats, rss)

(* ---------------------------------------------------------------- *)
(* open loop                                                        *)

type shot = {
  body : W.request_body;
  repeat : bool;
  mutable lat : float;  (** completion minus due time *)
  mutable late : float;  (** send minus max(due, connection free) *)
  mutable ok : bool;
  mutable reply : W.response option;
  mutable finished : float;
}

(* bodies: Analyze on fresh designs, Bode 200 points, and repeats of
   the last 32 fresh bodies *)
let body_stream rng =
  let recent = Array.make 32 None and k = ref 0 in
  fun () ->
    let r = Random.State.float rng 1.0 in
    let repeat = if r >= 0.75 then recent.(Random.State.int rng 32) else None in
    match repeat with
    | Some b -> (b, true)
    | None ->
        let spec = fresh_spec rng in
        let b = if r < 0.5 || r >= 0.75 then W.Analyze spec else W.Bode { spec; points = 200 } in
        recent.(!k mod 32) <- Some b;
        incr k;
        (b, false)

(* Run the schedule over [connections] sender threads. Requests are due
   on the schedule whether or not a connection is free; a request that
   waits for one is late by the system, not by the generator. *)
let open_loop ~addr ~due ~next_body ~keep =
  let n = Array.length due in
  let shots =
    Array.init n (fun _ ->
        let body, repeat = next_body () in
        { body; repeat; lat = Float.nan; late = 0.0; ok = false; reply = None; finished = 0.0 })
  in
  let parent = Trace.current () in
  let next = Atomic.make 0 in
  let t0 = now () +. 0.01 in
  let sender () =
    let conn = ref None in
    let drop () = Option.iter Cl.close !conn; conn := None in
    let free_at = ref t0 in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let sh = shots.(i) in
        let d = t0 +. due.(i) in
        let wait = d -. now () in
        if wait > 0.0 then Thread.delay wait;
        let sent = now () in
        sh.late <- sent -. Float.max d !free_at;
        let r =
          Trace.with_span ~parent ~req:i ~layer:"serve" ("oneshot." ^ W.body_name sh.body)
            (fun () ->
              match
                match !conn with
                | Some c -> c
                | None ->
                    let c = Cl.connect addr in
                    conn := Some c;
                    c
              with
              | exception Unix.Unix_error _ -> None
              | c -> ( match Cl.request ~timeout:10.0 c (W.oneshot sh.body) with
                  | Ok r -> Some r
                  | Error _ -> None))
        in
        let fin = now () in
        free_at := fin;
        sh.lat <- fin -. d;
        sh.finished <- fin;
        (match r with
        | Some resp ->
            sh.ok <- true;
            if keep i then sh.reply <- Some resp
        | None -> drop ());
        loop ()
      end
    in
    Fun.protect ~finally:drop loop
  in
  let threads = List.init connections (fun _ -> Thread.create sender ()) in
  List.iter Thread.join threads;
  (t0, shots)

(* ---------------------------------------------------------------- *)
(* streamed sweeps                                                  *)

let sweep ~addr spec =
  Trace.with_span ~layer:"serve" "sweep_streamed" (fun () ->
      Cl.sweep_streamed ~connect:(fun () -> Cl.connect addr) ~spec ~ratios:sweep_ratios ())

(* ---------------------------------------------------------------- *)

let local_reply body =
  let cancel = Parallel.Cancel.create () in
  match body with
  | W.Analyze spec -> W.R_analyze (Serve.Engine.analyze ~cancel spec)
  | W.Bode { spec; points } -> W.R_bode (Serve.Engine.bode ~cancel spec ~points)
  | W.Sweep { spec; ratios } -> W.R_sweep (Serve.Engine.sweep ~cancel spec ratios)
  | W.Stats | W.Health -> invalid_arg "local_reply: not a compute body"

let run ~pllscope ~seed ~seconds ~traced =
  let dir = scratch "serve" in
  mkdir_p dir;
  let rng = Random.State.make [| 0x5e7e; seed |] in
  let next_body = body_stream rng in
  (* per-round samples; round 1 of set-up, recover and streamed is a
     warm-up and not recorded *)
  let setup = ref [] and recover = ref [] and stream_rates = ref [] in
  let ref_shots = ref [] and lat_rounds = ref [] and checked = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let counters = ref [] and rss = ref 0.0 in
  let previous = ref [] and sweeps = ref 0 and checked_sweeps = ref [] in
  let daemon = ref None in
  let stop_current () =
    Option.iter
      (fun d ->
        let s, r = stop d in
        Option.iter (fun s -> counters := s :: !counters) s;
        rss := Float.max !rss r)
      !daemon;
    daemon := None
  in
  let restart () =
    stop_current ();
    let d, dt = start ~pllscope ~dir in
    daemon := Some d;
    setup := dt :: !setup;
    d.addr
  in
  (* back-to-back streamed sweeps; returns the specs and the cells per
     second of each sweep *)
  let streamed ~addr ~duration =
    let t_stop = now () +. duration and specs = ref [] and rates = ref [] in
    while now () < t_stop do
      let spec = fresh_spec rng in
      incr attempted;
      incr sweeps;
      let dt, r = time (fun () -> sweep ~addr spec) in
      (match r with
      | Ok (res, _) ->
          rates := (float_of_int (Array.length sweep_ratios) /. dt) :: !rates;
          failed := !failed + List.length res.W.failures;
          if !sweeps mod 8 = 1 then checked_sweeps := (spec, res) :: !checked_sweeps
      | Error _ -> incr failed);
      specs := spec :: !specs
    done;
    (!specs, !rates)
  in
  let oneshot_n = 1000 in
  let stream_s = Float.min 1.5 (0.05 *. seconds) in
  let max_rate =
    Fun.protect ~finally:stop_current (fun () ->
        let addr = restart () in
        previous := fst (streamed ~addr ~duration:stream_s);
        let round = ref 0 in
        let record r x = if !round > 1 then r := x :: !r in
        let t_end = now () +. (seconds *. 0.55) in
        while !round < 3 || now () < t_end do
          incr round;
          Trace.with_span ~layer:"bench" "serve.round" (fun () ->
              let addr = restart () in
              (* recover: the restarted daemon replays journaled sweeps;
                 each replay is one sample *)
              List.iter
                (fun spec ->
                  incr attempted;
                  let dt, r = time (fun () -> sweep ~addr spec) in
                  match r with
                  | Ok (_, st) ->
                      record recover dt;
                      Check.that (st.Cl.computed = 0)
                        (Printf.sprintf "replay recomputed %d cells" st.Cl.computed)
                  | Error _ -> incr failed)
                (List.filteri (fun i _ -> i < replay_sweeps) !previous);
              (* streamed before one-shot, so the one-shot phase meets a
                 daemon whose lazy set-up is done *)
              let specs, rates = streamed ~addr ~duration:stream_s in
              List.iter (record stream_rates) rates;
              previous := specs;
              (* one-shot at the reference rate *)
              let due =
                Sched.poisson ~seed:((seed * 1000) + !round) ~rate:reference_rps ~n:oneshot_n
              in
              let _, shots =
                Trace.with_span ~layer:"bench" "oneshot phase" (fun () ->
                    open_loop ~addr ~due ~next_body ~keep:(fun i -> i mod 40 = 7))
              in
              Array.iter
                (fun sh ->
                  incr attempted;
                  if not sh.ok then incr failed;
                  match sh.reply with Some r -> checked := (sh, r) :: !checked | None -> ())
                shots;
              lat_rounds := latency_round (Array.to_list (Array.map (fun sh -> sh.lat *. 1e3) shots)) :: !lat_rounds;
              ref_shots := Array.to_list shots @ !ref_shots)
        done;
        (* ladder of open-loop rates past saturation *)
        let addr = match !daemon with Some d -> d.addr | None -> assert false in
        let step_s = Float.min 1.0 (Float.max 0.3 (0.035 *. seconds)) in
        let step = ref 0 in
        let trial rate =
          incr step;
          let n = max 20 (int_of_float (rate *. step_s)) in
          let due = Sched.poisson ~seed:((seed * 1000) + 500 + !step) ~rate ~n in
          let t0, shots =
            Trace.with_span ~layer:"bench" "ladder step" (fun () ->
                open_loop ~addr ~due ~next_body ~keep:(fun _ -> false))
          in
          let bad = Array.fold_left (fun a sh -> if sh.ok then a else a + 1) 0 shots in
          attempted := !attempted + n;
          failed := !failed + bad;
          let p99 = Stat.quantile (Array.to_list (Array.map (fun sh -> sh.lat *. 1e3) shots)) 0.99 in
          (* backlog: how long after the last due time the queue drained *)
          let lag_ms =
            (Array.fold_left (fun a sh -> Float.max a sh.finished) 0.0 shots -. (t0 +. due.(n - 1)))
            *. 1e3
          in
          let pass =
            p99 < latency_limit_ms && lag_ms < latency_limit_ms
            && float_of_int bad <= 0.01 *. float_of_int n
          in
          note "serve ladder: %.0f req/s  p99 %.2f ms  lag %.2f ms  failed %d/%d  %s" rate p99
            lag_ms bad n
            (if pass then "pass" else "FAIL");
          pass
        in
        (* a host stall fails one trial; saturation fails every trial *)
        let passes rate = trial rate || trial rate in
        (* climb by [ladder_ratio] until a rate fails, then halve the
           last gap twice on a log scale *)
        let rec climb k rate =
          if k >= ladder_steps then (rate /. ladder_ratio, None)
          else if passes rate then climb (k + 1) (rate *. ladder_ratio)
          else (rate /. ladder_ratio, Some rate)
        in
        match climb 0 (2.0 *. reference_rps) with
        | lo, None -> lo
        | lo, Some hi ->
            fst
              (List.fold_left
                 (fun (lo, hi) () ->
                   let mid = sqrt (lo *. hi) in
                   if passes mid then (mid, hi) else (lo, mid))
                 (lo, hi) [ (); () ]))
  in
  (* output checks: sampled replies against a local engine compute *)
  let engine = Hashtbl.create 3 and codec = ref [] and bytes = ref [] in
  List.iter
    (fun (sh, r) ->
      let got = W.marshal_response r in
      let dt, local = time (fun () -> Trace.with_span ~layer:"serve" "Engine (local)" (fun () -> local_reply sh.body)) in
      let name = W.body_name sh.body in
      if not sh.repeat then
        Hashtbl.replace engine name (dt :: Option.value ~default:[] (Hashtbl.find_opt engine name));
      Check.that (String.equal got (W.marshal_response local))
        (Printf.sprintf "%s reply differs from the local engine" name);
      let cdt, () =
        time (fun () ->
            let s = W.marshal_response r in
            let (_ : W.response) = Marshal.from_string s 0 in
            ())
      in
      codec := cdt :: !codec;
      bytes := float_of_int (String.length got) :: !bytes)
    !checked;
  List.iter
    (fun (spec, res) ->
      let dt, local =
        time (fun () ->
            Trace.with_span ~layer:"serve" "Engine.sweep (local)" (fun () ->
                local_reply (W.Sweep { spec; ratios = sweep_ratios })))
      in
      Hashtbl.replace engine "sweep" (dt :: Option.value ~default:[] (Hashtbl.find_opt engine "sweep"));
      Check.that
        (String.equal (W.marshal_response (W.R_sweep res)) (W.marshal_response local))
        "streamed sweep differs from the local engine")
    !checked_sweeps;
  let n_lat = List.length !ref_shots in
  let p50, p99, _ = Stat.round_summary !lat_rounds in
  let layer =
    if not traced then []
    else begin
      let sum f = float_of_int (List.fold_left (fun a s -> a + f s) 0 !counters) in
      let ratio a b = if b > 0.0 then a /. b else 0.0 in
      let engine_ms name =
        Stat.median (Option.value ~default:[] (Hashtbl.find_opt engine name)) *. 1e3
      in
      (* engine time of the measured one-shot mix: repeats are cache
         replays and cost the engine nothing *)
      let mix_engine_ms =
        Stat.median
          (List.map
             (fun (sh, _) ->
               if sh.repeat then 0.0
               else engine_ms (W.body_name sh.body))
             !checked)
      in
      let codec_us = Stat.median !codec *. 1e6 in
      (* analysis stages and λ on this workload's designs *)
      let specs = List.init 8 (fun _ -> fresh_spec rng) in
      let stage name f =
        Stat.median
          (List.map
             (fun spec ->
               let p = Pll_lib.Design.synthesize spec in
               fst (time (fun () -> Trace.with_span ~layer:"pll" name (fun () -> ignore (f p)))))
             specs)
        *. 1e3
      in
      let synth_us =
        Stat.median
          (List.map
             (fun spec ->
               fst
                 (time (fun () ->
                      for _ = 1 to 100 do
                        ignore (Pll_lib.Design.synthesize spec)
                      done)))
             specs)
        /. 100.0 *. 1e6
      in
      let lambda_ns =
        let p = Pll_lib.Design.synthesize (List.hd specs) in
        let lam = Pll_lib.Pll.lambda_fn p Pll_lib.Pll.Exact in
        let w0 = Pll_lib.Pll.omega0 p in
        let s = Numeric.Cx.jomega (0.3 *. w0) in
        Stat.median
          (List.init 5 (fun _ ->
               fst
                 (time (fun () ->
                      Trace.with_span ~layer:"numeric" "lambda exact x10000" (fun () ->
                          for _ = 1 to 10_000 do
                            ignore (lam s)
                          done)))))
        /. 10_000.0 *. 1e9
      in
      [
        ("numeric.lambda_exact_ns", lambda_ns);
        ("pll.synthesize_us", synth_us);
        ("pll.stage_ms.lti", stage "Analysis.lti_report" Pll_lib.Analysis.lti_report);
        ("pll.stage_ms.eff", stage "Analysis.effective_report" (fun p -> Pll_lib.Analysis.effective_report p));
        ("pll.stage_ms.metrics", stage "Analysis.closed_loop_metrics" (fun p -> Pll_lib.Analysis.closed_loop_metrics p));
        ("pll.stage_ms.stable", stage "Analysis.is_stable_tv" Pll_lib.Analysis.is_stable_tv);
        ("serve.engine_ms.analyze", engine_ms "analyze");
        ("serve.engine_ms.bode", engine_ms "bode");
        ("serve.engine_ms.sweep", engine_ms "sweep");
        ("serve.codec_us", codec_us);
        ("serve.reply_bytes", Stat.median !bytes);
        ("serve.residual_ms", p50 -. mix_engine_ms -. (codec_us /. 1e3));
        ( "serve.cache_hit_ratio",
          ratio (sum (fun s -> s.W.cache_hits)) (sum (fun s -> s.W.cache_hits + s.W.cache_misses)) );
        ( "serve.memo_hit_ratio",
          ratio (sum (fun s -> s.W.memo_hits)) (sum (fun s -> s.W.memo_hits + s.W.memo_misses)) );
        ("serve.single_flight_waits", sum (fun s -> s.W.single_flight_waits));
        ("serve.shed", sum (fun s -> s.W.shed));
        ("serve.points_computed", sum (fun s -> s.W.points_computed));
        ("serve.points_replayed", sum (fun s -> s.W.points_replayed));
        ( "serve.chunks_per_sweep",
          ratio (sum (fun s -> s.W.chunks_sent)) (sum (fun s -> s.W.streams_started)) );
        ( "serve.gen_late_p99_ms",
          Stat.quantile (List.map (fun sh -> sh.late *. 1e3) !ref_shots) 0.99 );
      ]
    end
  in
  rm_rf dir;
  {
    e2e =
      [
        ("setup_s", Stat.median !setup);
        ("points_per_s", Stat.median !stream_rates);
        ("latency_p50_ms", p50);
        ("latency_p99_ms", p99);
        ("max_rate_rps", max_rate);
        ("recover_s", Stat.median !recover);
        ("peak_rss_mb", !rss);
      ];
    layer;
    attempted = !attempted;
    failed = !failed;
    check_failures = Check.take ();
    info =
      [
        ("connections", Json.int connections);
        ("reference_rps", Json.num reference_rps);
        ("latency_limit_ms", Json.num latency_limit_ms);
        ("latency_samples", Json.int n_lat);
        ("latency_rounds", Json.int (List.length !lat_rounds));
      ];
  }
