(* pllscope — command-line front end for the HTM-based PLL analyzer.

   Subcommands:
     analyze      LTI vs time-varying loop reports for one design
     bode         open-loop A(jw) and effective lambda(jw) sweeps
     sweep        Fig. 7 ratio sweep (optionally sharded: --shards N)
     mc           Monte Carlo component-tolerance study (farm showcase)
     fig          regenerate a paper figure or extension experiment
     sim          behavioral time-marching run (lock acquisition)
     measure      simulator measurement of |H00| at one rational frequency
     farm         sweep-farm utilities (status of a sharded checkpoint)
     journal      checkpoint-journal utilities (inspect, compact)
     farm-worker  internal: farm worker protocol on stdin/stdout *)

open Cmdliner

let spec_term =
  let fref =
    let doc = "Reference frequency in Hz." in
    Arg.(value & opt float Pll_lib.Design.default_spec.Pll_lib.Design.fref
         & info [ "fref" ] ~docv:"HZ" ~doc)
  in
  let n_div =
    let doc = "Feedback division ratio." in
    Arg.(value & opt float Pll_lib.Design.default_spec.Pll_lib.Design.n_div
         & info [ "n" ] ~docv:"N" ~doc)
  in
  let icp =
    let doc = "Charge-pump current in A." in
    Arg.(value & opt float Pll_lib.Design.default_spec.Pll_lib.Design.icp
         & info [ "icp" ] ~docv:"A" ~doc)
  in
  let kvco =
    let doc = "VCO gain in Hz/V." in
    Arg.(value & opt float Pll_lib.Design.default_spec.Pll_lib.Design.kvco
         & info [ "kvco" ] ~docv:"HZ_PER_V" ~doc)
  in
  let ratio =
    let doc = "Target unity-gain-to-reference ratio w_UG/w0." in
    Arg.(value & opt float 0.1 & info [ "ratio" ] ~docv:"R" ~doc)
  in
  let pm =
    let doc = "Target LTI phase margin in degrees." in
    Arg.(value & opt float 55.0 & info [ "pm" ] ~docv:"DEG" ~doc)
  in
  let build fref n_div icp kvco ratio pm =
    { Pll_lib.Design.fref; n_div; icp; kvco; ratio; phase_margin_deg = pm }
  in
  Term.(const build $ fref $ n_div $ icp $ kvco $ ratio $ pm)

let pp = Format.std_formatter

(* Every command's info: --help lists the exit codes the CLI uses, with
   usage errors at 2 (see the end of this file), apart from --deadline's. *)
let cmd_info =
  let exits =
    Cmd.Exit.
      [
        info ok ~doc:"on success.";
        info 1 ~doc:"on a typed error or an invalid option value.";
        info 2 ~doc:"on command line usage errors.";
        info 124 ~doc:"when $(b,--deadline) expires.";
        info internal_error ~doc:"on an unexpected internal error.";
        info 130 ~doc:"when a signal cancels the run (143: a forced SIGTERM).";
      ]
  in
  fun ?version name ~doc -> Cmd.info ?version name ~doc ~exits

(* Robustness plumbing shared by every subcommand: --strict turns
   guarded fallbacks into hard failures, the per-run counters and the
   global cancellation token are reset at subcommand start (back-to-back
   runs in one process must not leak state), and any degradation events
   that did happen are summarized after the run. A run cancelled by a
   signal or a --deadline exits with a distinct code (130 / 124). *)
let strict_term =
  let doc =
    "Fail fast when a numerical guard fires instead of degrading to the \
     dense reference evaluator."
  in
  Arg.(value & flag & info [ "strict" ] ~doc)

let deadline_term =
  let doc =
    "Cancel the run after $(docv) seconds of wall-clock time. In-flight \
     sweep chunks drain cleanly (checkpoints stay consistent) and the \
     exit code is 124."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECS" ~doc)

(* The grid-driver options `sweep` and `mc` share. *)
type grid_opts = {
  checkpoint : string option;
  resume : bool;
  task_timeout : float option;
  shards : int;
  steal : bool;
}

let grid_term =
  let checkpoint =
    let doc =
      "Append each computed point to a crash-safe journal at $(docv) (with \
       --shards, the merged base journal; shard K journals at \
       $(docv).shardK); an interrupted run can be completed with --resume."
    in
    Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"PATH" ~doc)
  in
  let resume =
    let doc =
      "Replay the --checkpoint journal(s) and recompute only the missing \
       points. The completed run is bit-identical to an uninterrupted one."
    in
    Arg.(value & flag & info [ "resume" ] ~doc)
  in
  let task_timeout =
    let doc =
      "Per-point watchdog timeout in seconds; an overrunning point becomes \
       a typed timed-out failure instead of hanging the run."
    in
    Arg.(value & opt (some float) None & info [ "task-timeout" ] ~docv:"SECS" ~doc)
  in
  let shards =
    let doc =
      "Run as a farm of $(docv) worker subprocesses with per-shard \
       checkpoint journals merged deterministically at the end (0 = run in \
       this process). Sharded-and-merged results are bit-identical to an \
       in-process run at any shard count."
    in
    Arg.(value & opt int 0 & info [ "shards" ] ~docv:"N" ~doc)
  in
  let no_steal =
    let doc =
      "Disable work stealing between farm shards; a shard that finishes \
       early goes idle instead of taking ranges from slower shards."
    in
    Arg.(value & flag & info [ "no-steal" ] ~doc)
  in
  let build checkpoint resume task_timeout shards no_steal =
    { checkpoint; resume; task_timeout; shards; steal = not no_steal }
  in
  Term.(const build $ checkpoint $ resume $ task_timeout $ shards $ no_steal)

(* Run a workload's grid: on the farm with --shards > 0, else in this
   process through Run.grid. Both record the digest of the workload's
   blob in their journals, and a resume refuses a journal that records
   another. Without --checkpoint the farm's base journal lives in a
   temp path and is removed afterwards (the run is then neither
   resumable nor resumed). *)
let run_workload (type a) g (w : a Workloads.t) : a Parallel.Sweep.partial =
  if g.resume && g.checkpoint = None then begin
    Format.fprintf pp "error: --resume requires --checkpoint@.";
    exit 1
  end;
  if g.shards < 0 then begin
    Format.fprintf pp "error: --shards must be >= 0@.";
    exit 1
  end;
  let n = Workloads.size w in
  let blob = Workloads.to_blob w in
  if g.shards = 0 then
    Runner.Run.grid ?task_timeout:g.task_timeout
      ?checkpoint:
        (Option.map (fun path -> (path, Digest.string blob)) g.checkpoint)
      ~resume:g.resume (Workloads.point w) (Array.init n Fun.id)
  else begin
    let base =
      match g.checkpoint with
      | Some p -> p
      | None -> Filename.temp_file "pllscope_farm" ".journal"
    in
    let cfg =
      {
        Farm.Coordinator.shards = g.shards;
        steal = g.steal;
        resume = g.resume;
        checkpoint = base;
        blob;
        worker_argv = (fun _ -> [| Sys.executable_name; "farm-worker" |]);
        slice = None;
        chunk = None;
        retries = None;
        task_timeout = g.task_timeout;
        progress = true;
      }
    in
    let r = Farm.Coordinator.run cfg ~n in
    if g.checkpoint = None then (try Sys.remove base with Sys_error _ -> ());
    {
      Parallel.Sweep.values =
        Array.map
          (Option.map (Runner.Codec.decode_exn ~file:base))
          r.Farm.Coordinator.payloads;
      failures = r.Farm.Coordinator.failures;
      total = r.Farm.Coordinator.total;
    }
  end

let with_robust ?deadline strict f =
  Robust.Config.set_strict strict;
  Robust.Stats.reset ();
  Parallel.Cancel.reset_global ();
  let body () =
    match deadline with
    | Some s -> Parallel.Cancel.with_deadline ~seconds:s f
    | None -> f ()
  in
  (match
     Runner.Shutdown.run_quiet_epipe (fun () ->
         match body () with
         | () -> ()
         | exception Robust.Pllscope_error.Error e ->
             Format.fprintf pp "error: %s@." (Robust.Pllscope_error.to_string e);
             exit 1
         | exception Parallel.Cancel.Cancelled r ->
             Format.fprintf pp "cancelled: %s@."
               (Parallel.Cancel.reason_to_string r);
             exit (Runner.Shutdown.exit_code_of_reason r))
   with
  | Some code -> exit code (* downstream closed the pipe: quiet success *)
  | None -> ());
  let s = Robust.Stats.snapshot () in
  if Robust.Stats.total s > 0 then Format.fprintf pp "%a@." Robust.Stats.pp s;
  (* checked sweeps report cancellation as a typed partial instead of
     raising; the exit code must still be the distinct one *)
  match Parallel.Cancel.get (Parallel.Cancel.global ()) with
  | Some r -> exit (Runner.Shutdown.exit_code_of_reason r)
  | None -> ()

let print_loop_reports lti eff =
  Format.fprintf pp "LTI  open loop A(jw):      %a@."
    Pll_lib.Analysis.pp_loop_report lti;
  Format.fprintf pp "TV   open loop lambda(jw): %a@."
    Pll_lib.Analysis.pp_loop_report eff

let analyze_cmd =
  let run spec strict =
   with_robust strict @@ fun () ->
    let p = Pll_lib.Design.synthesize spec in
    Experiments.Report.section pp "design";
    Experiments.Report.kv pp "reference" "%g Hz, /%g, Icp=%g A, Kvco=%g Hz/V"
      spec.Pll_lib.Design.fref spec.Pll_lib.Design.n_div
      spec.Pll_lib.Design.icp spec.Pll_lib.Design.kvco;
    Format.fprintf pp "%a@." Pll_lib.Loop_filter.pp p.Pll_lib.Pll.filter;
    let lti = Pll_lib.Analysis.lti_report p in
    let eff = Pll_lib.Analysis.effective_report p in
    let m = Pll_lib.Analysis.closed_loop_metrics p in
    print_loop_reports lti eff;
    Experiments.Report.kv pp "closed-loop peaking" "%.2f dB at %g rad/s"
      m.Pll_lib.Analysis.peak_db m.Pll_lib.Analysis.peak_freq;
    (match m.Pll_lib.Analysis.bandwidth_3db with
    | Some bw -> Experiments.Report.kv pp "closed-loop -3dB bandwidth" "%g rad/s" bw
    | None -> ());
    Experiments.Report.kv pp "time-varying stable" "%s"
      (if Pll_lib.Analysis.is_stable_tv p then "yes" else "NO (discrete model has poles outside the unit circle)")
  in
  let doc = "LTI vs time-varying analysis of one loop design" in
  Cmd.v (cmd_info "analyze" ~doc) Term.(const run $ spec_term $ strict_term)

let bode_cmd =
  let points =
    Arg.(value & opt int 25 & info [ "points" ] ~docv:"N" ~doc:"Sweep points.")
  in
  let run spec points strict =
    with_robust strict @@ fun () ->
    let p = Pll_lib.Design.synthesize spec in
    let w0 = Pll_lib.Pll.omega0 p in
    let w_ug = Pll_lib.Design.omega_ug spec in
    let a = Lti.Tf.freq_response (Pll_lib.Pll.open_loop_tf p) in
    let lam_fn = Pll_lib.Pll.lambda_fn p Pll_lib.Pll.Exact in
    let lam w = lam_fn (Numeric.Cx.jomega w) in
    let sweep = Lti.Bode.sweep a ~lo:(w_ug /. 50.0) ~hi:(w0 *. 0.49) ~points in
    let lam_sweep = Lti.Bode.sweep lam ~lo:(w_ug /. 50.0) ~hi:(w0 *. 0.49) ~points in
    Experiments.Report.table pp ~title:"open-loop responses"
      ~header:[ "w/w0"; "|A| dB"; "arg A"; "|lambda| dB"; "arg lambda" ]
      (List.map2
         (fun pa pl ->
           [
             Experiments.Report.g (pa.Lti.Bode.omega /. w0);
             Experiments.Report.f3 pa.Lti.Bode.mag_db;
             Experiments.Report.f3 pa.Lti.Bode.phase_deg;
             Experiments.Report.f3 pl.Lti.Bode.mag_db;
             Experiments.Report.f3 pl.Lti.Bode.phase_deg;
           ])
         (Array.to_list sweep) (Array.to_list lam_sweep))
  in
  let doc = "Bode sweeps of A(jw) and lambda(jw)" in
  Cmd.v (cmd_info "bode" ~doc) Term.(const run $ spec_term $ points $ strict_term)

(* --points N of a ratio sweep: N ratios linearly spaced over
   [0.02, 0.5], or the 12 paper ratios *)
let ratio_grid = function
  | None -> Array.of_list Experiments.Exp_fig7.default_ratios
  | Some n when n >= 2 ->
      Array.init n (fun i ->
          0.02 +. ((0.5 -. 0.02) *. float_of_int i /. float_of_int (n - 1)))
  | Some _ ->
      Format.fprintf pp "error: --points must be >= 2@.";
      exit 1

let sweep_cmd =
  let points =
    let doc =
      "Number of ratio points, linearly spaced over [0.02, 0.5] (default: \
       the 12 paper ratios)."
    in
    Arg.(value & opt (some int) None & info [ "points" ] ~docv:"N" ~doc)
  in
  let run spec points g deadline strict =
    with_robust ?deadline strict @@ fun () ->
    let ratios = ratio_grid points in
    let partial = run_workload g (Workloads.Ratio { spec; ratios }) in
    let rows =
      Array.to_list partial.Parallel.Sweep.values |> List.filter_map Fun.id
    in
    Experiments.Exp_fig7.print pp rows;
    if partial.Parallel.Sweep.failures <> [] then
      Format.fprintf pp "%a@." Parallel.Sweep.pp_partial partial
  in
  let doc =
    "Ratio sweep (Fig. 7 quantities), checkpointable, resumable and \
     shardable across worker processes"
  in
  Cmd.v (cmd_info "sweep" ~doc)
    Term.(
      const run $ spec_term $ points $ grid_term $ deadline_term $ strict_term)

let mc_cmd =
  let points =
    let doc = "Number of Monte Carlo points." in
    Arg.(value & opt int 10_000 & info [ "points" ] ~docv:"N" ~doc)
  in
  let seed =
    let doc = "Base seed; point $(i)'s draws depend only on (seed, i)." in
    Arg.(value & opt int Experiments.Exp_nonideal.default_mc.mc_seed
         & info [ "seed" ] ~docv:"S" ~doc)
  in
  let run spec points seed g deadline strict =
    if points < 1 then begin
      Format.fprintf pp "error: --points must be >= 1@.";
      exit 1
    end;
    with_robust ?deadline strict @@ fun () ->
    let cfg = { Experiments.Exp_nonideal.default_mc with mc_seed = seed } in
    let partial = run_workload g (Workloads.Mc { spec; cfg; points }) in
    let env = Experiments.Exp_nonideal.mc_env ~spec cfg in
    let summary =
      Experiments.Exp_nonideal.mc_summarize env partial.Parallel.Sweep.values
    in
    Experiments.Exp_nonideal.mc_print pp summary;
    if partial.Parallel.Sweep.failures <> [] then
      Format.fprintf pp "%a@." Parallel.Sweep.pp_partial partial
  in
  let doc =
    "Monte Carlo component-tolerance study of the charge-pump loop \
     (first-order signatures over process spread); the sweep-farm \
     showcase workload"
  in
  Cmd.v (cmd_info "mc" ~doc)
    Term.(
      const run $ spec_term $ points $ seed $ grid_term $ deadline_term
      $ strict_term)

let journal_path_arg =
  let doc = "Checkpoint journal file." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PATH" ~doc)

let print_journal_info path =
  let i = Runner.Journal.inspect path in
  Experiments.Report.kv pp "journal" "%s" path;
  Experiments.Report.kv pp "frames" "%d (%d distinct, %d duplicate)"
    i.Runner.Journal.frames i.Runner.Journal.distinct
    i.Runner.Journal.duplicates;
  Experiments.Report.kv pp "bytes" "%d (%d valid, %d torn)"
    i.Runner.Journal.bytes i.Runner.Journal.valid_bytes
    i.Runner.Journal.torn_bytes;
  match i.Runner.Journal.max_index with
  | Some m -> Experiments.Report.kv pp "max index" "%d" m
  | None -> ()

let print_journal_json path =
  let i = Runner.Journal.inspect path in
  Format.fprintf pp
    "{\"path\": %S, \"frames\": %d, \"distinct\": %d, \"duplicates\": %d, \
     \"bytes\": %d, \"valid_bytes\": %d, \"torn_bytes\": %d, \"max_index\": %s}@."
    path i.Runner.Journal.frames i.Runner.Journal.distinct
    i.Runner.Journal.duplicates i.Runner.Journal.bytes
    i.Runner.Journal.valid_bytes i.Runner.Journal.torn_bytes
    (match i.Runner.Journal.max_index with
    | Some m -> string_of_int m
    | None -> "null")

let journal_cmd =
  let inspect =
    let json =
      let doc = "Emit the inspection as one JSON object (machine-readable)." in
      Arg.(value & flag & info [ "json" ] ~doc)
    in
    let run path json =
      if not (Sys.file_exists path) then begin
        Format.fprintf pp "error: no journal at %s@." path;
        exit 1
      end;
      with_robust false @@ fun () ->
      if json then print_journal_json path else print_journal_info path
    in
    let doc = "Frame counts, CRC status and torn-tail size of a journal" in
    Cmd.v (cmd_info "inspect" ~doc) Term.(const run $ journal_path_arg $ json)
  in
  let compact =
    let run path =
      if not (Sys.file_exists path) then begin
        Format.fprintf pp "error: no journal at %s@." path;
        exit 1
      end;
      with_robust false @@ fun () ->
      let kept, dropped = Runner.Journal.compact path in
      Experiments.Report.kv pp "compacted" "%s: kept %d frame(s), dropped %d"
        path kept dropped
    in
    let doc =
      "Atomically rewrite a journal keeping only the first frame per point \
       (drops superseded duplicates and any torn tail); bounds the replay \
       cost of long-lived resumed journals"
    in
    Cmd.v (cmd_info "compact" ~doc) Term.(const run $ journal_path_arg)
  in
  let doc = "Checkpoint-journal utilities" in
  Cmd.group (cmd_info "journal" ~doc) [ inspect; compact ]

let farm_cmd =
  let status =
    let checkpoint =
      let doc = "Base journal path of the (running or interrupted) farm." in
      Arg.(required & opt (some string) None
           & info [ "checkpoint" ] ~docv:"PATH" ~doc)
    in
    let run checkpoint =
      with_robust false @@ fun () ->
      let paths =
        (if Sys.file_exists checkpoint then [ checkpoint ] else [])
        @ Farm.Coordinator.existing_shards checkpoint
      in
      if paths = [] then
        Format.fprintf pp "no journals at %s@." checkpoint
      else
        Experiments.Report.table pp ~title:"farm journals"
          ~header:[ "journal"; "frames"; "distinct"; "dup"; "torn B"; "max idx" ]
          (List.map
             (fun path ->
               let i = Runner.Journal.inspect path in
               [
                 Filename.basename path;
                 string_of_int i.Runner.Journal.frames;
                 string_of_int i.Runner.Journal.distinct;
                 string_of_int i.Runner.Journal.duplicates;
                 string_of_int i.Runner.Journal.torn_bytes;
                 (match i.Runner.Journal.max_index with
                 | Some m -> string_of_int m
                 | None -> "-");
               ])
             paths)
    in
    let doc = "Show base and per-shard journal state of a sharded sweep" in
    Cmd.v (cmd_info "status" ~doc) Term.(const run $ checkpoint)
  in
  let doc = "Sweep-farm utilities" in
  Cmd.group (cmd_info "farm" ~doc) [ status ]

let farm_worker_cmd =
  let run () =
    Farm.Worker.serve
      ~resolve:(fun _shard blob -> Workloads.task blob)
      ()
  in
  let doc =
    "Internal: sweep-farm worker; speaks the CRC-framed farm protocol on \
     stdin/stdout. Spawned by --shards runs."
  in
  Cmd.v (cmd_info "farm-worker" ~doc) Term.(const run $ const ())

(* --------------------------------------------------------------- *)
(* analysis daemon                                                  *)

let socket_term =
  let doc = "Unix-domain socket path to listen/connect on." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let port_term =
  let doc = "Loopback TCP port to listen/connect on (0 = ephemeral)." in
  Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)

let client_addr socket port =
  match (socket, port) with
  | Some path, _ -> Serve.Client.Unix_path path
  | None, Some p -> Serve.Client.Tcp ("127.0.0.1", p)
  | None, None ->
      Format.fprintf pp "error: need --socket or --port@.";
      exit 1

let print_wire_error err =
  Format.fprintf pp "error: %s@." (Robust.Pllscope_error.to_string err)

let fetch_stats addr =
  Serve.Client.with_retries
    ~connect:(fun () -> Serve.Client.connect addr)
    (fun conn ->
      Serve.Client.request conn
        (Serve.Wire.oneshot Serve.Wire.Stats))

let serve_cmd =
  let workers =
    let doc = "Concurrent compute slots." in
    Arg.(value & opt int Serve.Daemon.default_config.Serve.Daemon.workers
         & info [ "workers" ] ~docv:"N" ~doc)
  in
  let queue =
    let doc =
      "Requests queued past the compute slots before shedding with a typed \
       overloaded frame."
    in
    Arg.(value & opt int Serve.Daemon.default_config.Serve.Daemon.queue_depth
         & info [ "queue" ] ~docv:"N" ~doc)
  in
  let max_clients =
    let doc = "Open connections before accept-time shedding." in
    Arg.(value & opt int Serve.Daemon.default_config.Serve.Daemon.max_clients
         & info [ "max-clients" ] ~docv:"N" ~doc)
  in
  let cache =
    let doc = "Response-cache capacity in entries (0 disables)." in
    Arg.(value & opt int Serve.Daemon.default_config.Serve.Daemon.cache_entries
         & info [ "cache" ] ~docv:"N" ~doc)
  in
  let read_timeout =
    let doc = "Whole-frame read deadline in seconds (idle/slow clients)." in
    Arg.(value & opt float Serve.Daemon.default_config.Serve.Daemon.read_timeout
         & info [ "read-timeout" ] ~docv:"SECS" ~doc)
  in
  let write_timeout =
    let doc = "Whole-frame write deadline in seconds (slow readers)." in
    Arg.(value & opt float Serve.Daemon.default_config.Serve.Daemon.write_timeout
         & info [ "write-timeout" ] ~docv:"SECS" ~doc)
  in
  let default_deadline =
    let doc = "Deadline applied to requests that carry none, in seconds." in
    Arg.(value & opt (some float) None
         & info [ "default-deadline" ] ~docv:"SECS" ~doc)
  in
  let drain_grace =
    let doc = "Seconds in-flight requests get to deliver on shutdown." in
    Arg.(value & opt float Serve.Daemon.default_config.Serve.Daemon.drain_grace
         & info [ "drain-grace" ] ~docv:"SECS" ~doc)
  in
  let retry_after =
    let doc = "Retry hint carried by overloaded frames, in seconds." in
    Arg.(value & opt float Serve.Daemon.default_config.Serve.Daemon.retry_after
         & info [ "retry-after" ] ~docv:"SECS" ~doc)
  in
  let status =
    let doc =
      "Query a running daemon's counters (server and robust-layer) as JSON \
       instead of starting one."
    in
    Arg.(value & flag & info [ "status" ] ~doc)
  in
  let state_dir =
    let doc =
      "Directory for streamed-request journals (created if missing); without \
       it resumes save network replay but recompute cells."
    in
    Arg.(value & opt (some string) None
         & info [ "state-dir" ] ~docv:"DIR" ~doc)
  in
  let chunk_points =
    let doc = "Sweep cells per streamed chunk frame." in
    Arg.(value & opt int Serve.Daemon.default_config.Serve.Daemon.chunk_points
         & info [ "chunk-points" ] ~docv:"N" ~doc)
  in
  let heartbeat =
    let doc =
      "Seconds of stream silence before the ticker writes a progress frame."
    in
    Arg.(value & opt float Serve.Daemon.default_config.Serve.Daemon.heartbeat
         & info [ "heartbeat" ] ~docv:"SECS" ~doc)
  in
  let run socket port workers queue max_clients cache read_timeout
      write_timeout default_deadline drain_grace retry_after status state_dir
      chunk_points heartbeat strict =
    if status then begin
      match fetch_stats (client_addr socket port) with
      | Ok (Serve.Wire.R_stats s) ->
          Format.fprintf pp "%s@." (Serve.Metrics.json_of_stats s)
      | Ok (Serve.Wire.R_analyze _ | R_bode _ | R_sweep _ | R_healthy) ->
          Format.fprintf pp "error: unexpected reply to a stats request@.";
          exit 1
      | Error err ->
          print_wire_error err;
          exit 1
    end
    else begin
      if socket = None && port = None then begin
        Format.fprintf pp "error: need --socket and/or --port to listen on@.";
        exit 1
      end;
      Robust.Stats.reset ();
      Parallel.Cancel.reset_global ();
      let cfg =
        {
          Serve.Daemon.socket_path = socket;
          tcp_port = port;
          workers;
          queue_depth = queue;
          max_clients;
          cache_entries = cache;
          read_timeout;
          write_timeout;
          default_deadline;
          drain_grace;
          retry_after;
          strict;
          state_dir;
          chunk_points;
          heartbeat;
        }
      in
      let d = Serve.Daemon.create cfg in
      (match socket with
      | Some path -> Experiments.Report.kv pp "listening" "unix:%s" path
      | None -> ());
      (match Serve.Daemon.tcp_port d with
      | Some p -> Experiments.Report.kv pp "listening" "tcp:127.0.0.1:%d" p
      | None -> ());
      let final = Serve.Daemon.serve d in
      (* a drained daemon exits 0: shutdown-by-signal is its success
         path, unlike a cancelled sweep *)
      Experiments.Report.kv pp "drained" "served %d, shed %d, cache %d/%d, \
                                          errors %d, io timeouts %d"
        final.Serve.Wire.served final.Serve.Wire.shed
        final.Serve.Wire.cache_hits
        (final.Serve.Wire.cache_hits + final.Serve.Wire.cache_misses)
        final.Serve.Wire.request_errors final.Serve.Wire.io_timeouts;
      let s = final.Serve.Wire.robust in
      if Robust.Stats.total s > 0 then
        Format.fprintf pp "%a@." Robust.Stats.pp s
    end
  in
  let doc =
    "Analysis daemon: concurrent clients over unix/tcp sockets, CRC-framed \
     protocol, admission control with typed overload shedding, per-request \
     deadlines, response cache, graceful drain on SIGTERM"
  in
  Cmd.v (cmd_info "serve" ~doc)
    Term.(
      const run $ socket_term $ port_term $ workers $ queue $ max_clients
      $ cache $ read_timeout $ write_timeout $ default_deadline $ drain_grace
      $ retry_after $ status $ state_dir $ chunk_points $ heartbeat
      $ strict_term)

let client_cmd =
  let what =
    let doc = "Request: analyze, bode, sweep, stats or health." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"REQUEST" ~doc)
  in
  let points =
    let doc = "Grid points (bode) or linearly spaced ratios (sweep)." in
    Arg.(value & opt (some int) None & info [ "points" ] ~docv:"N" ~doc)
  in
  let req_deadline =
    let doc = "Per-request compute budget on the server, in seconds." in
    Arg.(value & opt (some float) None
         & info [ "request-deadline" ] ~docv:"SECS" ~doc)
  in
  let timeout =
    let doc = "Seconds to wait for the complete reply frame." in
    Arg.(value & opt float 60.0 & info [ "timeout" ] ~docv:"SECS" ~doc)
  in
  let attempts =
    let doc = "Retry attempts on overload or connection loss." in
    Arg.(value & opt int 5 & info [ "attempts" ] ~docv:"N" ~doc)
  in
  let seed =
    let doc = "Seed of the deterministic retry-jitter stream." in
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc)
  in
  let budget =
    let doc =
      "Wall-clock retry budget in seconds: fail with a typed error rather \
       than back off past it."
    in
    Arg.(value & opt (some float) None & info [ "budget" ] ~docv:"SECS" ~doc)
  in
  let stream =
    let doc =
      "Stream a sweep in resumable chunks (reconnects resume by idempotency \
       key instead of restarting)."
    in
    Arg.(value & flag & info [ "stream" ] ~doc)
  in
  let run spec what socket port points req_deadline timeout attempts seed
      budget stream =
    let addr = client_addr socket port in
    let print_sweep (s : Serve.Wire.sweep_result) =
      let rows = Array.to_list s.Serve.Wire.rows |> List.filter_map Fun.id in
      Experiments.Exp_fig7.print pp rows;
      if s.Serve.Wire.failures <> [] then
        Format.fprintf pp "%d of %d point(s) failed:@."
          (List.length s.Serve.Wire.failures)
          s.Serve.Wire.total;
      List.iter
        (fun (i, err) ->
          Format.fprintf pp "  point %d: %s@." i
            (Robust.Pllscope_error.to_string err))
        s.Serve.Wire.failures
    in
    let body =
      match what with
      | "analyze" -> Serve.Wire.Analyze spec
      | "bode" ->
          Serve.Wire.Bode { spec; points = Option.value points ~default:25 }
      | "sweep" -> Serve.Wire.Sweep { spec; ratios = ratio_grid points }
      | "stats" -> Serve.Wire.Stats
      | "health" -> Serve.Wire.Health
      | other ->
          Format.fprintf pp "error: unknown request %s@." other;
          exit 1
    in
    if stream then begin
      match body with
      | Serve.Wire.Sweep { spec; ratios } -> (
          match
            Serve.Client.sweep_streamed ~timeout ?deadline:req_deadline
              ~attempts ~seed ?budget
              ~connect:(fun () -> Serve.Client.connect addr)
              ~spec ~ratios ()
          with
          | Error err ->
              print_wire_error err;
              exit 1
          | Ok (s, st) ->
              print_sweep s;
              Experiments.Report.kv pp "stream"
                "%d chunk(s), %d computed, %d replayed, %d resume(s)"
                st.Serve.Client.chunks st.Serve.Client.computed
                st.Serve.Client.replayed st.Serve.Client.resumes)
      | Serve.Wire.Analyze _ | Bode _ | Stats | Health ->
          Format.fprintf pp "error: --stream applies to sweep requests@.";
          exit 1
    end
    else
    let reply =
      Serve.Client.with_retries ~attempts ~seed ?budget
        ~connect:(fun () -> Serve.Client.connect addr)
        (fun conn ->
          Serve.Client.request ~timeout conn
            (Serve.Wire.oneshot ?deadline:req_deadline body))
    in
    match reply with
    | Error err ->
        print_wire_error err;
        exit 1
    | Ok (Serve.Wire.R_analyze r) ->
        print_loop_reports r.Serve.Wire.lti r.Serve.Wire.eff;
        let m = r.Serve.Wire.metrics in
        Experiments.Report.kv pp "closed-loop peaking" "%.2f dB at %g rad/s"
          m.Pll_lib.Analysis.peak_db m.Pll_lib.Analysis.peak_freq;
        Experiments.Report.kv pp "time-varying stable" "%s"
          (if r.Serve.Wire.stable then "yes" else "NO")
    | Ok (Serve.Wire.R_bode b) ->
        Experiments.Report.table pp ~title:"open-loop responses"
          ~header:[ "w"; "|A| dB"; "arg A"; "|lambda| dB"; "arg lambda" ]
          (List.map2
             (fun (pa : Serve.Wire.bode_point) (pl : Serve.Wire.bode_point) ->
               [
                 Experiments.Report.g pa.Serve.Wire.omega;
                 Experiments.Report.f3 pa.Serve.Wire.mag_db;
                 Experiments.Report.f3 pa.Serve.Wire.phase_deg;
                 Experiments.Report.f3 pl.Serve.Wire.mag_db;
                 Experiments.Report.f3 pl.Serve.Wire.phase_deg;
               ])
             (Array.to_list b.Serve.Wire.a)
             (Array.to_list b.Serve.Wire.lambda))
    | Ok (Serve.Wire.R_sweep s) -> print_sweep s
    | Ok (Serve.Wire.R_stats s) ->
        Format.fprintf pp "%s@." (Serve.Metrics.json_of_stats s)
    | Ok Serve.Wire.R_healthy -> Format.fprintf pp "healthy@."
  in
  let doc =
    "Query a running analysis daemon (retries overload/connection loss with \
     deterministic exponential backoff)"
  in
  Cmd.v (cmd_info "client" ~doc)
    Term.(
      const run $ spec_term $ what $ socket_term $ port_term $ points
      $ req_deadline $ timeout $ attempts $ seed $ budget $ stream)

(* every figure id, in the order `fig all` runs them *)
let figures =
  Experiments.
    [
      ("2", Exp_fig2.run);
      ("4", Exp_fig4.run);
      ("5", Exp_fig5.run);
      ("6", Exp_fig6.run);
      ("7", Exp_fig7.run);
      ("xchk", Exp_xchk.run);
      ("ablation", Exp_ablation.run);
      ("isf", Exp_isf.run);
      ("nonideal", Exp_nonideal.run);
      ("pfd", Exp_pfd.run);
      ("noise", Exp_noise.run);
      ("fractional", Exp_fractional.run);
      ("grid", Exp_grid.run);
      ("perf", Exp_perf.run);
    ]

let fig_cmd =
  let ids = figures @ [ ("all", fun () -> List.iter (fun (_, run) -> run ()) figures) ] in
  let which =
    let doc = Printf.sprintf "Figure to regenerate: %s." (Arg.doc_alts_enum ids) in
    Arg.(required & pos 0 (some (enum ids)) None & info [] ~docv:"FIG" ~doc)
  in
  let run which deadline strict = with_robust ?deadline strict which in
  let doc = "Regenerate a paper figure" in
  Cmd.v (cmd_info "fig" ~doc)
    Term.(const run $ which $ deadline_term $ strict_term)

let sim_cmd =
  let offset =
    Arg.(value & opt float 50e3
         & info [ "offset" ] ~docv:"HZ" ~doc:"Initial VCO frequency error in Hz.")
  in
  let periods =
    Arg.(value & opt int 400 & info [ "periods" ] ~docv:"N" ~doc:"Reference periods to simulate.")
  in
  let run spec offset periods =
    with_robust false @@ fun () ->
    let p = Pll_lib.Design.synthesize spec in
    let record = Sim.Transient.acquisition p ~freq_offset:offset ~periods () in
    let period = Pll_lib.Pll.period p in
    Experiments.Report.kv pp "simulated" "%d reference periods" periods;
    Experiments.Report.kv pp "final |theta|" "%.3e s"
      (Float.abs
         (Sim.Waveform.value record.Sim.Behavioral.theta
            (Sim.Waveform.length record.Sim.Behavioral.theta - 1)));
    (match Sim.Transient.lock_time record ~tol:(period /. 1000.0) with
    | Some t -> Experiments.Report.kv pp "lock time (|theta| < T/1000)" "%.4g s (%.1f periods)" t (t /. period)
    | None -> Experiments.Report.kv pp "lock" "not acquired within the run")
  in
  let doc = "Behavioral lock-acquisition run" in
  Cmd.v (cmd_info "sim" ~doc) Term.(const run $ spec_term $ offset $ periods)

let measure_cmd =
  let harmonic =
    Arg.(value & opt int 3 & info [ "harmonic" ] ~docv:"J" ~doc:"Modulation cycles per window.")
  in
  let window =
    Arg.(value & opt int 32 & info [ "window" ] ~docv:"P" ~doc:"Window length in reference periods.")
  in
  let run spec harmonic window strict =
    with_robust strict @@ fun () ->
    let p = Pll_lib.Design.synthesize spec in
    let m = Sim.Extract.measure_h00 p ~harmonic ~window_periods:window () in
    let open Numeric in
    Experiments.Report.kv pp "modulation frequency" "%g rad/s (w/w0 = %g)"
      m.Sim.Extract.omega (m.Sim.Extract.omega /. Pll_lib.Pll.omega0 p);
    Experiments.Report.kv pp "measured H00" "%s" (Cx.to_string m.Sim.Extract.measured);
    Experiments.Report.kv pp "HTM closed form" "%s" (Cx.to_string m.Sim.Extract.predicted);
    Experiments.Report.kv pp "LTI approximation" "%s" (Cx.to_string m.Sim.Extract.predicted_lti);
    Experiments.Report.kv pp "relative error vs HTM" "%.5f" m.Sim.Extract.rel_err
  in
  let doc = "Measure H00 from time-marching simulation" in
  Cmd.v (cmd_info "measure" ~doc)
    Term.(const run $ spec_term $ harmonic $ window $ strict_term)

let netlist_cmd =
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"SPICE-style netlist of the loop filter (charge pump at node 1).")
  in
  let sense =
    Arg.(value & opt int 1
         & info [ "sense" ] ~docv:"NODE" ~doc:"Control-voltage node (default 1).")
  in
  let run spec file sense strict =
    with_robust strict @@ fun () ->
    let src = In_channel.with_open_text file In_channel.input_all in
    let netlist =
      match Circuit.Parse.netlist ~file src with
      | n -> n
      | exception
          Robust.Pllscope_error.Error (Robust.Pllscope_error.Parse _ as e) ->
          Format.fprintf pp "%s@." (Robust.Pllscope_error.to_string e);
          (match Robust.Pllscope_error.parse_snippet ~src e with
          | Some snippet -> Format.fprintf pp "%s@." snippet
          | None -> ());
          exit 1
    in
    Format.fprintf pp "netlist:@.%a@." Circuit.Netlist.pp netlist;
    let z = Circuit.Mna.transimpedance netlist ~inject:1 ~sense in
    Experiments.Report.kv pp "transimpedance" "%s"
      (Format.asprintf "%a" Lti.Tf.pp z);
    Experiments.Report.kv pp "poles" "%s"
      (String.concat ", "
         (List.map Numeric.Cx.to_string (Lti.Tf.poles z)));
    Experiments.Report.kv pp "zeros" "%s"
      (String.concat ", "
         (List.map Numeric.Cx.to_string (Lti.Tf.zeros z)));
    let filter =
      Pll_lib.Loop_filter.of_netlist netlist ~icp:spec.Pll_lib.Design.icp ~sense ()
    in
    let vco =
      Pll_lib.Vco.time_invariant ~kvco:spec.Pll_lib.Design.kvco
        ~n_div:spec.Pll_lib.Design.n_div ~fref:spec.Pll_lib.Design.fref
    in
    let p =
      Pll_lib.Pll.make ~fref:spec.Pll_lib.Design.fref
        ~n_div:spec.Pll_lib.Design.n_div ~filter ~vco ()
    in
    print_loop_reports (Pll_lib.Analysis.lti_report p)
      (Pll_lib.Analysis.effective_report p);
    Experiments.Report.kv pp "time-varying stable" "%s"
      (if Pll_lib.Analysis.is_stable_tv p then "yes" else "NO")
  in
  let doc = "Analyze a PLL whose loop filter is given as a netlist file" in
  Cmd.v (cmd_info "netlist" ~doc)
    Term.(const run $ spec_term $ file $ sense $ strict_term)

let () =
  Runner.Shutdown.ignore_sigpipe ();
  Runner.Shutdown.install_handlers ();
  let doc = "time-varying frequency-domain PLL analysis (HTM formalism)" in
  let info = cmd_info "pllscope" ~version:"1.0.0" ~doc in
  let cmd =
    Cmd.group info
      [ analyze_cmd; bode_cmd; sweep_cmd; mc_cmd; fig_cmd; sim_cmd;
        measure_cmd; netlist_cmd; farm_cmd; journal_cmd; farm_worker_cmd;
        serve_cmd; client_cmd ]
  in
  (* usage errors exit 2, apart from the 124 of an expired --deadline *)
  exit
    (match Cmd.eval_value cmd with
    | Ok (`Ok () | `Version | `Help) -> Cmd.Exit.ok
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> Cmd.Exit.internal_error)
