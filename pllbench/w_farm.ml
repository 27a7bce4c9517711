(* mc_farm — the Monte Carlo tolerance study of Exp_nonideal through the
   sweep farm; bypasses lib/core and lib/serve entirely.

   Each round interleaves:
   - dispatch: spawn one worker by hand, time exec until its Ready
     (set-up), then a closed loop of small Assign ranges answered by
     Done — the farm's per-assignment round trip (latency);
   - fresh: [Farm.Coordinator.run] with 2 shards, stealing on and
     checkpoint journals in a scratch directory, merge included;
   - recover: the same run with [resume = true] over the completed
     journals — pure replay plus merge.
   A point computes in about a microsecond, so journaling, protocol and
   merge make up most of the wall time. *)

open Util
module C = Farm.Coordinator
module P = Farm.Protocol
module N = Experiments.Exp_nonideal

let shards = 2
let points = 100_000
let assigns_per_round = 1000
let assign_width = 1024

let blob ~seed =
  Marshal.to_string (Pll_lib.Design.default_spec, { N.default_mc with mc_seed = seed }) []

let encode env i = Marshal.to_string (N.mc_point env i) []

(* the worker process: serve the farm protocol, then leave its peak RSS
   where the coordinator side can read it *)
let worker ~rss_file =
  Farm.Worker.serve
    ~resolve:(fun _shard blob ->
      let (spec, cfg) : Pll_lib.Design.spec * N.mc_config = Marshal.from_string blob 0 in
      encode (N.mc_env ~spec cfg))
    ();
  Runner.Atomic_file.write_string ~fsync:false rss_file
    (Printf.sprintf "%.6f\n" (peak_rss_mb "self"))

let worker_argv dir k =
  [| Sys.executable_name; "farm-worker"; Filename.concat dir (Printf.sprintf "rss.%d" k) |]

let clear_journals base =
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    (base :: C.existing_shards base)

let recv_exn fd =
  match P.recv fd with Some m -> m | None -> failwith "farm worker closed its pipe"

(* One hand-driven worker: returns (exec-to-Ready seconds, per-Assign
   round-trip seconds, failed points). *)
let dispatch ~dir ~blob ~lo ~round =
  let to_w_r, to_w_w = Unix.pipe ~cloexec:true () in
  let from_w_r, from_w_w = Unix.pipe ~cloexec:true () in
  let argv = worker_argv dir (100 + round) in
  let t0 = now () in
  let pid = Unix.create_process argv.(0) argv to_w_r from_w_w Unix.stderr in
  Unix.close to_w_r;
  Unix.close from_w_w;
  let journal = Filename.concat dir (Printf.sprintf "dispatch.%d.ckpt" round) in
  Fun.protect
    ~finally:(fun () ->
      Unix.close to_w_w;
      Unix.close from_w_r;
      ignore (Unix.waitpid [] pid);
      (try Sys.remove journal with Sys_error _ -> ()))
    (fun () ->
      P.send to_w_w
        (P.Hello { shard = 0; journal; blob; chunk = None; retries = None; task_timeout = None });
      (match recv_exn from_w_r with
      | P.Ready -> ()
      | m -> failwith ("farm worker answered Hello with " ^ P.msg_name m));
      let ready = now () -. t0 in
      let failed = ref 0 in
      let lat =
        List.init assigns_per_round (fun k ->
            let lo = lo + (k * assign_width) in
            Trace.with_span ~req:k ~layer:"farm" "Assign->Done" (fun () ->
                let t = now () in
                P.send to_w_w (P.Assign { lo; hi = lo + assign_width });
                match recv_exn from_w_r with
                | P.Done d ->
                    failed := !failed + List.length d.failed;
                    now () -. t
                | m -> failwith ("farm worker answered Assign with " ^ P.msg_name m)))
      in
      P.send to_w_w P.Fin;
      (match recv_exn from_w_r with P.Exit _ -> () | _ -> ());
      (ready, lat, !failed))

let run ~seed ~seconds ~traced =
  let dir = scratch "farm" in
  mkdir_p dir;
  let blob = blob ~seed in
  let env = N.mc_env ~spec:Pll_lib.Design.default_spec { N.default_mc with mc_seed = seed } in
  let rng = Random.State.make [| 0xfa53; seed |] in
  let base = Filename.concat dir "mc.ckpt" in
  let cfg ~resume =
    {
      C.shards;
      steal = true;
      resume;
      checkpoint = base;
      blob;
      worker_argv = worker_argv dir;
      slice = None;
      chunk = None;
      retries = None;
      task_timeout = None;
      progress = false;
    }
  in
  let setup = ref [] and lat_rounds = ref [] and fresh = ref [] and recover = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let reports = ref [] in
  let round = ref 0 in
  (* round 1 warms the heap and the page cache and is not recorded *)
  let record r x = if !round > 1 then r := x :: !r in
  let t_end = now () +. seconds in
  while !round < 3 || now () < t_end do
    incr round;
    Trace.with_span ~layer:"bench" "farm.round" (fun () ->
        let ready, l, f = dispatch ~dir ~blob ~lo:(!round * 1_000_000) ~round:!round in
        record setup ready;
        record lat_rounds (latency_round (List.map (fun x -> x *. 1e3) l));
        attempted := !attempted + (assigns_per_round * assign_width);
        failed := !failed + f;
        clear_journals base;
        let dt, report =
          time (fun () ->
              Trace.with_span ~layer:"farm" "Coordinator.run fresh" (fun () ->
                  C.run (cfg ~resume:false) ~n:points))
        in
        record fresh dt;
        attempted := !attempted + points;
        failed := !failed + List.length report.C.failures;
        let rdt, rreport =
          time (fun () ->
              Trace.with_span ~layer:"farm" "Coordinator.run resume" (fun () ->
                  C.run (cfg ~resume:true) ~n:points))
        in
        record recover rdt;
        (* the counters only: payload arrays would bloat the heap the
           coordinator-side timings run on *)
        reports := { report with C.payloads = [||]; failures = [] } :: !reports;
        (* byte identity with the in-process kernel: every point on the
           first round, a seeded sample after *)
        let check (r : C.report) what =
          let idx =
            if !round = 1 then List.init points Fun.id
            else List.init 2000 (fun _ -> Random.State.int rng points)
          in
          let bad =
            List.filter
              (fun i -> r.C.payloads.(i) <> Some (encode env i))
              idx
          in
          Check.that (bad = [])
            (Printf.sprintf "%s: %d payloads differ from the in-process kernel (first %d)"
               what (List.length bad) (match bad with i :: _ -> i | [] -> -1))
        in
        check report "merged";
        check rreport "recovered";
        Check.that (rreport.C.resumed = points)
          (Printf.sprintf "recover replayed %d of %d points" rreport.C.resumed points))
  done;
  let p50, p99, rate = Stat.round_summary !lat_rounds in
  let rss_dir_max () =
    Array.fold_left
      (fun acc f ->
        if String.starts_with ~prefix:"rss." f then
          match
            float_of_string_opt
              (String.trim (In_channel.with_open_text (Filename.concat dir f) In_channel.input_all))
          with
          | Some v -> Float.max acc v
          | None -> acc
        else acc)
      0.0 (Sys.readdir dir)
  in
  let layer =
    if not traced then []
    else begin
      let median_of f = Stat.median (List.map f !reports) in
      (* journal layer on this workload's payloads *)
      let payloads = Array.init 20_000 (encode env) in
      let jpath k = Filename.concat dir (Printf.sprintf "probe.%d.ckpt" k) in
      List.iter (fun k -> try Sys.remove (jpath k) with Sys_error _ -> ()) [ 0; 1; 2 ];
      let append_s, () =
        time (fun () ->
            Trace.with_span ~layer:"runner" "Journal.append" (fun () ->
                let j0 = Runner.Journal.open_append (jpath 0)
                and j1 = Runner.Journal.open_append (jpath 1) in
                Array.iteri
                  (fun i p ->
                    Runner.Journal.append (if i land 1 = 0 then j0 else j1) ~index:i p)
                  payloads;
                Runner.Journal.close j0;
                Runner.Journal.close j1))
      in
      let bytes =
        (Unix.stat (jpath 0)).Unix.st_size + (Unix.stat (jpath 1)).Unix.st_size
      in
      let merge_s, _ =
        time (fun () ->
            Trace.with_span ~layer:"runner" "Journal.merge" (fun () ->
                Runner.Journal.merge ~into:(jpath 2) [ jpath 0; jpath 1 ]))
      in
      let replay_s, frames =
        time (fun () ->
            Trace.with_span ~layer:"runner" "Journal.replay" (fun () ->
                List.length (Runner.Journal.replay base)))
      in
      let kernel_s, () =
        time (fun () ->
            Trace.with_span ~layer:"farm" "mc_point kernel" (fun () ->
                for i = 0 to points - 1 do
                  ignore (N.mc_point env i)
                done))
      in
      let n = float_of_int (Array.length payloads) in
      [
        ("runner.append_us_per_pt", append_s /. n *. 1e6);
        ("runner.bytes_per_pt", float_of_int bytes /. n);
        ("runner.replay_pts_per_s", float_of_int frames /. replay_s);
        ("runner.merge_s", merge_s);
        ("farm.kernel_pts_per_s", float_of_int points /. kernel_s);
        ( "farm.tax_us_per_pt",
          ((Stat.median !fresh /. float_of_int points)
          -. (kernel_s /. float_of_int points /. float_of_int shards))
          *. 1e6 );
        ("farm.assign_waits", median_of (fun r -> float_of_int r.C.assign_waits));
        ("farm.assign_wait_s", median_of (fun r -> r.C.assign_wait_seconds));
        ("farm.steals", median_of (fun r -> float_of_int r.C.steals));
        ("farm.worker_deaths", float_of_int (List.fold_left (fun a r -> a + r.C.worker_deaths) 0 !reports));
        ("farm.worker_peak_rss_mb", rss_dir_max ());
      ]
    end
  in
  rm_rf dir;
  {
    e2e =
      [
        ("setup_s", Stat.median !setup);
        ("points_per_s", Stat.median (List.map (fun t -> float_of_int points /. t) !fresh));
        ("latency_p50_ms", p50);
        ("latency_p99_ms", p99);
        ("max_rate_rps", rate);
        ("recover_s", Stat.median !recover);
        ("peak_rss_mb", peak_rss_mb "self");
      ];
    layer;
    attempted = !attempted;
    failed = !failed;
    check_failures = Check.take ();
    info =
      [
        ("shards", Json.int shards);
        ("points", Json.int points);
        ("rounds", Json.int !round);
        ("latency_samples", Json.int (Stat.samples !lat_rounds));
        ("latency_rounds", Json.int (List.length !lat_rounds));
      ];
  }
