(* pllscope benchmark: command-line entry point.

   main.exe --workload (htm_analysis|mc_farm|serve_mix) --seed N
            --seconds S --trace (0|1) [--pllscope PATH]

   Runs one workload for S seconds from inputs generated from N, checks
   its outputs outside the timed regions, and prints as its last stdout
   line one JSON object {correct, attempted, failed, metrics}: the
   end-to-end metrics with --trace 0, the per-layer metrics with
   --trace 1. A traced run measures the selected workload untraced and
   traced for S/2 seconds each (their difference is the tracing
   overhead), then the other two workloads traced for a short stretch,
   so every per-layer metric is present whatever the workload. The
   line before it is the host/provenance record; the full record, with
   the spans of a traced run, is also written under .pllbench_out/.

   Every workload measures the same figures. Only those that repeat
   run to run on a shared 2-core host are end-to-end metrics
   ([end_to_end]); a traced run reports the tail latency and the rate
   of the selected workload, and every figure of serve_mix, as
   per-layer metrics. serve_mix stays runnable but is not a benchmark
   workload: its open-loop latencies and ladder rate did not repeat.

   main.exe farm-worker RSS_FILE is the mc_farm worker process. *)

open Util

let workloads = [ "htm_analysis"; "mc_farm"; "serve_mix" ]
let end_to_end = [ "setup_s"; "points_per_s"; "latency_p50_ms"; "recover_s"; "peak_rss_mb"; "ok_frac" ]

(* what a traced run reports of the selected workload's other figures *)
let traced_extra = [ "latency_p99_ms"; "max_rate_rps" ]

(* serve_mix's figures under per-layer names *)
let serve_names =
  [
    ("setup_s", "serve.daemon_setup_s");
    ("points_per_s", "serve.streamed_pts_per_s");
    ("latency_p50_ms", "serve.oneshot_p50_ms");
    ("latency_p99_ms", "serve.oneshot_p99_ms");
    ("max_rate_rps", "serve.max_rate_rps");
    ("recover_s", "serve.replay_s");
    ("peak_rss_mb", "serve.daemon_peak_rss_mb");
  ]
let layers = [ "numeric"; "core"; "robust"; "pll"; "parallel"; "runner"; "farm"; "serve"; "bench" ]

(* the seconds each other workload gets in a traced run *)
let short_seconds = 3.0

let usage () =
  prerr_endline
    "usage: main.exe --workload (htm_analysis|mc_farm|serve_mix) --seed N \
     --seconds S --trace (0|1) [--pllscope PATH]";
  exit 2

let run_workload ~pllscope ~seed ~seconds ~traced = function
  | "htm_analysis" -> W_htm.run ~seed ~seconds ~traced
  | "mc_farm" -> W_farm.run ~seed ~seconds ~traced
  | "serve_mix" -> W_serve.run ~pllscope ~seed ~seconds ~traced
  | w -> invalid_arg ("unknown workload " ^ w)

(* git rev when the tree is a git checkout; the source digest names the
   measured code either way *)
let git_rev () =
  if not (Sys.file_exists ".git") then "none"
  else
    match Unix.open_process_args_in "git" [| "git"; "rev-parse"; "HEAD" |] with
    | exception Unix.Unix_error _ -> "none"
    | ic ->
        let rev = try String.trim (input_line ic) with End_of_file -> "none" in
        ignore (Unix.close_process_in ic);
        rev

let source_digest () =
  let files = ref [] in
  let rec walk dir =
    Array.iter
      (fun f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then walk p
        else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
        then files := p :: !files)
      (Sys.readdir dir)
  in
  List.iter (fun d -> if Sys.file_exists d then walk d) [ "lib"; "bin"; "pllbench" ];
  let files = List.sort compare !files in
  Digest.to_hex
    (Digest.string
       (String.concat "\000"
          (List.map (fun p -> p ^ "\000" ^ Digest.to_hex (Digest.file p)) files)))

let host_record ~workload ~seed ~seconds ~trace =
  [
    ("workload", Json.str workload);
    ("seed", Json.int seed);
    ("seconds", Json.num seconds);
    ("trace", Json.int trace);
    ("nproc", Json.int (nproc ()));
    ("recommended_domain_count", Json.int (Domain.recommended_domain_count ()));
    ( "PLLSCOPE_DOMAINS",
      match Sys.getenv_opt "PLLSCOPE_DOMAINS" with Some v -> Json.str v | None -> "null" );
    ("pool_domains", Json.int (Parallel.Pool.default_domains ()));
    ("farm_shards", Json.int W_farm.shards);
    ("serve_connections", Json.int W_serve.connections);
    ("ocaml_version", Json.str Sys.ocaml_version);
    ("git_rev", Json.str (git_rev ()));
    ("source_digest", Json.str (source_digest ()));
  ]

let span_json (s : Trace.span) =
  Json.obj
    [
      ("id", Json.int s.id);
      ("parent", Json.int s.parent);
      ("name", Json.str s.name);
      ("layer", Json.str s.layer);
      ("req", Json.int s.req);
      ("t0", Json.num s.t0);
      ("t1", Json.num s.t1);
    ]

let () =
  match Array.to_list Sys.argv with
  | _ :: "farm-worker" :: rss_file :: _ -> W_farm.worker ~rss_file
  | _ :: args ->
      let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 in
      let trace = ref (-1) and pllscope = ref "_build/default/bin/pllscope.exe" in
      let rec parse = function
        | "--workload" :: v :: rest -> workload := v; parse rest
        | "--seed" :: v :: rest ->
            (match int_of_string_opt v with Some n -> seed := n | None -> usage ());
            parse rest
        | "--seconds" :: v :: rest ->
            (match float_of_string_opt v with Some s -> seconds := s | None -> usage ());
            parse rest
        | "--trace" :: v :: rest ->
            (match v with "0" -> trace := 0 | "1" -> trace := 1 | _ -> usage ());
            parse rest
        | "--pllscope" :: v :: rest -> pllscope := v; parse rest
        | [] -> ()
        | _ -> usage ()
      in
      parse args;
      if (not (List.mem !workload workloads)) || !seed < 0 || !seconds <= 0.0 || !trace < 0
      then usage ();
      let workload = !workload and seed = !seed and seconds = !seconds in
      let pllscope = !pllscope and trace = !trace in
      if workload = "serve_mix" || trace = 1 then
        if not (Sys.file_exists pllscope) then begin
          note "pllscope binary not found at %s" pllscope;
          exit 2
        end;
      Runner.Shutdown.ignore_sigpipe ();
      at_exit (fun () ->
          rm_rf (scratch_root ());
          try Unix.rmdir ".pllbench_tmp" with Unix.Unix_error _ -> ());
      let run w ~seconds ~traced =
        Trace.enabled := traced;
        let o = run_workload ~pllscope ~seed ~seconds ~traced w in
        Trace.enabled := false;
        o
      in
      let ok_frac (o : outcome) =
        1.0 -. (float_of_int o.failed /. float_of_int (max 1 o.attempted))
      in
      let all o = o.e2e @ [ ("ok_frac", ok_frac o) ] in
      let e2e o = List.filter (fun (k, _) -> List.mem k end_to_end) (all o) in
      let main, metrics, extra =
        if trace = 0 then
          let o = run workload ~seconds ~traced:false in
          (o, e2e o, [ ("figures", Json.obj (List.map (fun (k, v) -> (k, Json.num v)) (all o))) ])
        else begin
          let plain = run workload ~seconds:(seconds /. 2.0) ~traced:false in
          Trace.reset ();
          let traced = run workload ~seconds:(seconds /. 2.0) ~traced:true in
          let others =
            List.map
              (fun w -> (w, run w ~seconds:short_seconds ~traced:true))
              (List.filter (( <> ) workload) workloads)
          in
          let serve =
            if workload = "serve_mix" then traced else List.assoc "serve_mix" others
          in
          let others = List.map snd others in
          let spans = Trace.spans () in
          let self = Trace.self_by_layer spans in
          let pps o = List.assoc "points_per_s" o.e2e in
          let layer =
            List.filter (fun (k, _) -> List.mem k traced_extra) traced.e2e
            @ List.map (fun (k, v) -> (List.assoc k serve_names, v)) serve.e2e
            @ List.concat_map (fun (o : outcome) -> o.layer) (traced :: others)
            @ List.map
                (fun l -> ("self_s." ^ l, Option.value ~default:0.0 (List.assoc_opt l self)))
                layers
            @ [
                ("trace.overhead_pct", ((pps plain /. pps traced) -. 1.0) *. 100.0);
                ("trace.spans", float_of_int (List.length spans));
              ]
          in
          let merged =
            {
              traced with
              attempted = List.fold_left (fun a (o : outcome) -> a + o.attempted) 0 (traced :: others);
              failed = List.fold_left (fun a (o : outcome) -> a + o.failed) 0 (traced :: others);
              check_failures =
                List.concat_map (fun (o : outcome) -> o.check_failures) (plain :: traced :: others);
            }
          in
          ( merged,
            layer,
            [
              ("untraced", Json.obj (List.map (fun (k, v) -> (k, Json.num v)) (all plain)));
              ("traced", Json.obj (List.map (fun (k, v) -> (k, Json.num v)) (all traced)));
              ("spans", Json.arr (List.map span_json spans));
            ] )
        end
      in
      let main =
        {
          main with
          check_failures =
            main.check_failures
            @ List.filter_map
                (fun (k, v) ->
                  if Float.is_finite v then None else Some (k ^ " is not a finite number"))
                metrics;
        }
      in
      List.iter (fun f -> note "CHECK FAILED: %s" f) main.check_failures;
      let correct = main.check_failures = [] in
      let metric_json =
        Json.obj
          (List.map
             (fun (k, v) ->
               (k, Json.obj [ ("value", Json.num v); ("unit", Json.str (unit_of k)) ]))
             metrics)
      in
      let host = host_record ~workload ~seed ~seconds ~trace in
      mkdir_p ".pllbench_out";
      Runner.Atomic_file.write_string ~fsync:false
        (Printf.sprintf ".pllbench_out/%s-seed%d-trace%d.json" workload seed trace)
        (Json.obj
           ([
              ("host", Json.obj host);
              ("correct", Json.bool correct);
              ("check_failures", Json.arr (List.map Json.str main.check_failures));
              ("metrics", metric_json);
            ]
           @ main.info
           @ extra)
        ^ "\n");
      print_endline (Json.obj [ ("host", Json.obj host) ]);
      print_endline
        (Json.obj
           [
             ("correct", Json.bool correct);
             ("attempted", Json.int main.attempted);
             ("failed", Json.int main.failed);
             ("metrics", metric_json);
           ]);
      if not correct then exit 1
  | [] -> usage ()
