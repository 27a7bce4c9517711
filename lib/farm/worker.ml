(* Farm worker: the subprocess side of the protocol.

   A worker is a `pllscope farm-worker` (or test/bench twin) whose
   stdin/stdout are the coordinator's pipes. It reads one Hello, builds
   its task from the workload blob, then serves Assign ranges until Fin
   or EOF. A range is computed first; then its points are written to the
   worker's private checkpoint journal with one Journal.append_range and
   fsynced, and only then is the range acknowledged: every frame of a
   range is written and fsynced before its Done. A worker killed
   mid-range therefore loses at most its current range, which the
   coordinator re-queues whole — everything acknowledged survives into
   the merge. The worker's lanes are its share of the farm's domain
   budget: the coordinator sets PLLSCOPE_DOMAINS in its environment.

   Determinism: a range [lo, hi) is executed as a checked sweep over the
   global indices lo..hi-1 with the same in-lane retry and timeout
   configuration a single-process run uses, and the payload written per
   point is the task's own encoding — byte-equal to what Run.grid would
   journal for the same index. Failure reports are remapped to global
   task numbers so the coordinator's partial summary matches the
   single-process one. *)

let now () = (Unix.gettimeofday () [@lint.allow "nondeterminism"])

(* Remap a typed error whose task field is a range-local index to the
   global grid index. *)
let globalize_error ~lo (err : Robust.Pllscope_error.t) =
  match err with
  | Worker_failure w -> Robust.Pllscope_error.Worker_failure { w with task = lo + w.task }
  | Timed_out t -> Robust.Pllscope_error.Timed_out { t with task = lo + t.task }
  | Singular _ | Non_convergence _ | Non_finite _ | Parse _ | Cancelled _
  | Overloaded _ | Io_timeout _ | Budget_exhausted _ | Circuit_open _ ->
      err

let run_range ?chunk ?retries ?task_timeout journal task { Protocol.lo; hi } =
  let indices = Array.init (hi - lo) (fun k -> lo + k) in
  let partial =
    Parallel.Sweep.grid_checked ?chunk ?retries ?task_timeout task indices
  in
  Runner.Journal.append_range journal ~lo partial.Parallel.Sweep.values;
  Runner.Journal.sync journal;
  let failed =
    List.map
      (fun (local, err) -> (lo + local, globalize_error ~lo err))
      partial.Parallel.Sweep.failures
  in
  { Protocol.d_lo = lo; d_hi = hi; failed }

let serve ?chunk ?retries ?task_timeout ~resolve () =
  (* Keep the protocol stream private: dup the inherited stdout for
     framing, then point fd 1 at stderr so any stray print from the
     workload lands in the log instead of corrupting a frame. *)
  let in_fd = Unix.stdin in
  let out_fd = Unix.dup Unix.stdout in
  Unix.dup2 Unix.stderr Unix.stdout;
  Runner.Shutdown.ignore_sigpipe ();
  match Protocol.recv in_fd with
  | None -> ()
  | Some (Protocol.Hello hello) ->
      let chunk = match hello.chunk with Some _ as c -> c | None -> chunk in
      let retries =
        match hello.retries with Some _ as r -> r | None -> retries
      in
      let task_timeout =
        match hello.task_timeout with
        | Some _ as t -> t
        | None -> task_timeout
      in
      let task = resolve hello.shard hello.blob in
      Robust.Stats.reset ();
      let journal = Runner.Journal.open_append hello.journal in
      let waits = ref 0 in
      let wait_seconds = ref 0. in
      let quit = ref false in
      Fun.protect
        ~finally:(fun () -> Runner.Journal.close journal)
        (fun () ->
          (try
             Protocol.send out_fd Protocol.Ready;
             while not !quit do
               let idle_from = now () in
               match Protocol.recv in_fd with
               | Some (Protocol.Assign range) ->
                   let waited = now () -. idle_from in
                   if waited > 0. then wait_seconds := !wait_seconds +. waited;
                   incr waits;
                   let d =
                     run_range ?chunk ?retries ?task_timeout journal task range
                   in
                   Protocol.send out_fd (Protocol.Done d)
               | Some Protocol.Fin ->
                   Protocol.send out_fd
                     (Protocol.Exit
                        {
                          stats = Robust.Stats.snapshot ();
                          waits = !waits;
                          wait_seconds = !wait_seconds;
                        });
                   quit := true
               | Some (Protocol.Hello _ | Protocol.Ready | Protocol.Done _
                      | Protocol.Exit _) ->
                   (* protocol violation from the coordinator; nothing
                      sane to do but stop — the journal is intact *)
                   quit := true
               | None ->
                   (* coordinator gone: exit quietly, journal intact *)
                   quit := true
             done
           with Unix.Unix_error (Unix.EPIPE, _, _) ->
             (* coordinator closed its read end mid-send; same as EOF *)
             ());
          (try Unix.close out_fd with Unix.Unix_error _ -> ()))
  | Some (Protocol.Ready | Protocol.Assign _ | Protocol.Done _ | Protocol.Fin
         | Protocol.Exit _) ->
      invalid_arg "Worker.serve: expected Hello as first message"
