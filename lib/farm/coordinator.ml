(* Farm coordinator: shard a grid across worker subprocesses and merge
   their checkpoint journals into one canonical result.

   The coordinator never computes a point itself. It

     1. on resume, checks the identity record of the base journal and
        of every existing shard journal against the digest of the
        workload blob (a journal of another workload is a typed Parse
        error), then replays them to find which points are already
        done;
     2. partitions the missing indices into [shards] contiguous regions
        balanced by count;
     3. spawns [shards] workers, each shard journal created with the
        blob digest as its identity record (pipes on stdin/stdout, stderr
        inherited) and feeds each one slices carved from the front of
        its own region — and, with stealing on, from the back of the
        largest remaining region once its own runs dry;
     4. on worker death (EOF without an Exit frame) re-queues the
        worker's outstanding range at the front of its origin region so
        hungry workers pick it up;
     5. merges base + shard journals with Journal.merge — first frame
        per index wins, output sorted by index — which erases every
        trace of sharding, stealing, death and resume from the bytes.

   Bit-identity argument: the task is deterministic and the payload
   encoding is bit-exact, so any two frames for the same index — from
   different shards, from a dead worker's partial range re-run by a
   thief, from a previous interrupted run — hold identical bytes.
   First-wins dedup over identical candidates is therefore canonical,
   and sorting by index makes the merged journal a pure function of
   {task, grid}: byte-equal to a merged single-shard run, at any shard
   count, with or without kills and resumes. *)

let now () = (Unix.gettimeofday () [@lint.allow "nondeterminism"])

type config = {
  shards : int;
  steal : bool;
  resume : bool;
  checkpoint : string;
  blob : string;
  worker_argv : int -> string array;
  slice : int option;
  chunk : int option;
  retries : int option;
  task_timeout : float option;
  progress : bool;
}

type report = {
  payloads : string option array;
  failures : (int * Robust.Pllscope_error.t) list;
  total : int;
  resumed : int;
  steals : int;
  worker_deaths : int;
  assign_waits : int;
  assign_wait_seconds : float;
  merged_frames : int;
}

(* ------------------------------------------------------------------ *)
(* shard journal discovery                                             *)

let shard_path base k = base ^ ".shard" ^ string_of_int k

(* Every shard journal on disk for [base], whatever shard count wrote
   it — a resume may use fewer shards than the interrupted run. *)
let existing_shards base =
  let dir = Filename.dirname base in
  let prefix = Filename.basename base ^ ".shard" in
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun name ->
           String.length name > String.length prefix
           && String.sub name 0 (String.length prefix) = prefix)
    |> List.sort compare
    |> List.map (Filename.concat dir)

let remove_if_exists path = if Sys.file_exists path then Sys.remove path

(* ------------------------------------------------------------------ *)
(* work regions                                                        *)

type region = { mutable ranges : Protocol.range list; mutable count : int }

let region_of ranges =
  {
    ranges;
    count =
      List.fold_left (fun a { Protocol.lo; hi } -> a + hi - lo) 0 ranges;
  }

(* Maximal runs of not-yet-completed indices, ascending. *)
let missing_ranges completed n =
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    if completed.(!i) then incr i
    else begin
      let lo = !i in
      while !i < n && not completed.(!i) do
        incr i
      done;
      out := { Protocol.lo; hi = !i } :: !out
    end
  done;
  List.rev !out

(* Split the missing ranges into [k] contiguous regions of near-equal
   point count, preserving index order: counting missing points from 0,
   region j gets positions [j*total/k, (j+1)*total/k), so a clean fresh
   run shards the grid into k contiguous blocks and a ragged resume
   still balances what is left. *)
let partition ranges k =
  let total =
    List.fold_left (fun a { Protocol.lo; hi } -> a + hi - lo) 0 ranges
  in
  let bound j = j * total / k in
  let out = Array.make k [] in
  let pos = ref 0 in
  let j = ref 0 in
  List.iter
    (fun range ->
      let lo = ref range.Protocol.lo in
      let hi = range.Protocol.hi in
      while !lo < hi do
        while !j < k - 1 && bound (!j + 1) <= !pos do
          incr j
        done;
        let room = if !j = k - 1 then hi - !lo else bound (!j + 1) - !pos in
        let take = min (hi - !lo) room in
        out.(!j) <- { Protocol.lo = !lo; hi = !lo + take } :: out.(!j);
        pos := !pos + take;
        lo := !lo + take
      done)
    ranges;
  Array.map (fun l -> region_of (List.rev l)) out

(* Carve up to [slice] points from the front of [r]. *)
let carve_front r slice =
  match r.ranges with
  | [] -> None
  | ({ Protocol.lo; hi } as head) :: rest ->
      let size = hi - lo in
      if size <= slice then begin
        r.ranges <- rest;
        r.count <- r.count - size;
        Some head
      end
      else begin
        r.ranges <- { Protocol.lo = lo + slice; hi } :: rest;
        r.count <- r.count - slice;
        Some { Protocol.lo; hi = lo + slice }
      end

(* Carve up to [slice] points from the back of [r] (stealing: take the
   work its owner would reach last). *)
let carve_back r slice =
  match List.rev r.ranges with
  | [] -> None
  | { Protocol.lo; hi } :: rev_rest ->
      let size = hi - lo in
      if size <= slice then begin
        r.ranges <- List.rev rev_rest;
        r.count <- r.count - size;
        Some { Protocol.lo; hi }
      end
      else begin
        r.ranges <- List.rev ({ Protocol.lo; hi = hi - slice } :: rev_rest);
        r.count <- r.count - slice;
        Some { Protocol.lo = hi - slice; hi }
      end

let requeue_front r ({ Protocol.lo; hi } as range) =
  r.ranges <- range :: r.ranges;
  r.count <- r.count + (hi - lo)

(* ------------------------------------------------------------------ *)
(* worker bookkeeping                                                  *)

type wstate =
  | Starting  (* spawned, Hello sent, Ready not yet seen *)
  | Busy  (* an Assign is outstanding *)
  | Hungry  (* asked for work; parked until a range frees up *)
  | Finishing  (* Fin sent, Exit not yet seen *)
  | Exited  (* Exit seen; awaiting EOF *)
  | Gone  (* fds closed, process reaped *)

type wrk = {
  k : int;
  pid : int;
  to_w : Unix.file_descr;
  from_w : Unix.file_descr;
  mutable state : wstate;
  mutable outstanding : Protocol.range option;
}

let spawn cfg ~key k =
  (* a shard journal starts with the workload's identity record *)
  let journal = shard_path cfg.checkpoint k in
  if not (Sys.file_exists journal) then
    Runner.Journal.close (Runner.Journal.create journal ~key);
  (* worker stdin <- [w_c]; worker stdout -> [r_c]. Both pipe ends are
     cloexec in this process; create_process dup2s the child ends onto
     fds 0/1, which clears cloexec there — essential, otherwise the
     coordinator would never see EOF when a worker dies. *)
  let r_c, w_w = Unix.pipe ~cloexec:true () in
  let r_w, w_c = Unix.pipe ~cloexec:true () in
  let argv = cfg.worker_argv k in
  let pid = Unix.create_process argv.(0) argv r_w w_w Unix.stderr in
  Unix.close r_w;
  Unix.close w_w;
  let w =
    { k; pid; to_w = w_c; from_w = r_c; state = Starting; outstanding = None }
  in
  (* If the child died instantly (exec failure) this raises EPIPE; the
     event loop then sees EOF and takes the death path. *)
  (try
     Protocol.send w.to_w
       (Protocol.Hello
          {
            shard = k;
            journal;
            blob = cfg.blob;
            chunk = cfg.chunk;
            retries = cfg.retries;
            task_timeout = cfg.task_timeout;
          })
   with Unix.Unix_error (Unix.EPIPE, _, _) -> ());
  w

let reap w =
  (try Unix.close w.to_w with Unix.Unix_error _ -> ());
  (try Unix.close w.from_w with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ());
  w.state <- Gone

(* ------------------------------------------------------------------ *)
(* the run                                                             *)

let validate cfg ~n =
  if cfg.shards < 1 then invalid_arg "Coordinator.run: shards must be >= 1";
  if n < 0 then invalid_arg "Coordinator.run: negative grid size";
  if String.length cfg.checkpoint = 0 then
    invalid_arg "Coordinator.run: empty checkpoint path"

let run cfg ~n =
  validate cfg ~n;
  Runner.Shutdown.ignore_sigpipe ();
  let base = cfg.checkpoint in
  (* --- prior state --- *)
  if not cfg.resume then begin
    remove_if_exists base;
    List.iter remove_if_exists (existing_shards base)
  end;
  let key = Digest.string cfg.blob in
  let completed = Array.make (max n 1) false in
  let mark (i, _) = if i >= 0 && i < n then completed.(i) <- true in
  if cfg.resume then begin
    let prior =
      (if Sys.file_exists base then [ base ] else []) @ existing_shards base
    in
    List.iter (fun p -> Runner.Journal.check_key p ~key) prior;
    List.iter (fun p -> List.iter mark (Runner.Journal.replay p)) prior
  end;
  let resumed = Array.fold_left (fun a c -> if c then a + 1 else a) 0 completed in
  let resumed = if n = 0 then 0 else min resumed n in
  Robust.Stats.record_resumed resumed;
  let missing = missing_ranges completed n in
  let missing_total =
    List.fold_left (fun a { Protocol.lo; hi } -> a + hi - lo) 0 missing
  in
  let regions = partition missing cfg.shards in
  let slice =
    match cfg.slice with
    | Some s ->
        if s < 1 then invalid_arg "Coordinator.run: slice must be >= 1";
        s
    | None -> max 1 (missing_total / (cfg.shards * 16))
  in
  (* --- counters --- *)
  let steals = ref 0 in
  let worker_deaths = ref 0 in
  let assign_waits = ref 0 in
  let assign_wait_seconds = ref 0. in
  let points_done = ref resumed in
  let failures : (int, Robust.Pllscope_error.t) Hashtbl.t =
    Hashtbl.create 64
  in
  let cancelled = ref false in
  let check_cancel () =
    if Parallel.Cancel.is_cancelled (Parallel.Cancel.global ()) then
      cancelled := true
  in
  (* --- work handout --- *)
  let next_range k =
    if !cancelled then None
    else
      match carve_front regions.(k) slice with
      | Some _ as r -> r
      | None ->
          if not cfg.steal then None
          else begin
            (* steal from the back of the fattest region *)
            let best = ref (-1) in
            Array.iteri
              (fun j r ->
                if r.count > 0 && (!best < 0 || r.count > regions.(!best).count)
                then best := j)
              regions;
            if !best < 0 then None
            else
              match carve_back regions.(!best) slice with
              | Some _ as r ->
                  incr steals;
                  r
              | None -> None
          end
  in
  (* --- spawn --- *)
  let workers =
    if missing_total = 0 then [||]
    else Array.init cfg.shards (fun k -> spawn cfg ~key k)
  in
  let live () =
    Array.exists (fun w -> w.state <> Gone) workers
  in
  let on_death w =
    (* EOF (or EPIPE) without Exit: the worker died. Its journal holds
       everything it completed; its outstanding range goes back to the
       front of its own region so the remaining points get re-run. *)
    if w.state <> Exited then begin
      incr worker_deaths;
      (match w.outstanding with
      | Some range -> requeue_front regions.(w.k) range
      | None -> ())
    end;
    w.outstanding <- None;
    reap w
  in
  let fin w =
    match Protocol.send w.to_w Protocol.Fin with
    | () -> w.state <- Finishing
    | exception Unix.Unix_error (Unix.EPIPE, _, _) -> on_death w
  in
  let assign w =
    match next_range w.k with
    | Some range -> (
        match Protocol.send w.to_w (Protocol.Assign range) with
        | () ->
            w.state <- Busy;
            w.outstanding <- Some range
        | exception Unix.Unix_error (Unix.EPIPE, _, _) ->
            requeue_front regions.(w.k) range;
            on_death w)
    | None ->
        (* No work to hand out right now. If some other worker still has
           an outstanding range, its death could re-queue work we can
           steal — park. Otherwise nothing can appear: finish. *)
        let outstanding_elsewhere =
          cfg.steal && (not !cancelled)
          && Array.exists
               (fun o -> o.k <> w.k && o.outstanding <> None)
               workers
        in
        if outstanding_elsewhere then w.state <- Hungry else fin w
  in
  let wake_hungry () =
    Array.iter (fun w -> if w.state = Hungry then assign w) workers
  in
  (* --- progress --- *)
  let tty = cfg.progress && Unix.isatty Unix.stderr in
  let last_progress = ref 0. in
  let progress ~final () =
    if tty then begin
      let t = now () in
      if final || t -. !last_progress > 0.2 then begin
        last_progress := t;
        let busy =
          Array.fold_left
            (fun a w -> if w.state = Busy then a + 1 else a)
            0 workers
        in
        Printf.eprintf "\rfarm: %d/%d points, %d worker(s) busy, %d steal(s), %d death(s)%s%!"
          !points_done n busy !steals !worker_deaths
          (if final then "\n" else "")
      end
    end
  in
  (* --- event loop --- *)
  let handle w =
    match Protocol.recv w.from_w with
    | None ->
        on_death w;
        (* a death may have re-queued work a parked worker can take, or
           removed the last outstanding range a parked worker was
           waiting on — either way, re-evaluate *)
        wake_hungry ()
    | Some Protocol.Ready -> assign w
    | Some (Protocol.Done d) ->
        List.iter
          (fun (i, err) ->
            if not (Hashtbl.mem failures i) then Hashtbl.add failures i err)
          d.Protocol.failed;
        points_done := !points_done + (d.Protocol.d_hi - d.Protocol.d_lo);
        w.outstanding <- None;
        assign w;
        wake_hungry ()
    | Some (Protocol.Exit e) ->
        Robust.Stats.absorb e.Protocol.stats;
        assign_waits := !assign_waits + e.Protocol.waits;
        assign_wait_seconds := !assign_wait_seconds +. e.Protocol.wait_seconds;
        w.state <- Exited
    | Some (Protocol.Hello _ | Protocol.Assign _ | Protocol.Fin) ->
        (* protocol violation from the worker: treat as death *)
        on_death w;
        wake_hungry ()
  in
  while live () do
    check_cancel ();
    if !cancelled then
      (* stop handing out work; release parked workers *)
      Array.iter (fun w -> if w.state = Hungry then fin w) workers;
    let fds =
      Array.to_list workers
      |> List.filter_map (fun w ->
             if w.state = Gone then None else Some w.from_w)
    in
    if fds = [] then ()
    else begin
      match Unix.select fds [] [] 0.25 with
      | readable, _, _ ->
          List.iter
            (fun fd ->
              match
                Array.find_opt
                  (fun w -> w.state <> Gone && w.from_w = fd)
                  workers
              with
              | Some w -> handle w
              | None -> ())
            readable
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    end;
    progress ~final:false ()
  done;
  if Array.length workers > 0 then progress ~final:true ();
  (* --- merge --- *)
  check_cancel ();
  let sources =
    (if cfg.resume && Sys.file_exists base then [ base ] else [])
    @ existing_shards base
  in
  let merged_frames =
    if sources = [] then begin
      (* nothing ran and nothing pre-existed: write an empty journal so
         the checkpoint path is valid for later resumes *)
      Runner.Journal.close (Runner.Journal.create base ~key);
      0
    end
    else Runner.Journal.merge ~into:base sources
  in
  List.iter remove_if_exists (existing_shards base);
  (* --- result assembly --- *)
  let payloads = Array.make (max n 1) None in
  List.iter
    (fun (i, payload) ->
      if i >= 0 && i < n && payloads.(i) = None then
        payloads.(i) <- Some payload)
    (Runner.Journal.replay base);
  let payloads = if n = Array.length payloads then payloads else Array.sub payloads 0 n in
  let final_failures = ref [] in
  for i = n - 1 downto 0 do
    if payloads.(i) = None then
      let err =
        match Hashtbl.find_opt failures i with
        | Some err -> err
        | None ->
            if !cancelled then
              Robust.Pllscope_error.Cancelled
                { reason = "farm: run cancelled before this point" }
            else
              Robust.Pllscope_error.Worker_failure
                {
                  task = i;
                  attempts = 0;
                  last = "farm: worker died before computing this point";
                }
      in
      final_failures := (i, err) :: !final_failures
  done;
  List.iter
    (fun (_, err) ->
      match (err : Robust.Pllscope_error.t) with
      | Cancelled _ -> Robust.Stats.record_cancelled ()
      | Worker_failure _ | Singular _ | Non_convergence _ | Non_finite _
      | Parse _ | Timed_out _ | Overloaded _ | Io_timeout _
      | Budget_exhausted _ | Circuit_open _ ->
          ())
    !final_failures;
  {
    payloads;
    failures = !final_failures;
    total = n;
    resumed;
    steals = !steals;
    worker_deaths = !worker_deaths;
    assign_waits = !assign_waits;
    assign_wait_seconds = !assign_wait_seconds;
    merged_frames;
  }
