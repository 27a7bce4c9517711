(* Crash-safe sweep execution: Sweep.grid_checked plus a checkpoint
   journal and resume.

   The task wrapper journals each computed point (index + encoded
   value) before returning it, so at any instant the journal holds a
   durable prefix-closed record of finished work. On resume we replay
   the journal into a [completed] table and run the *same* checked
   sweep over the full index range, with already-completed points
   short-circuiting to their replayed value. Running over the full
   range (rather than packing the remainder) keeps task indices, chunk
   boundaries and error payloads identical to an uninterrupted run —
   which, together with Codec's bit-exact float round-trip and the
   pool's own schedule-independence, is why a resumed run is
   bit-identical to an uninterrupted one at any pool size. *)

let crash_if_injected () =
  if Robust.Inject.fire Robust.Inject.Crash_at_point then
    raise Robust.Inject.Simulated_crash

let grid ?pool ?chunk ?retries ?cancel ?task_timeout ?checkpoint
    ?(resume = false) f a =
  if resume && checkpoint = None then
    invalid_arg "Run.grid: resume requires a checkpoint path";
  let n = Array.length a in
  let completed = Array.make n None in
  (match checkpoint with
  | Some (path, key) when resume ->
      Journal.check_key path ~key;
      let count = ref 0 in
      List.iter
        (fun (i, payload) ->
          if i >= 0 && i < n && completed.(i) = None then begin
            completed.(i) <- Some (Codec.decode_exn ~file:path payload);
            incr count
          end)
        (Journal.replay path);
      Robust.Stats.record_resumed !count
  | Some (path, _) ->
      (* fresh run: a stale journal must not leak old points *)
      if Sys.file_exists path then Sys.remove path
  | None -> ());
  (* a journal this run starts records its key; one it resumes keeps
     what it has (a journal from before the record, none) *)
  let open_journal (path, key) =
    if Sys.file_exists path then Journal.open_append path
    else Journal.create path ~key
  in
  let journal = Option.map open_journal checkpoint in
  Fun.protect
    ~finally:(fun () -> Option.iter Journal.close journal)
    (fun () ->
      let task i =
        match completed.(i) with
        | Some v -> v
        | None ->
            let v = f a.(i) in
            Option.iter
              (fun j -> Journal.append j ~index:i (Codec.encode v))
              journal;
            (* fires only for freshly computed points, after their
               frame is on disk — the resume tests rely on that *)
            crash_if_injected ();
            v
      in
      Parallel.Sweep.grid_checked ?pool ?chunk ?retries ?cancel ?task_timeout
        task
        (Array.init n (fun i -> i)))
