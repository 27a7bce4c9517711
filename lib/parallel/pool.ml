type stats = {
  domains : int;
  maps : int;
  tasks : int;
  items : int;
  wall_seconds : float;
  busy_seconds : float;
}

type t = {
  size : int;
  m : Mutex.t;
  nonempty : Condition.t;  (* a task was queued / shutdown requested *)
  finished : Condition.t;  (* some map call's last helper completed *)
  queue : (unit -> unit) Queue.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
  maps : int Atomic.t;
  tasks : int Atomic.t;
  items : int Atomic.t;
  wall_us : int Atomic.t;
  busy_us : int Atomic.t;
}

let default_domains () =
  match Sys.getenv_opt "PLLSCOPE_DOMAINS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some d when d >= 1 -> Stdlib.min d 64
      | _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

(* Queued thunks never raise: chunk loops catch everything into the
   per-map failure slot, so a worker survives any mapped function. *)
let rec worker_loop pool =
  Mutex.lock pool.m;
  while Queue.is_empty pool.queue && not pool.closed do
    Condition.wait pool.nonempty pool.m
  done;
  if Queue.is_empty pool.queue then Mutex.unlock pool.m
  else begin
    let task = Queue.pop pool.queue in
    Mutex.unlock pool.m;
    task ();
    worker_loop pool
  end

let create ?domains () =
  let size =
    match domains with
    | Some d -> Stdlib.max 1 d
    | None -> Stdlib.max 1 (default_domains ())
  in
  let pool =
    {
      size;
      m = Mutex.create ();
      nonempty = Condition.create ();
      finished = Condition.create ();
      queue = Queue.create ();
      closed = false;
      workers = [];
      maps = Atomic.make 0;
      tasks = Atomic.make 0;
      items = Atomic.make 0;
      wall_us = Atomic.make 0;
      busy_us = Atomic.make 0;
    }
  in
  pool.workers <-
    List.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let size pool = pool.size

let default_mutex = Mutex.create ()
let default_pool = ref None

let default () =
  Mutex.lock default_mutex;
  let p =
    match !default_pool with
    | Some p -> p
    | None ->
        let p = create () in
        default_pool := Some p;
        p
  in
  Mutex.unlock default_mutex;
  p

let add_us counter dt = ignore (Atomic.fetch_and_add counter (int_of_float (dt *. 1e6)))

(* Wall-clock reads feed only the stats counters (wall_us/busy_us) that
   [pp_stats] reports and the watchdog's overdue decisions; they never
   touch map results, so the pool's bit-identical-at-any-size guarantee
   is unaffected. *)
let now () = (Unix.gettimeofday () [@lint.allow "nondeterminism"])

(* ------------------------------------------------------------------ *)
(* Per-task watchdog                                                   *)

(* One control block per lane. [slot] publishes the attempt the lane is
   currently executing — (attempt ordinal, task index, start time) — to
   the monitor domain; [overdue] carries back the ordinal the monitor
   declared overdue (0 = none). Matching on the ordinal (not a bare
   flag) makes the protocol race-free: a stale verdict about a finished
   attempt can never condemn the next one. *)
type lane_ctl = {
  slot : (int * int * float) option Atomic.t;
  overdue : int Atomic.t;
  mutable seq : int;  (* attempt ordinal counter; owner lane only *)
}

let make_ctl () = { slot = Atomic.make None; overdue = Atomic.make 0; seq = 0 }

type watchdog = { timeout : float; ctls : lane_ctl array }

(* One daemon domain serves every watched map in the process (like the
   default pool's workers, it is never joined): maps register their
   watchdog on start and deregister on finish, so arming a watchdog
   costs two mutexed list operations instead of a domain spawn + join
   per map. The daemon only *marks* overdue attempts; abandoning the
   task is cooperative (the owning lane notices at its next poll
   point, and only the task-hang injection site polls). A task that
   never polls runs to completion regardless — the watchdog cannot
   preempt a domain — and its value stands: [run_one] returns [Ok]; only
   an exception raised while overdue is reported as a timeout. *)
let wd_mutex = Mutex.create ()
let wd_active : watchdog list ref = ref []
let wd_daemon = ref false

let wd_scan t active =
  List.iter
    (fun wd ->
      Array.iter
        (fun c ->
          match Atomic.get c.slot with
          | Some (seq, _, t0) when t -. t0 > wd.timeout ->
              Atomic.set c.overdue seq
          | _ -> ())
        wd.ctls)
    active

let wd_daemon_loop () =
  let rec loop () =
    Mutex.lock wd_mutex;
    let active = !wd_active in
    Mutex.unlock wd_mutex;
    wd_scan (now ()) active;
    (* scan cadence: a fraction of the tightest active timeout, so a
       timeout is detected within ~9/8 of its bound; idle, the daemon
       naps at 50 ms and costs nothing measurable *)
    let hop =
      List.fold_left
        (fun h wd -> Stdlib.min h (Stdlib.max 0.0005 (wd.timeout /. 8.0)))
        0.05 active
    in
    Unix.sleepf hop;
    loop ()
  in
  loop ()

let watchdog_start ~timeout nlanes =
  let wd = { timeout; ctls = Array.init nlanes (fun _ -> make_ctl ()) } in
  Mutex.lock wd_mutex;
  wd_active := wd :: !wd_active;
  if not !wd_daemon then begin
    wd_daemon := true;
    ignore (Domain.spawn wd_daemon_loop)
  end;
  Mutex.unlock wd_mutex;
  wd

let watchdog_stop wd =
  Mutex.lock wd_mutex;
  wd_active := List.filter (fun w -> w != wd) !wd_active;
  Mutex.unlock wd_mutex

(* The watchdog condemned the running attempt. *)
exception Lane_timeout

(* ------------------------------------------------------------------ *)
(* Chunked index execution                                             *)

let extract out =
  Array.map (function Some v -> v | None -> assert false) out

(* Run [body ctl lo hi] over the chunks [lo..hi] of [0 .. n-1], handed
   out through an atomic cursor. The caller is always one of the lanes;
   worker domains pick up at most [chunks - 1] helper thunks from the
   shared queue. Each index is executed exactly once by whichever lane
   claims its chunk, and each lane writes only its own indices, so
   results cannot depend on the schedule.

   Lanes poll [cancel] before claiming each chunk: once the token is
   cancelled no new chunk starts, in-flight chunks finish, and the
   function returns the cancellation reason iff some chunk was never
   executed. A failure in any chunk still cancels the sweep and
   re-raises in the caller. *)
let run_core ?chunk ?(cancel = Cancel.global ()) ?task_timeout pool n body =
  if pool.closed then invalid_arg "Pool.run_indices: pool has been shut down";
  if n <= 0 then None
  else begin
    let chunk =
      match chunk with
      | Some c when c >= 1 -> c
      | Some _ -> invalid_arg "Pool.map: chunk must be >= 1"
      | None -> Stdlib.max 1 (Stdlib.min 32 (n / (4 * pool.size)))
    in
    let chunks = (n + chunk - 1) / chunk in
    let cursor = Atomic.make 0 in
    let completed = Atomic.make 0 in
    let failure = Atomic.make None in
    let helpers = Stdlib.min (pool.size - 1) (chunks - 1) in
    let wd =
      match task_timeout with
      | Some timeout when timeout > 0.0 ->
          Some (watchdog_start ~timeout (helpers + 1))
      | Some _ -> invalid_arg "Pool.map_checked: task_timeout must be > 0"
      | None -> None
    in
    let next_lane = Atomic.make 0 in
    let lane () =
      let ctl =
        match wd with
        | None -> None
        | Some wd ->
            let id = Atomic.fetch_and_add next_lane 1 in
            (* nested maps on the same pool can enlist more lanes than
               helpers + 1 (a parked lane drains foreign chunks); spill
               lanes simply run unwatched *)
            if id < Array.length wd.ctls then Some wd.ctls.(id) else None
      in
      let rec loop () =
        if Atomic.get failure = None && not (Cancel.is_cancelled cancel) then begin
          let c = Atomic.fetch_and_add cursor 1 in
          if c < chunks then begin
            let t0 = now () in
            (try
               let lo = c * chunk in
               body ctl lo (Stdlib.min n (lo + chunk) - 1);
               Atomic.incr completed
             with e ->
               let bt = Printexc.get_raw_backtrace () in
               ignore (Atomic.compare_and_set failure None (Some (e, bt))));
            Atomic.incr pool.tasks;
            add_us pool.busy_us (now () -. t0);
            loop ()
          end
        end
      in
      loop ()
    in
    let remaining = Atomic.make helpers in
    let t0 = now () in
    if helpers > 0 then begin
      Mutex.lock pool.m;
      for _ = 1 to helpers do
        Queue.push
          (fun () ->
            lane ();
            if Atomic.fetch_and_add remaining (-1) = 1 then begin
              Mutex.lock pool.m;
              Condition.broadcast pool.finished;
              Mutex.unlock pool.m
            end)
          pool.queue
      done;
      Condition.broadcast pool.nonempty;
      Mutex.unlock pool.m
    end;
    lane ();
    (* Wait for the helper thunks — but keep draining the shared queue
       while doing so. A lane that maps on its own pool (nested sweep)
       would otherwise park here while the tasks it is waiting for sit
       unclaimed behind it in the queue. *)
    let rec wait () =
      if Atomic.get remaining > 0 then begin
        Mutex.lock pool.m;
        if Queue.is_empty pool.queue then begin
          if Atomic.get remaining > 0 then Condition.wait pool.finished pool.m;
          Mutex.unlock pool.m
        end
        else begin
          let task = Queue.pop pool.queue in
          Mutex.unlock pool.m;
          task ()
        end;
        wait ()
      end
    in
    wait ();
    Option.iter watchdog_stop wd;
    Atomic.incr pool.maps;
    ignore (Atomic.fetch_and_add pool.items n);
    add_us pool.wall_us (now () -. t0);
    match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
        if Atomic.get completed < chunks then Cancel.get cancel else None
  end

(* Plain variant: cancellation mid-map has no partial result to return,
   so it raises in the caller. *)
let run_chunks ?chunk ?cancel pool n body =
  match run_core ?chunk ?cancel pool n (fun _ lo hi -> body lo hi) with
  | None -> ()
  | Some r -> raise (Cancel.Cancelled r)

let run_indices ?chunk ?cancel pool n body =
  run_chunks ?chunk ?cancel pool n (fun lo hi ->
      for i = lo to hi do
        body i
      done)

let mapi ?chunk ?cancel pool f a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    run_indices ?chunk ?cancel pool n (fun i -> out.(i) <- Some (f i a.(i)));
    extract out
  end

let map ?chunk ?cancel pool f a = mapi ?chunk ?cancel pool (fun _ x -> f x) a

let map_chunked ?chunk ?cancel pool ~enter ~leave f a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    run_chunks ?chunk ?cancel pool n (fun lo hi ->
        let st = enter () in
        match
          for i = lo to hi do
            out.(i) <- Some (f st a.(i))
          done
        with
        | () -> leave st
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            leave st;
            Printexc.raise_with_backtrace e bt);
    extract out
  end

(* One task under the retry policy. Retries happen in-lane, per index,
   before the lane moves on — the schedule never observes a failure, so
   the bit-identical-at-any-pool-size guarantee of [run_core] carries
   over to every lane that eventually succeeds.

   Three exceptions bypass the retry loop: [Lane_timeout] (the watchdog
   condemned the attempt — retrying a hang would hang again) becomes a
   typed [Timed_out]; [Cancel.Cancelled] escaping the task body (a
   nested map noticed the run was cancelled) becomes a typed
   [Cancelled]; and [Inject.Simulated_crash] (the harness is modeling
   abrupt process death) propagates so the whole map aborts exactly
   like a killed process would. *)
let run_one ~retries ~task ~ctl ~timeout f x =
  let start_attempt () =
    match ctl with
    | Some c ->
        c.seq <- c.seq + 1;
        Atomic.set c.slot (Some (c.seq, task, now ()))
    | None -> ()
  in
  let clear () =
    match ctl with Some c -> Atomic.set c.slot None | None -> ()
  in
  let overdue () =
    match ctl with
    | Some c -> Atomic.get c.overdue = c.seq
    | None -> false
  in
  (* injected cooperative hang: park until the watchdog condemns this
     attempt, exactly like a stuck solver that checks the watchdog *)
  let hang () =
    match ctl with
    | Some _ ->
        while not (overdue ()) do
          Unix.sleepf 0.001
        done;
        raise Lane_timeout
    | None ->
        failwith
          "Pool.map_checked: injected task-hang with no task_timeout armed"
  in
  let finish r =
    clear ();
    r
  in
  let rec attempt k =
    start_attempt ();
    match
      if Robust.Inject.fire Robust.Inject.Pool_task then
        failwith "Pool.map_checked: injected pool-task fault"
      else if Robust.Inject.fire Robust.Inject.Task_hang then hang ()
      else f x
    with
    | v -> finish (Ok v)
    | exception Lane_timeout ->
        Robust.Stats.record_timeout ();
        finish
          (Error
             (Robust.Pllscope_error.Timed_out
                { task; seconds = Option.value timeout ~default:0.0 }))
    | exception Robust.Inject.Simulated_crash ->
        clear ();
        raise Robust.Inject.Simulated_crash
    | exception Cancel.Cancelled r ->
        (* a nested map inside the task body observed the cancellation;
           that's the run being cancelled, not the task failing — no
           retry, typed Cancelled slot *)
        Robust.Stats.record_cancelled ();
        finish
          (Error
             (Robust.Pllscope_error.Cancelled
                { reason = Cancel.reason_to_string r }))
    | exception e ->
        if overdue () then begin
          (* the watchdog condemned this attempt while it was failing;
             report the timeout, not the incidental exception *)
          Robust.Stats.record_timeout ();
          finish
            (Error
               (Robust.Pllscope_error.Timed_out
                  { task; seconds = Option.value timeout ~default:0.0 }))
        end
        else if k < retries then begin
          Robust.Stats.record_retry ();
          attempt (k + 1)
        end
        else begin
          Robust.Stats.record_worker_failure ();
          finish
            (Error
               (Robust.Pllscope_error.Worker_failure
                  { task; attempts = k + 1; last = Printexc.to_string e }))
        end
  in
  attempt 0

let map_checked ?chunk ?(retries = 2) ?cancel ?task_timeout pool f a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    let reason =
      run_core ?chunk ?cancel ?task_timeout pool n (fun ctl lo hi ->
          for i = lo to hi do
            out.(i) <-
              Some (run_one ~retries ~task:i ~ctl ~timeout:task_timeout f a.(i))
          done)
    in
    match reason with
    | None -> extract out
    | Some r ->
        (* cancelled mid-map: points whose chunk never ran become typed
           [Cancelled] slots so everything computed is still returned *)
        let reason = Cancel.reason_to_string r in
        Array.map
          (function
            | Some v -> v
            | None ->
                Robust.Stats.record_cancelled ();
                Error (Robust.Pllscope_error.Cancelled { reason }))
          out
  end

let init ?chunk ?cancel pool n f =
  if n < 0 then invalid_arg "Pool.init: negative size";
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    run_indices ?chunk ?cancel pool n (fun i -> out.(i) <- Some (f i));
    extract out
  end

let stats pool =
  {
    domains = pool.size;
    maps = Atomic.get pool.maps;
    tasks = Atomic.get pool.tasks;
    items = Atomic.get pool.items;
    wall_seconds = float_of_int (Atomic.get pool.wall_us) *. 1e-6;
    busy_seconds = float_of_int (Atomic.get pool.busy_us) *. 1e-6;
  }

let reset_stats pool =
  Atomic.set pool.maps 0;
  Atomic.set pool.tasks 0;
  Atomic.set pool.items 0;
  Atomic.set pool.wall_us 0;
  Atomic.set pool.busy_us 0

let shutdown pool =
  Mutex.lock pool.m;
  if pool.closed then Mutex.unlock pool.m
  else begin
    pool.closed <- true;
    Condition.broadcast pool.nonempty;
    Mutex.unlock pool.m;
    List.iter Domain.join pool.workers;
    pool.workers <- []
  end

let with_pool ?domains f =
  let pool = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
