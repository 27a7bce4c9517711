(* Per-run counters of the robustness machinery.

   Counters are atomics: guard sites fire from pool worker domains.
   [snapshot] is a plain record so callers (the CLI, tests) can diff
   before/after a run; [reset] starts a fresh run. *)

type t = {
  dense_fallbacks : int;
  singular_guards : int;
  nonfinite_guards : int;
  non_convergences : int;
  pool_retries : int;
  worker_failures : int;
  task_timeouts : int;
  cancelled_points : int;
  resumed_points : int;
}

let dense_fallbacks = Atomic.make 0
let singular_guards = Atomic.make 0
let nonfinite_guards = Atomic.make 0
let non_convergences = Atomic.make 0
let pool_retries = Atomic.make 0
let worker_failures = Atomic.make 0
let task_timeouts = Atomic.make 0
let cancelled_points = Atomic.make 0
let resumed_points = Atomic.make 0

let snapshot () =
  {
    dense_fallbacks = Atomic.get dense_fallbacks;
    singular_guards = Atomic.get singular_guards;
    nonfinite_guards = Atomic.get nonfinite_guards;
    non_convergences = Atomic.get non_convergences;
    pool_retries = Atomic.get pool_retries;
    worker_failures = Atomic.get worker_failures;
    task_timeouts = Atomic.get task_timeouts;
    cancelled_points = Atomic.get cancelled_points;
    resumed_points = Atomic.get resumed_points;
  }

let reset () =
  Atomic.set dense_fallbacks 0;
  Atomic.set singular_guards 0;
  Atomic.set nonfinite_guards 0;
  Atomic.set non_convergences 0;
  Atomic.set pool_retries 0;
  Atomic.set worker_failures 0;
  Atomic.set task_timeouts 0;
  Atomic.set cancelled_points 0;
  Atomic.set resumed_points 0

let total s =
  s.dense_fallbacks + s.singular_guards + s.nonfinite_guards
  + s.non_convergences + s.pool_retries + s.worker_failures + s.task_timeouts
  + s.cancelled_points + s.resumed_points

(* Classify the triggering error so the snapshot says *why* the dense
   oracle was consulted, not just how often. *)
let record_fallback err =
  Atomic.incr dense_fallbacks;
  match (err : Pllscope_error.t) with
  | Singular _ -> Atomic.incr singular_guards
  | Non_finite _ -> Atomic.incr nonfinite_guards
  | Non_convergence _ -> Atomic.incr non_convergences
  | Parse _ | Worker_failure _ | Timed_out _ | Cancelled _ | Overloaded _
  | Io_timeout _ | Budget_exhausted _ | Circuit_open _ ->
      ()

let record_guard err =
  match (err : Pllscope_error.t) with
  | Singular _ -> Atomic.incr singular_guards
  | Non_finite _ -> Atomic.incr nonfinite_guards
  | Non_convergence _ -> Atomic.incr non_convergences
  | Parse _ | Worker_failure _ | Timed_out _ | Cancelled _ | Overloaded _
  | Io_timeout _ | Budget_exhausted _ | Circuit_open _ ->
      ()

let record_retry () = Atomic.incr pool_retries
let record_worker_failure () = Atomic.incr worker_failures
let record_timeout () = Atomic.incr task_timeouts
let record_cancelled () = Atomic.incr cancelled_points

let record_resumed n =
  if n > 0 then ignore (Atomic.fetch_and_add resumed_points n)

(* Fold a snapshot from another process (a farm worker's exit frame)
   into the live counters, so the coordinator's end-of-run summary
   covers the whole farm rather than being per-process-local. *)
let absorb s =
  let add a n = if n > 0 then ignore (Atomic.fetch_and_add a n) in
  add dense_fallbacks s.dense_fallbacks;
  add singular_guards s.singular_guards;
  add nonfinite_guards s.nonfinite_guards;
  add non_convergences s.non_convergences;
  add pool_retries s.pool_retries;
  add worker_failures s.worker_failures;
  add task_timeouts s.task_timeouts;
  add cancelled_points s.cancelled_points;
  add resumed_points s.resumed_points

let pp ppf s =
  Format.fprintf ppf
    "robust: %d dense fallback(s) (%d singular, %d non-finite, %d \
     non-convergent), %d pool retry(ies), %d worker failure(s), %d \
     timeout(s), %d cancelled point(s), %d resumed point(s)"
    s.dense_fallbacks s.singular_guards s.nonfinite_guards s.non_convergences
    s.pool_retries s.worker_failures s.task_timeouts s.cancelled_points
    s.resumed_points
