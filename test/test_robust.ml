(* The numerical-robustness layer end to end:

   - typed errors render deterministically (to_string, parse_snippet);
   - checked LU reports condition estimates and typed Singular errors on
     Hilbert-like and rank-deficient matrices;
   - every injected fault (lu-pivot, smat-nan, power-stall, pool-task)
     produces its typed error or a dense-oracle fallback that matches
     to_matrix_dense to 1e-9, counted in Robust.Stats; smat-nan and
     grid-plan-nan also under row demand, at a row other than 0;
   - the SMW denominator guard degrades a near-singular closed loop to
     the dense oracle (and raises under --strict);
   - checked pool sweeps retry deterministically, survivors staying
     bit-identical at any pool size. *)

open Numeric
open Helpers
module Htm = Htm_core.Htm
module Plan = Htm_core.Plan
module Pool = Parallel.Pool
module Sweep = Parallel.Sweep
module E = Robust.Pllscope_error

(* every test restores the global robustness state, pass or fail *)
let clean f () =
  Fun.protect
    ~finally:(fun () ->
      Robust.Inject.disarm ();
      Robust.Config.reset ();
      Robust.Stats.reset ();
      Parallel.Cancel.reset_global ())
    f

let ctx3 = Htm.ctx ~n_harm:3 ~omega0:2.0

let check_matches_oracle ?(tol = 1e-9) msg ctx t s =
  let got = Htm.to_matrix ctx t s in
  let oracle = Htm.to_matrix_dense ctx t s in
  let n = Htm.dim ctx in
  for i = 0 to n - 1 do
    for k = 0 to n - 1 do
      check_cx ~tol
        (Printf.sprintf "%s (%d,%d)" msg i k)
        (Cmat.get oracle i k) (Cmat.get got i k)
    done
  done

(* ------------------------------------------------------------------ *)
(* typed errors                                                        *)

let test_error_strings () =
  let s = E.to_string in
  check_true "singular prints cond"
    (s (Singular { cond_est = 1e13; context = "Plan.feedback" })
    = "Plan.feedback: matrix is numerically singular (cond ~ 1.000e+13)");
  check_true "exact singular prints zero pivot"
    (s (Singular { cond_est = Float.infinity; context = "lu" })
    = "lu: matrix is exactly singular (zero pivot)");
  check_true "non-convergence"
    (s (Non_convergence { iters = 200; residual = 0.5 })
    = "iteration failed to converge after 200 iterations (residual 5.000e-01)");
  check_true "non-finite"
    (s (Non_finite { where = "Plan.eval" })
    = "Plan.eval: non-finite value (NaN/Inf) in result");
  check_true "parse column is 1-based on display"
    (s (Parse { file = "x.cir"; line = 2; col = 4; msg = "bad node" })
    = "x.cir:2:5: parse error: bad node");
  check_true "worker failure"
    (s (Worker_failure { task = 7; attempts = 3; last = "Failure(\"boom\")" })
    = "task 7 failed after 3 attempt(s): Failure(\"boom\")")

let test_parse_snippet () =
  let src = "R1 1 0 1k\nC2 a 0 1n\n" in
  let err = E.Parse { file = "f.cir"; line = 2; col = 3; msg = "bad node" } in
  (match E.parse_snippet ~src err with
  | Some snip ->
      check_true "caret under column 3" (snip = "  C2 a 0 1n\n     ^")
  | None -> Alcotest.fail "expected a snippet");
  check_true "non-parse errors have no snippet"
    (E.parse_snippet ~src (Non_finite { where = "x" }) = None);
  check_true "out-of-range line has no snippet"
    (E.parse_snippet ~src (Parse { file = "f"; line = 9; col = 0; msg = "" })
    = None)

(* ------------------------------------------------------------------ *)
(* checked LU                                                          *)

let cmatf_init n f =
  let a = Cmatf.create n n in
  for i = 0 to n - 1 do
    for k = 0 to n - 1 do
      Cmatf.set a i k (f i k)
    done
  done;
  a

let test_checked_lu_identity () =
  let n = 6 in
  let a = Cmatf.identity n in
  let ws = Cmatf.lu_ws n in
  match Cmatf.lu_decompose_checked ~context:"test" a ws with
  | Ok est ->
      check_true "identity is perfectly conditioned"
        (est >= 1.0 && est <= 1.0 +. 1e-12)
  | Error e -> Alcotest.failf "identity rejected: %s" (E.to_string e)

let test_checked_lu_hilbert () =
  (* the 12x12 Hilbert matrix has kappa_1 ~ 1e16, far past the default
     1e12 threshold: the checked factorization must refuse it with a
     finite estimate in that range *)
  let n = 12 in
  let hilbert =
    cmatf_init n (fun i k -> Cx.of_float (1.0 /. float_of_int (i + k + 1)))
  in
  let ws = Cmatf.lu_ws n in
  match Cmatf.lu_decompose_checked ~context:"hilbert" hilbert ws with
  | Ok est -> Alcotest.failf "Hilbert-12 accepted with cond est %g" est
  | Error (Singular { cond_est; context }) ->
      check_true "context recorded" (context = "hilbert");
      check_true "estimate is finite" (Float.is_finite cond_est);
      check_true "estimate is huge" (cond_est > 1e12)
  | Error e -> Alcotest.failf "unexpected error: %s" (E.to_string e)

let test_checked_lu_rank_deficient () =
  (* row 1 = 2 x row 0: partial pivoting hits an exactly-zero column *)
  let rows = [| [| 1.0; 2.0; 3.0 |]; [| 2.0; 4.0; 6.0 |]; [| 0.5; 0.1; 0.9 |] |] in
  let a = cmatf_init 3 (fun i k -> Cx.of_float rows.(i).(k)) in
  let ws = Cmatf.lu_ws 3 in
  match Cmatf.lu_decompose_checked ~context:"rankdef" a ws with
  | Ok est -> Alcotest.failf "rank-deficient accepted with cond est %g" est
  | Error (Singular { cond_est; _ }) ->
      check_true "exact singularity reported as infinite cond"
        (cond_est = Float.infinity)
  | Error e -> Alcotest.failf "unexpected error: %s" (E.to_string e)

let test_checked_lu_threshold () =
  (* diag(1, 1e-8): kappa_1 = 1e8 — fine by default, rejected when the
     caller tightens max_cond below it *)
  let mk () =
    cmatf_init 2 (fun i k ->
        if i <> k then Cx.zero
        else if i = 0 then Cx.one
        else Cx.of_float 1e-8)
  in
  let ws = Cmatf.lu_ws 2 in
  (match Cmatf.lu_decompose_checked ~context:"diag" (mk ()) ws with
  | Ok est -> check_close ~tol:1e-3 "cond est of diag(1,1e-8)" 1e8 est
  | Error e -> Alcotest.failf "rejected under default: %s" (E.to_string e));
  match Cmatf.lu_decompose_checked ~max_cond:1e6 ~context:"diag" (mk ()) ws with
  | Ok est -> Alcotest.failf "accepted past max_cond with est %g" est
  | Error (Singular { cond_est; _ }) ->
      check_close ~tol:1e-3 "rejected with the same estimate" 1e8 cond_est
  | Error e -> Alcotest.failf "unexpected error: %s" (E.to_string e)

(* ------------------------------------------------------------------ *)
(* fault injection -> typed error / dense fallback                     *)

(* a banded open loop whose feedback takes the LU path *)
let banded_loop =
  Htm.feedback
    (Htm.series
       (Htm.lti (fun s -> Cx.div (Cx.of_float 0.4) (Cx.add s Cx.one)))
       (Htm.periodic_gain [| Cx.of_float 0.2; Cx.one; Cx.of_float 0.2 |]))

(* a chain through the sampler: its planned evaluation runs the
   rank-one matvec composition, i.e. the smat-nan site in Smat.mv *)
let sampler_chain =
  Htm.series (Htm.lti (fun s -> Cx.div Cx.one (Cx.add s Cx.one))) Htm.sampler

let s0 = Cx.make 0.05 0.4

let test_injected_lu_pivot () =
  Robust.Inject.configure "lu-pivot:1";
  (* the checked API reports the breakdown as a typed Singular *)
  (match Plan.eval_checked (Plan.make ctx3 banded_loop) s0 with
  | Error (Singular { cond_est; _ }) ->
      check_true "forced pivot breakdown is exactly singular"
        (cond_est = Float.infinity)
  | Error e -> Alcotest.failf "unexpected error: %s" (E.to_string e)
  | Ok _ -> Alcotest.fail "injected pivot breakdown not detected");
  check_true "injection site was hit" (Robust.Inject.hits Lu_pivot >= 1);
  (* ... and the public evaluator degrades to the dense oracle *)
  Robust.Inject.configure "lu-pivot:1";
  check_matches_oracle "lu-pivot fallback" ctx3 banded_loop s0;
  let st = Robust.Stats.snapshot () in
  check_int "one dense fallback" 1 st.Robust.Stats.dense_fallbacks;
  check_int "counted as singular" 1 st.Robust.Stats.singular_guards

let test_injected_smat_nan () =
  Robust.Inject.configure "smat-nan:1";
  (match Plan.eval_checked (Plan.make ctx3 sampler_chain) s0 with
  | Error (Non_finite { where }) ->
      check_true "NaN attributed to the plan evaluator"
        (String.length where > 0)
  | Error e -> Alcotest.failf "unexpected error: %s" (E.to_string e)
  | Ok _ -> Alcotest.fail "injected NaN not detected");
  Robust.Inject.configure "smat-nan:1";
  check_matches_oracle "smat-nan fallback" ctx3 sampler_chain s0;
  let st = Robust.Stats.snapshot () in
  check_int "one dense fallback" 1 st.Robust.Stats.dense_fallbacks;
  check_int "counted as non-finite" 1 st.Robust.Stats.nonfinite_guards

(* Row demand: an entry query realizes only the rows that reach the
   entry, so both injection sites must land in the row the caller reads
   — smat-nan in the first row of the matvec's window, grid-plan-nan at
   the demanded entry — or the guards, which scan only those rows,
   would miss them. Row 2 (harmonic -1 of 7) is not row 0. *)
let test_injected_nan_row_mode () =
  let oracle =
    Cmat.get (Htm.to_matrix_dense ctx3 sampler_chain s0)
      (Htm.index_of_harmonic ctx3 (-1)) (Htm.index_of_harmonic ctx3 1)
  in
  List.iter
    (fun spec ->
      let plan = Plan.make ctx3 sampler_chain in
      (* dirty every row first, at another point *)
      ignore (Plan.eval plan (Cx.make 0.3 (-0.2)));
      Robust.Stats.reset ();
      Robust.Inject.configure spec;
      let e = Plan.element plan ~n:(-1) ~m:1 s0 in
      Robust.Inject.disarm ();
      let st = Robust.Stats.snapshot () in
      check_int (spec ^ ": one dense fallback") 1 st.Robust.Stats.dense_fallbacks;
      check_int (spec ^ ": counted as non-finite") 1
        st.Robust.Stats.nonfinite_guards;
      check_true (spec ^ ": fallback = oracle")
        (Int64.equal (Int64.bits_of_float (Cx.re e))
           (Int64.bits_of_float (Cx.re oracle))
        && Int64.equal (Int64.bits_of_float (Cx.im e))
             (Int64.bits_of_float (Cx.im oracle))))
    [ "smat-nan:1"; "grid-plan-nan:1" ]

let test_injected_power_stall () =
  Robust.Inject.configure "power-stall:*";
  (match Htm.max_singular_value_checked ctx3 banded_loop 0.4 with
  | Error (Non_convergence { iters; residual }) ->
      check_true "budget exhausted" (iters >= 1);
      check_true "residual is reported" (Float.is_finite residual)
  | Error e -> Alcotest.failf "unexpected error: %s" (E.to_string e)
  | Ok cert -> Alcotest.failf "stalled iteration certified sigma %g" cert.Htm.sigma);
  let st = Robust.Stats.snapshot () in
  check_int "counted as non-convergence" 1 st.Robust.Stats.non_convergences;
  (* with the stall gone, the same call certifies *)
  Robust.Inject.disarm ();
  match Htm.max_singular_value_checked ctx3 banded_loop 0.4 with
  | Ok cert -> check_true "clean run converges" cert.Htm.converged
  | Error e -> Alcotest.failf "clean run failed: %s" (E.to_string e)

(* ------------------------------------------------------------------ *)
(* SMW denominator guard on a near-singular closed loop                *)

let test_smw_guard_and_strict () =
  (* an aggressive design: omega_UG at 95% of the reference — the
     regime where the closed loop leans hardest on the feedback
     inversion. The guard threshold is then tightened to just above the
     attainable minimum so the Sherman-Morrison denominator check fires
     deterministically. *)
  let p =
    Pll_lib.Design.synthesize
      (Pll_lib.Design.with_ratio Pll_lib.Design.default_spec 0.95)
  in
  let w0 = Pll_lib.Pll.omega0 p in
  let ctx = Htm.ctx ~n_harm:6 ~omega0:w0 in
  let cl = Pll_lib.Pll.closed_loop_htm p in
  let s = Cx.jomega (0.95 *. w0) in
  (* sanity: with default thresholds the plan path is used *)
  check_matches_oracle "clean closed loop" ctx cl s;
  check_int "no fallback on the clean run" 0
    (Robust.Stats.snapshot ()).Robust.Stats.dense_fallbacks;
  (* tighten the guard: every nontrivial denominator trips it *)
  Robust.Config.set_smw_max_cond (1.0 +. 1e-12);
  check_matches_oracle "guarded closed loop falls back" ctx cl s;
  let st = Robust.Stats.snapshot () in
  check_true "fallback taken" (st.Robust.Stats.dense_fallbacks >= 1);
  check_true "counted as singular" (st.Robust.Stats.singular_guards >= 1);
  (* strict mode refuses instead of degrading *)
  Robust.Config.set_strict true;
  match Htm.to_matrix ctx cl s with
  | _ -> Alcotest.fail "strict mode did not raise"
  | exception E.Error (Singular { cond_est; _ }) ->
      check_true "strict raises with the offending proxy" (cond_est > 1.0)

(* ------------------------------------------------------------------ *)
(* checked pool sweeps                                                 *)

let test_pool_partial_failure_deterministic () =
  let f i =
    if i = 3 || i = 11 then failwith "Test_robust: deliberate task failure"
    else float_of_int i *. 1.7 +. sin (float_of_int i)
  in
  let idx = Array.init 16 (fun i -> i) in
  let run domains =
    Pool.with_pool ~domains (fun p -> Sweep.grid_checked ~pool:p ~retries:2 f idx)
  in
  let r1 = run 1 and r4 = run 4 in
  check_int "two failures (serial)" 2 (List.length r1.Sweep.failures);
  check_int "two failures (parallel)" 2 (List.length r4.Sweep.failures);
  check_int "fourteen survivors" 14 (Sweep.ok_count r4);
  List.iter2
    (fun (i1, e1) (i4, e4) ->
      check_int "failed index agrees across pool sizes" i1 i4;
      match (e1, e4) with
      | ( E.Worker_failure { task = t1; attempts = a1; _ },
          E.Worker_failure { task = t4; attempts = a4; _ } ) ->
          check_int "task matches index" i1 t1;
          check_int "task matches index (parallel)" i4 t4;
          check_int "retries exhausted" 3 a1;
          check_int "retries exhausted (parallel)" 3 a4
      | _ -> Alcotest.fail "expected Worker_failure")
    r1.Sweep.failures r4.Sweep.failures;
  (* survivors are bit-identical across pool sizes *)
  Array.iteri
    (fun i v1 ->
      match (v1, r4.Sweep.values.(i)) with
      | Some x1, Some x4 ->
          check_true "survivor bit-identical"
            (Int64.equal (Int64.bits_of_float x1) (Int64.bits_of_float x4))
      | None, None -> ()
      | _ -> Alcotest.fail "survivor sets differ across pool sizes")
    r1.Sweep.values;
  (* ... and bit-identical to the clean run of the surviving indices *)
  Array.iteri
    (fun i v ->
      match v with
      | None -> ()
      | Some x ->
          check_true "survivor matches clean evaluation"
            (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float (f i))))
    r4.Sweep.values;
  let summary = Format.asprintf "%a" Sweep.pp_partial r4 in
  check_true "summary names the failed points"
    (String.length summary > 0
    && String.length summary >= String.length "sweep:")

let test_pool_retry_recovers () =
  (* fails on first touch of index 5, succeeds on retry: the sweep must
     complete with no failures and count the retry *)
  let touched = Atomic.make 0 in
  let f i =
    if i = 5 && Atomic.fetch_and_add touched 1 = 0 then
      failwith "Test_robust: transient failure"
    else float_of_int (i * i)
  in
  let r =
    Pool.with_pool ~domains:2 (fun p ->
        Sweep.grid_checked ~pool:p ~retries:2 f (Array.init 8 (fun i -> i)))
  in
  check_int "no failures" 0 (List.length r.Sweep.failures);
  check_int "all points ok" 8 (Sweep.ok_count r);
  (match r.Sweep.values.(5) with
  | Some v -> check_close "retried value correct" 25.0 v
  | None -> Alcotest.fail "index 5 missing");
  let st = Robust.Stats.snapshot () in
  check_true "retry counted" (st.Robust.Stats.pool_retries >= 1);
  check_int "no worker failures" 0 st.Robust.Stats.worker_failures

let test_injected_pool_task () =
  (* the injected throw hits exactly one task attempt; the in-lane
     retry absorbs it *)
  Robust.Inject.configure "pool-task:1";
  let f i = float_of_int i +. 0.5 in
  let r =
    Pool.with_pool ~domains:1 (fun p ->
        Sweep.grid_checked ~pool:p ~retries:2 f (Array.init 6 (fun i -> i)))
  in
  check_int "no failures survive the retry" 0 (List.length r.Sweep.failures);
  check_int "all points ok" 6 (Sweep.ok_count r);
  let st = Robust.Stats.snapshot () in
  check_int "exactly one retry" 1 st.Robust.Stats.pool_retries;
  check_true "the injection site was hit" (Robust.Inject.hits Pool_task >= 1)

(* ------------------------------------------------------------------ *)
(* injection harness itself                                            *)

let test_inject_spec_grammar () =
  Robust.Inject.configure "lu-pivot:2";
  check_true "armed" (Robust.Inject.enabled ());
  check_true "first hit passes" (not (Robust.Inject.fire Lu_pivot));
  check_true "second hit fires" (Robust.Inject.fire Lu_pivot);
  check_true "third hit passes" (not (Robust.Inject.fire Lu_pivot));
  Robust.Inject.configure "smat-nan:2+";
  check_true "before threshold" (not (Robust.Inject.fire Smat_nan));
  check_true "at threshold" (Robust.Inject.fire Smat_nan);
  check_true "after threshold" (Robust.Inject.fire Smat_nan);
  (* seeded probabilistic trigger is reproducible *)
  let draw () =
    Robust.Inject.configure ~seed:42 "pool-task:~0.5";
    Array.init 64 (fun _ -> Robust.Inject.fire Pool_task)
  in
  check_true "probabilistic stream is seed-deterministic" (draw () = draw ());
  Robust.Inject.disarm ();
  check_true "disarmed" (not (Robust.Inject.enabled ()));
  check_true "disarmed sites never fire" (not (Robust.Inject.fire Lu_pivot));
  (match Robust.Inject.configure "nope:1" with
  | () -> Alcotest.fail "unknown site accepted"
  | exception Invalid_argument _ -> ());
  match Robust.Inject.configure "lu-pivot" with
  | () -> Alcotest.fail "missing trigger accepted"
  | exception Invalid_argument _ -> ()

let test_stats_pp () =
  Robust.Stats.record_fallback (Singular { cond_est = 1e15; context = "x" });
  Robust.Stats.record_retry ();
  let s = Format.asprintf "%a" Robust.Stats.pp (Robust.Stats.snapshot ()) in
  check_true "pp mentions the fallback"
    (s = "robust: 1 dense fallback(s) (1 singular, 0 non-finite, 0 \
          non-convergent), 1 pool retry(ies), 0 worker failure(s), 0 \
          timeout(s), 0 cancelled point(s), 0 resumed point(s)");
  check_int "total sums every counter" 3
    (Robust.Stats.total (Robust.Stats.snapshot ()));
  Robust.Stats.reset ();
  check_int "reset zeroes" 0 (Robust.Stats.total (Robust.Stats.snapshot ()))

let suite =
  [
    case "typed error rendering" (clean test_error_strings);
    case "parse snippet caret" (clean test_parse_snippet);
    case "checked LU: identity" (clean test_checked_lu_identity);
    case "checked LU: Hilbert-12 rejected" (clean test_checked_lu_hilbert);
    case "checked LU: rank-deficient rejected"
      (clean test_checked_lu_rank_deficient);
    case "checked LU: max_cond threshold" (clean test_checked_lu_threshold);
    case "inject lu-pivot: typed Singular + dense fallback"
      (clean test_injected_lu_pivot);
    case "inject smat-nan: typed Non_finite + dense fallback"
      (clean test_injected_smat_nan);
    case "inject smat-nan / grid-plan-nan in row mode: fallback = oracle"
      (clean test_injected_nan_row_mode);
    case "inject power-stall: typed Non_convergence"
      (clean test_injected_power_stall);
    case "SMW guard: near-singular loop falls back; strict raises"
      (clean test_smw_guard_and_strict);
    case "pool: partial failure is typed and deterministic"
      (clean test_pool_partial_failure_deterministic);
    case "pool: transient failure absorbed by retry"
      (clean test_pool_retry_recovers);
    case "inject pool-task: retry absorbs the throw"
      (clean test_injected_pool_task);
    case "injection spec grammar" (clean test_inject_spec_grammar);
    case "stats formatting and reset" (clean test_stats_pp);
  ]
