(* The typed error vocabulary of the numerical-robustness layer.

   Every guarded failure mode in the solver stack maps to exactly one
   constructor: ill-conditioned or exactly singular linear algebra,
   iterative methods that ran out of budget, non-finite values escaping
   a kernel, netlist syntax errors, and pool tasks that kept throwing
   after retries. Hot APIs expose [_checked] variants returning
   [(_, t) result]; the [Error] exception carries the same payload for
   the few places where raising is the only option. *)

type t =
  | Singular of { cond_est : float; context : string }
      (* [cond_est] is a 1-norm condition estimate; [infinity] when a
         pivot was exactly zero (no finite estimate exists). *)
  | Non_convergence of { iters : int; residual : float }
  | Non_finite of { where : string }
  | Parse of { file : string; line : int; col : int; msg : string }
  | Worker_failure of { task : int; attempts : int; last : string }
  | Timed_out of { task : int; seconds : float }
  | Cancelled of { reason : string }
  | Overloaded of { retry_after : float }
  | Io_timeout of { seconds : float; what : string }
  | Budget_exhausted of { budget_s : float; attempts : int }
  | Circuit_open of { cooldown_s : float }

exception Error of t

let raise_ t = raise (Error t)

let to_string = function
  | Singular { cond_est; context } ->
      if Float.is_finite cond_est then
        Printf.sprintf "%s: matrix is numerically singular (cond ~ %.3e)"
          context cond_est
      else Printf.sprintf "%s: matrix is exactly singular (zero pivot)" context
  | Non_convergence { iters; residual } ->
      Printf.sprintf
        "iteration failed to converge after %d iterations (residual %.3e)"
        iters residual
  | Non_finite { where } ->
      Printf.sprintf "%s: non-finite value (NaN/Inf) in result" where
  | Parse { file; line; col; msg } ->
      Printf.sprintf "%s:%d:%d: parse error: %s" file line (col + 1) msg
  | Worker_failure { task; attempts; last } ->
      Printf.sprintf "task %d failed after %d attempt(s): %s" task attempts last
  | Timed_out { task; seconds } ->
      Printf.sprintf "task %d exceeded its %g s watchdog timeout" task seconds
  | Cancelled { reason } -> Printf.sprintf "cancelled (%s) before execution" reason
  | Overloaded { retry_after } ->
      Printf.sprintf "server overloaded; retry after %.3f s" retry_after
  | Io_timeout { seconds; what } ->
      Printf.sprintf "%s timed out after %g s" what seconds
  | Budget_exhausted { budget_s; attempts } ->
      Printf.sprintf "retry budget of %g s exhausted after %d attempt(s)"
        budget_s attempts
  | Circuit_open { cooldown_s } ->
      Printf.sprintf
        "circuit breaker open; next probe allowed in %.3f s" cooldown_s

(* Caret-context snippet for parse errors: the offending source line
   with a '^' under the offending column. *)
let parse_snippet ~src = function
  | Parse { line; col; _ } when line >= 1 -> (
      let lines = String.split_on_char '\n' src in
      match List.nth_opt lines (line - 1) with
      | None -> None
      | Some text ->
          let text =
            (* strip a trailing CR from CRLF sources *)
            let n = String.length text in
            if n > 0 && text.[n - 1] = '\r' then String.sub text 0 (n - 1)
            else text
          in
          let col = Stdlib.min (Stdlib.max 0 col) (String.length text) in
          Some (Printf.sprintf "  %s\n  %s^" text (String.make col ' ')))
  | _ -> None

let () =
  Printexc.register_printer (function
    | Error t -> Some ("Pllscope_error.Error: " ^ to_string t)
    | _ -> None)
