open Numeric

(* The composition tree itself lives in [Htm_expr] (shared with the
   plan/execute layer); this module provides the validated
   constructors and the per-point queries, on plans from a per-domain
   memo. *)

type ctx = Htm_expr.ctx = { n_harm : int; omega0 : float }
type t = Htm_expr.t

let ctx ~n_harm ~omega0 =
  if n_harm < 0 then invalid_arg "Htm.ctx: n_harm must be >= 0";
  if omega0 <= 0.0 then invalid_arg "Htm.ctx: omega0 must be positive";
  { n_harm; omega0 }

let dim = Htm_expr.dim
let harmonic_of_index = Htm_expr.harmonic_of_index
let index_of_harmonic = Htm_expr.index_of_harmonic

let lti h = Htm_expr.Lti h
let lti_rat r = Htm_expr.Lti_rat r

let periodic_gain coeffs =
  if Array.length coeffs mod 2 = 0 then
    invalid_arg "Htm.periodic_gain: coefficient array must have odd length";
  Htm_expr.Periodic_gain (Array.copy coeffs)

let sampler = Htm_expr.Sampler
let identity = Htm_expr.Identity
let zero = Htm_expr.Zero
let scale z t = Htm_expr.Scale (z, t)
let series g2 g1 = Htm_expr.Series (g2, g1)

let series_list = function
  | [] -> Htm_expr.Identity
  | g :: rest -> List.fold_left (fun acc h -> Htm_expr.Series (acc, h)) g rest

let parallel g1 g2 = Htm_expr.Parallel (g1, g2)
let sub g1 g2 = Htm_expr.Sub (g1, g2)
let feedback g = Htm_expr.Feedback g
let custom f = Htm_expr.Custom f

let to_matrix_dense = Htm_expr.to_matrix_dense

(* ------------------------------------------------------------------ *)
(* the plan memo                                                       *)

(* Every per-point query runs on a compiled plan: [Plan.make] compiles
   the tree (static shapes, preallocated containers, plan-time
   constants) and one [Plan] evaluation realizes it under the plan's
   guards, degrading to the dense oracle when a guard fires. Queries
   come in runs on one tree (a table of entries, a tone at several
   frequencies), and compiling a closed loop costs about what the entry
   query it serves does (1.4–15 µs each at n_harm 10–80, bench kernels
   [plan.make] and [element] rows), so each domain keeps its last
   [memo_size] plans, keyed by the context ([n_harm], and [omega0]
   under [Float.equal]) and the physical identity of the tree: trees
   are values, so a query depends only on (ctx, tree, s), and a
   [Custom] block's [f ctx] runs once per plan.

   A plan is taken out of its domain's list while a query uses it —
   one compare-and-set, since the systhreads of a domain share its
   list — and goes back, to the front, after the query; a query that
   fell back ([Plan.degraded]) or raised drops its plan, so a plan
   poisoned at make time or left half-written is never reused. A
   second query on the same key meanwhile misses and compiles its own.
   Reuse gives a fresh plan's bits: every evaluation overwrites what it
   reads (the ownership rule of [Plan]) and runs the plan's guards and
   counted fallback.

   A miss costs more than the plan it compiles: the kept plan outlives
   the minor heap, and a query on a new tree runs up to 22 % (median
   7 %) slower than [Plan.make] plus the query, so a caller that builds
   a tree per call should use [Plan] directly. Plans above
   [memo_max_dim] are not kept: their evaluation dwarfs their
   compilation, and each n×n matrix a plan realizes (a dense node, the
   result and LU factors of a closed mixing loop) is 16·n² bytes. A
   domain's memo holds at most 8 plans of dimension 161 or less — 8
   mixing loops at n_harm 80 after a [to_matrix] each, 10.3 MB. *)

type entry = { key_ctx : ctx; key_tree : t; plan : Plan.t }

let memo_size = 8
let memo_max_dim = 161

(* Two systhreads initializing a domain's cell at once can leave one
   of them with a cell that is then dropped: a few misses, no
   sharing. *)
let memo : entry list Atomic.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Atomic.make [])

let same c t e =
  e.key_tree == t
  && Int.equal e.key_ctx.n_harm c.n_harm
  && Float.equal e.key_ctx.omega0 c.omega0

let rec find c t = function
  | [] -> None
  | e :: rest -> if same c t e then Some e else find c t rest

let rec without e = function
  | [] -> []
  | x :: rest -> if x == e then rest else x :: without e rest

(* the first [k] entries of [l] not for [e]'s key *)
let rec others k e l =
  match l with
  | x :: rest when k > 0 ->
      if same e.key_ctx e.key_tree x then others k e rest else x :: others (k - 1) e rest
  | _ -> []

let rec take cell c t =
  let l = Atomic.get cell in
  match find c t l with
  | None -> None
  | Some e -> if Atomic.compare_and_set cell l (without e l) then Some e else take cell c t

let rec put cell e =
  let l = Atomic.get cell in
  if not (Atomic.compare_and_set cell l (e :: others (memo_size - 1) e l)) then put cell e

let with_plan c t f =
  if dim c > memo_max_dim then f (Plan.make c t)
  else
    let cell = Domain.DLS.get memo in
    let e =
      match take cell c t with
      | Some e -> e
      | None -> { key_ctx = c; key_tree = t; plan = Plan.make c t }
    in
    let r = f e.plan in
    if not (Plan.degraded e.plan) then put cell e;
    r

let to_matrix c t s = with_plan c t (fun p -> Plan.to_cmat p s)

let element c t ~n ~m s =
  if abs n > c.n_harm || abs m > c.n_harm then
    invalid_arg "Htm.element: harmonic outside truncation";
  with_plan c t (fun p -> Plan.element p ~n ~m s)

let baseband c t w = element c t ~n:0 ~m:0 (Cx.jomega w)

let apply_to_tone c t ~m w =
  if abs m > c.n_harm then invalid_arg "Htm.apply_to_tone: harmonic outside truncation";
  (* one column of the realized HTM, and only that column solved *)
  with_plan c t (fun p -> Plan.column p ~m (Cx.jomega w))

type sv_certificate = {
  sigma : float;
  iterations : int;
  residual : float;
  restarts : int;
  converged : bool;
}

(* Power iteration on an already realized HTM: B = MᴴM with a
   unit-normalized iterate; for unit v, |Mv| converges to the largest
   singular value. The iterate starts from a seeded pseudo-random
   vector: a fixed structured start (the old all-ones-ish ramp) can sit
   exactly in the null space of a rank-deficient HTM — e.g. a rank-one
   sampler composition whose row space is orthogonal to it — and stall
   the iteration at σ = 0. A null-space start is detected (MᴴMv = 0
   before convergence) and retried with a fresh vector from the same
   deterministic stream. Both products per iteration run on the Smat
   shape (O(n) for diagonal/rank-one HTMs, O(n·k) banded) and the
   conjugate transpose is never materialized. *)
let power_iter ~iterations ~tol ~seed n m =
  let g = Prng.create ~seed in
  let vre = Array.make n 0.0 and vim = Array.make n 0.0 in
  let wre = Array.make n 0.0 and wim = Array.make n 0.0 in
  let ure = Array.make n 0.0 and uim = Array.make n 0.0 in
  let norm2 re im =
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. (re.(i) *. re.(i)) +. (im.(i) *. im.(i))
    done;
    Stdlib.sqrt !acc
  in
  (* normalize (re,im) into (vre,vim); false when the vector is zero *)
  let renormalize_into re im =
    let norm = norm2 re im in
    if Float.equal norm 0.0 then false
    else begin
      let inv = 1.0 /. norm in
      for i = 0 to n - 1 do
        vre.(i) <- re.(i) *. inv;
        vim.(i) <- im.(i) *. inv
      done;
      true
    end
  in
  let random_unit () =
    let rec fresh attempts =
      for i = 0 to n - 1 do
        ure.(i) <- Prng.gaussian g;
        uim.(i) <- Prng.gaussian g
      done;
      if renormalize_into ure uim || attempts <= 0 then ()
      else fresh (attempts - 1)
    in
    fresh 8
  in
  random_unit ();
  let sigma = ref 0.0 in
  let prev = ref Float.neg_infinity in
  let max_restarts = Stdlib.min 4 n in
  let restarts = ref max_restarts in
  let used = ref 0 in
  let residual = ref infinity in
  let converged = ref false in
  (try
     for _ = 1 to iterations do
       incr used;
       Smat.mv m ~lo:0 ~hi:(n - 1) ~xre:vre ~xim:vim ~yre:wre ~yim:wim;
       let est = norm2 wre wim in
       let res = Float.abs (est -. !prev) in
       residual := res;
       (* an injected stall suppresses the convergence test, so the
          budget runs out and the certificate reports non-convergence *)
       let ok =
         res <= tol *. (1.0 +. est)
         && not (Robust.Inject.fire Robust.Inject.Power_stall)
       in
       prev := est;
       if est > !sigma then sigma := est;
       if ok then begin
         converged := true;
         raise Exit
       end;
       Smat.mhv m ~xre:wre ~xim:wim ~yre:ure ~yim:uim;
       if not (renormalize_into ure uim) then
         (* current iterate maps into the null space: restart rather
            than conclude σ = 0 for a nonzero matrix *)
         if !restarts > 0 then begin
           decr restarts;
           prev := Float.neg_infinity;
           random_unit ()
         end
         else begin
           (* every restart also hit the null space: the matrix maps
              the whole probed subspace to zero. For σ = 0 that is the
              exact answer (zero matrix), not a failure. *)
           if Float.equal !sigma 0.0 then begin
             converged := true;
             residual := 0.0
           end;
           raise Exit
         end
     done
   with Exit -> ());
  {
    sigma = !sigma;
    iterations = !used;
    residual = !residual;
    restarts = max_restarts - !restarts;
    converged = !converged;
  }

(* the realized HTM is a view into the plan, so the plan stays out of
   the memo until the iteration is done with it *)
let sv_cert ?(iterations = 200) ?(tol = 1e-10) ?(seed = 0x51C0FFEEL) c t w =
  with_plan c t (fun p ->
      power_iter ~iterations ~tol ~seed (dim c) (Plan.eval p (Cx.jomega w)))

let max_singular_value ?iterations ?tol ?seed c t w =
  (sv_cert ?iterations ?tol ?seed c t w).sigma

let max_singular_value_checked ?iterations ?tol ?seed c t w =
  let cert = sv_cert ?iterations ?tol ?seed c t w in
  if cert.converged then Ok cert
  else begin
    let e =
      Robust.Pllscope_error.Non_convergence
        { iters = cert.iterations; residual = cert.residual }
    in
    Robust.Stats.record_guard e;
    Error e
  end

let is_lti ?(tol = 1e-12) c t s =
  with_plan c t (fun p ->
      let m = Plan.eval p s in
      (* a realized diagonal shape is LTI by construction; other shapes
         compare their largest off-diagonal modulus against the scale *)
      Smat.max_offdiag_abs m <= tol *. (1.0 +. Smat.norm_inf m))
