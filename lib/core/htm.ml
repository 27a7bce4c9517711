open Numeric

(* The composition tree itself lives in [Htm_expr] (shared with the
   plan/execute layer); this module provides the validated
   constructors and the per-point queries (one-point plans). *)

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
let neg g = Htm_expr.Scale (Cx.neg Cx.one, g)
let feedback g = Htm_expr.Feedback g
let custom f = Htm_expr.Custom f

let to_matrix_dense = Htm_expr.to_matrix_dense

(* Every per-point query is a one-point plan: [Plan.make] compiles the
   tree (static shapes, preallocated containers, plan-time constants)
   and one [Plan] evaluation realizes it under the plan's guards,
   degrading to the dense oracle when a guard fires. No plan is cached:
   compiling one costs microseconds, on the order of one point's
   evaluation, and a cache would have to key on trees that hold
   closures. *)
let eval_at c t s = Plan.eval (Plan.make c t) s

let to_matrix c t s = Plan.to_cmat (Plan.make c t) s

let element c t ~n ~m s =
  if abs n > c.n_harm || abs m > c.n_harm then
    invalid_arg "Htm.element: harmonic outside truncation";
  Plan.element (Plan.make c t) ~n ~m s

let baseband c t w = element c t ~n:0 ~m:0 (Cx.jomega w)

let conversion_map c t w =
  let sm = eval_at c t (Cx.jomega w) and n = dim c in
  Array.init n (fun i -> Array.init n (fun k -> Cx.abs (Smat.get sm i k)))

let apply_to_tone c t ~m w =
  if abs m > c.n_harm then invalid_arg "Htm.apply_to_tone: harmonic outside truncation";
  (* one column of the realized HTM, and only that column solved *)
  Plan.column (Plan.make c t) ~m (Cx.jomega w)

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

let sv_cert ?(iterations = 200) ?(tol = 1e-10) ?(seed = 0x51C0FFEEL) c t w =
  power_iter ~iterations ~tol ~seed (dim c) (eval_at c t (Cx.jomega w))

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
  let m = eval_at c t s in
  (* a realized diagonal shape is LTI by construction; other shapes
     compare their largest off-diagonal modulus against the scale *)
  Smat.max_offdiag_abs m <= tol *. (1.0 +. Smat.norm_inf m)
