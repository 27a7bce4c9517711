(* Two-phase plan/execute evaluation of HTM composition trees — the one
   structured evaluator: the per-point [Htm] queries are one-point
   plans, and a grid is one plan per lane of [Parallel.Sweep.grid_local]
   queried point by point.

   [make] walks the tree once per (ctx, tree) pair: it runs the static
   shape rules of [Smat] over the composition, allocates one container
   per node plus every densification scratch and LU workspace a point
   evaluation can touch, realizes s-independent subtrees (periodic
   gains, the sampler, identity/zero and their feedback-free
   compositions) once into their own containers through the same
   [Smat.Into] kernels, and precompiles LTI leaves into harmonic shift
   tables (split-coefficient rational forms for [Lti_rat], which
   evaluate without boxing). [eval] then streams one s-point through
   the schedule entirely in place: after the first point, the
   composition kernels allocate nothing, and neither do the rational
   leaves (one [Rat.eval_shifted_into] call fills a leaf's window).
   What a point still allocates is a few boxed scalars — λ(s), the
   entry it returns — and, per realized row, the argument and result
   of a closure leaf ([Lti]).

   Entry demand: [element] and [baseband] read one entry, [row] one
   row and [column] one column of the root, and pass that down. Row
   demand: [make] gives every node a static reach (see [assign_reach]),
   and a point realizes only the rows of each node that can feed the
   demanded root row, as a [lo..hi] window of the [Smat.Into] kernels.
   Column demand: a dense feedback root (a loop closed around a banded
   or dense open loop) solves only the demanded right-hand side.
   Either way the entries read are bit-identical to the same entries
   of a full realization — but for one entry of a loop closed around a
   banded open loop (a mixing PFD), which the two-sided elimination of
   [Smat.Into.feedback] computes without an LU, equal to the LU's entry
   to rounding (~5e-16 relative over the seeded mixing designs of
   test/test_grid.ml). A rank-one node built as A·(u vᵀ), scaled or
   closed by rank-one feedback shares its operand's v storage, so the
   window is all a point writes; a v that a constant carries (the
   sampler's) is checked finite once, here, so the guards read the
   window too. Measured with Gc.minor_words on one domain, a
   [baseband] point allocates 68 words behind the exact λ of a
   time-invariant VCO and 98 behind an ISF VCO (two harmonics), at
   n_harm 8 and at n_harm 80 alike, 11 of them for λ(s); a mixing-PFD
   loop, whose open loop is realized in every row, 35 (65 behind an
   ISF VCO) at every n_harm, where its banded LU point allocated 133 /
   229 / 709 at n_harm 8 / 20 / 80.

   Equivalence contract: planned results match the dense oracle
   [Htm.to_matrix_dense] to rounding — the differential suites in
   test/test_grid.ml and test/test_htm_struct.ml pin this. Shapes come
   from the static rules alone, so a sum with an exactly-zero operand
   keeps the no-shortcut shape (same values).

   Concurrency contract: a plan is a mutable workspace — every [eval]
   overwrites every container (an entry query, the rows it demands).
   One plan must be owned by one domain lane at a time; grid sweeps
   distribute points with [Parallel.Sweep.grid_local], which
   instantiates one plan per lane (see the ownership rule in
   sweep.mli). *)

open Numeric

type ctx = Htm_expr.ctx

(* Preallocated storage of one node, with a zero-copy [Smat.t] view over
   it. The arrays double as fill targets for leaf nodes and as
   [Smat.Into] destinations for interior nodes. *)
type slot = {
  view : Smat.t;
  sh : Smat.shape_t;
  are : float array;  (* diag d / band b / rank1 u, re part *)
  aim : float array;
  bre : float array;  (* rank1 v only *)
  bim : float array;
  dense : Cmatf.t option;
}

(* [v]: a rank-one slot's v storage, when it is shared with the operand
   whose v it carries (see [compile]) *)
let make_slot ?v n (sh : Smat.shape_t) =
  let empty = [||] in
  match sh with
  | `Diag ->
      let are = Array.make n 0.0 and aim = Array.make n 0.0 in
      {
        view = Smat.diag_of_arrays ~dre:are ~dim_:aim;
        sh;
        are;
        aim;
        bre = empty;
        bim = empty;
        dense = None;
      }
  | `Band kmax ->
      let w = (2 * kmax) + 1 in
      let are = Array.make (n * w) 0.0 and aim = Array.make (n * w) 0.0 in
      {
        view = Smat.band_of_arrays ~n ~kmax ~bre:are ~bim:aim;
        sh;
        are;
        aim;
        bre = empty;
        bim = empty;
        dense = None;
      }
  | `Rank1 ->
      let are = Array.make n 0.0 and aim = Array.make n 0.0 in
      let bre, bim =
        match v with
        | Some v -> v
        | None -> (Array.make n 0.0, Array.make n 0.0)
      in
      {
        view = Smat.rank1_of_arrays ~ure:are ~uim:aim ~vre:bre ~vim:bim;
        sh;
        are;
        aim;
        bre;
        bim;
        dense = None;
      }
  | `Dense ->
      let m = Cmatf.create n n in
      {
        view = Smat.of_cmatf m;
        sh;
        are = empty;
        aim = empty;
        bre = empty;
        bim = empty;
        dense = Some m;
      }

(* [reach]: rows [row - reach, row + reach] of this node feed row [row]
   of the root, or [all_rows]; assigned once by [make] (see
   [assign_reach]). [v_finite]: a rank-one node's v is a constant's,
   found finite when [make] realized it, so no point needs to scan it. *)
type node = { slot : slot; op : op; mutable reach : int; v_finite : bool }

and op =
  | Const  (* s-independent: realized once by [make] *)
  | Fill_lti of (Cx.t -> Cx.t) * float array  (* harmonic shifts m·ω₀ *)
  | Fill_rat of Rat.split * float array
  | Fill_custom of (Cx.t -> Cmat.t)
  | Kscale of Cx.t * node
  | Kadd of bool (* subtract *) * node * node
  | Kmul of node * node * Cmatf.t option * Cmatf.t option
  | Kfb of node * Smat.lu_scratch option * (Cx.t -> Cx.t) option
      (* λ(s) denominator override, outermost loop only *)

type t = { ctx : ctx; expr : Htm_expr.t; root : node }

let ctx t = t.ctx
let dim t = Htm_expr.dim t.ctx
let root_shape t = t.root.slot.sh

(* ------------------------------------------------------------------ *)
(* execution                                                           *)

exception Guard of Robust.Pllscope_error.t

(* Entry demand: [row] is the one row of the root a caller reads, or
   [all_rows]; [col] the one column, or [all_cols]. Each node realizes
   the rows its reach says can feed the demanded row, as a [lo..hi]
   window of plain ints. Only the root's feedback kernel sees [col]
   (it then solves that right-hand side alone); every inner node, and
   every other kind of root, realizes every column. *)
let all_rows = -1
let all_cols = -1

let window_lo nd ~row =
  if row < 0 || nd.reach < 0 then 0 else Int.max 0 (row - nd.reach)

let window_hi nd ~n ~row =
  if row < 0 || nd.reach < 0 then n - 1 else Int.min (n - 1) (row + nd.reach)

let rec exec ~n ~row ~col s ({ slot; op; _ } as nd) =
  let lo = window_lo nd ~row and hi = window_hi nd ~n ~row in
  (match op with
  | Const -> ()
  | Fill_lti (h, shifts) ->
      (* fields read in place: [Cx.re] is a call from here, which
         returns its float boxed *)
      let dre = slot.are and dim_ = slot.aim in
      for i = lo to hi do
        let z = h { Complex.re = s.Complex.re; im = s.im +. shifts.(i) } in
        dre.(i) <- z.re;
        dim_.(i) <- z.im
      done
  | Fill_rat (sp, shifts) ->
      Rat.eval_shifted_into sp s ~shifts ~lo ~hi ~out_re:slot.are ~out_im:slot.aim
  | Fill_custom f ->
      let m = f s in
      let d = Option.get slot.dense in
      (* a block of the wrong size would leave stale entries behind *)
      if Cmat.rows m <> n || Cmat.cols m <> n then
        invalid_arg
          (Printf.sprintf
             "Plan.eval: custom block returned a %dx%d matrix, expected %dx%d"
             (Cmat.rows m) (Cmat.cols m) n n);
      for i = 0 to n - 1 do
        for k = 0 to n - 1 do
          Cmatf.set d i k (Cmat.get m i k)
        done
      done
  | Kscale (z, g) ->
      let gv = exec ~n ~row ~col:all_cols s g in
      Smat.Into.scale ~dst:slot.view ~lo ~hi z gv
  | Kadd (sub, a, b) ->
      let av = exec ~n ~row ~col:all_cols s a in
      let bv = exec ~n ~row ~col:all_cols s b in
      Smat.Into.add ~dst:slot.view ~sub ~lo ~hi av bv
  | Kmul (a, b, da, db) ->
      let av = exec ~n ~row ~col:all_cols s a in
      let bv = exec ~n ~row ~col:all_cols s b in
      Smat.Into.mul ~dst:slot.view ?da ?db ~lo ~hi av bv
  | Kfb (g, scratch, lambda) -> (
      let gv = exec ~n ~row ~col:all_cols s g in
      let denom_override =
        match lambda with None -> None | Some lam -> Some (lam s)
      in
      match
        Smat.Into.feedback ~dst:slot.view ?scratch ?denom_override
          ~v_finite:nd.v_finite ~lo ~hi ~row ~col ~context:"Plan.feedback" gv
      with
      | Ok () -> ()
      | Error e -> raise (Guard e)));
  slot.view

(* ------------------------------------------------------------------ *)
(* compilation                                                         *)

let shifts c =
  Array.init (Htm_expr.dim c) (fun i ->
      float_of_int (Htm_expr.harmonic_of_index c i) *. c.Htm_expr.omega0)

(* checked once, when [make] realizes a constant *)
let v_finite_now slot =
  match slot.sh with
  | `Rank1 ->
      Array.for_all Float.is_finite slot.bre
      && Array.for_all Float.is_finite slot.bim
  | `Diag | `Band _ | `Dense -> false

let const_slot n sh fill =
  let slot = make_slot n sh in
  fill slot;
  { slot; op = Const; reach = all_rows; v_finite = v_finite_now slot }

(* Toeplitz band of a periodic gain: entry (i, i+d) = coeffs[K - d],
   the band clamped to the matrix. *)
let toeplitz n coeffs =
  let kc = Array.length coeffs / 2 in
  let kmax = Int.min kc (Int.max 0 (n - 1)) in
  let w = (2 * kmax) + 1 in
  const_slot n (`Band kmax) (fun slot ->
      for i = 0 to n - 1 do
        for d = Int.max (-kmax) (-i) to Int.min kmax (n - 1 - i) do
          let z = coeffs.(kc - d) in
          slot.are.((i * w) + d + kmax) <- Cx.re z;
          slot.aim.((i * w) + d + kmax) <- Cx.im z
        done
      done)

let is_const nd = match nd.op with Const -> true | _ -> false

(* [lambda] reaches only the root: the λ(s) override applies to the
   outermost feedback loop alone. A rank-one node whose v is its
   operand's — A·(u vᵀ) = (A·u)·vᵀ, z·(u vᵀ), and the closed loop of
   u vᵀ, which only rescales u — holds that operand's v storage
   ([v_of]), as the [Smat.Into] kernels require: no point copies it. *)
let rec compile c ~lambda (t : Htm_expr.t) =
  let n = Htm_expr.dim c in
  let node ?v_of sh op =
    match (sh, v_of) with
    | `Rank1, Some o ->
        {
          slot = make_slot ~v:(o.slot.bre, o.slot.bim) n sh;
          op;
          reach = all_rows;
          v_finite = o.v_finite;
        }
    | _ -> { slot = make_slot n sh; op; reach = all_rows; v_finite = false }
  in
  let sub t = compile c ~lambda:None t in
  let nd =
    match t with
    | Lti h -> node `Diag (Fill_lti (h, shifts c))
    | Lti_rat r -> node `Diag (Fill_rat (Rat.split r, shifts c))
    | Custom f -> node `Dense (Fill_custom (f c))
    | Periodic_gain coeffs -> toeplitz n coeffs
    | Sampler ->
        (* (ω₀/2π)·l·lᵀ with l the all-ones vector *)
        const_slot n `Rank1 (fun slot ->
            Array.fill slot.are 0 n (c.omega0 /. (2.0 *. Float.pi));
            Array.fill slot.bre 0 n 1.0)
    | Identity -> const_slot n `Diag (fun slot -> Array.fill slot.are 0 n 1.0)
    | Zero -> const_slot n `Diag ignore
    | Scale (z, g) ->
        let gn = sub g in
        node ~v_of:gn gn.slot.sh (Kscale (z, gn))
    | Series (a, b) ->
        let an = sub a and bn = sub b in
        let sa = an.slot.sh and sb = bn.slot.sh in
        let need_da, need_db = Smat.mul_scratch ~n sa sb in
        let scratch need = if need then Some (Cmatf.create n n) else None in
        let v_of = match sb with `Rank1 -> Some bn | _ -> None in
        node ?v_of (Smat.shape_mul ~n sa sb)
          (Kmul (an, bn, scratch need_da, scratch need_db))
    | Parallel (a, b) ->
        let an = sub a and bn = sub b in
        node (Smat.shape_add an.slot.sh bn.slot.sh) (Kadd (false, an, bn))
    | Sub (a, b) ->
        let an = sub a and bn = sub b in
        node (Smat.shape_add an.slot.sh bn.slot.sh) (Kadd (true, an, bn))
    | Feedback g ->
        let gn = sub g in
        let sh = Smat.shape_feedback gn.slot.sh in
        let scratch =
          match sh with
          | `Dense -> Some (Smat.lu_scratch ~n gn.slot.sh)
          | _ -> None
        in
        node ~v_of:gn sh (Kfb (gn, scratch, lambda))
  in
  (* A feedback-free composition of constants does not depend on s:
     realize it now, once. Feedback stays per point even over constant
     operands, so its guards (checked realizations, strict-mode
     refusal) run at evaluation time like everywhere else. *)
  let static =
    match nd.op with
    | Kscale (_, g) -> is_const g
    | Kadd (_, a, b) | Kmul (a, b, _, _) -> is_const a && is_const b
    | Const | Fill_lti _ | Fill_rat _ | Fill_custom _ | Kfb _ -> false
  in
  if static then begin
    ignore (exec ~n ~row:all_rows ~col:all_cols Cx.zero nd);
    { nd with op = Const; v_finite = v_finite_now nd.slot }
  end
  else nd

(* Static row reach, top down from the root's 0, following [Smat]'s
   shape rules: a sum or scale passes its reach on; a product A·B gives
   A the same rows and B those rows widened by A's bandwidth — every
   row behind a rank-one or dense A, which covers A·(u vᵀ) and
   (u vᵀ)·B (v = Bᵀv reads all of B); a closed loop passes its reach
   on when it is diagonal or rank one with the λ(s) override, and
   needs every row otherwise (vᵀu, LU). A dense result, a custom block
   and a constant need every row. *)
let widen r (a : Smat.shape_t) =
  match a with
  | `Diag when r >= 0 -> r
  | `Band k when r >= 0 -> r + k
  | _ -> all_rows

let rec assign_reach nd r =
  let r =
    match (nd.slot.sh, nd.op) with
    | `Dense, _ | _, (Const | Fill_custom _) -> all_rows
    | _ -> r
  in
  nd.reach <- r;
  match nd.op with
  | Const | Fill_lti _ | Fill_rat _ | Fill_custom _ -> ()
  | Kscale (_, g) -> assign_reach g r
  | Kadd (_, a, b) ->
      assign_reach a r;
      assign_reach b r
  | Kmul (a, b, _, _) ->
      assign_reach a r;
      assign_reach b (widen r a.slot.sh)
  | Kfb (g, _, lambda) -> (
      match nd.slot.sh with
      | `Diag -> assign_reach g r
      | `Rank1 when Option.is_some lambda -> assign_reach g r
      | _ -> assign_reach g all_rows)

let make ?lambda c expr =
  let root = compile c ~lambda expr in
  assign_reach root 0;
  { ctx = c; expr; root }

(* The column a dense feedback root honours; any other root realizes
   every column whatever the caller reads. *)
let root_col plan col =
  match plan.root with
  | { op = Kfb _; slot = { sh = `Dense; _ }; _ } -> col
  | _ -> all_cols

(* Injection site: poison the realized root of one planned point (the
   plan-layer sibling of [Smat]'s smat-nan site) — at the demanded
   (row, col), row 0 / column 0 standing in for "every": the dense
   entry itself, the row's diagonal entry of a diagonal or banded
   root, the row's u of a rank-one root, so an entry-demand
   evaluation reads it. Constant roots are realized once per plan and
   are skipped. *)
let poison_root plan ~row ~col =
  if Robust.Inject.fire Robust.Inject.Grid_plan_nan then
    let n = dim plan and i = Int.max row 0 in
    match plan.root with
    | { op = Const; _ } -> ()
    | { slot; _ } when n > 0 -> (
        match (slot.sh, slot.dense) with
        | _, Some m ->
            let re, _ = Cmatf.raw m in
            re.((i * n) + Int.max col 0) <- Float.nan
        | `Band kmax, None ->
            slot.are.((i * ((2 * kmax) + 1)) + kmax) <- Float.nan
        | _, None -> slot.are.(i) <- Float.nan)
    | _ -> ()

(* the root scan covers what the caller reads: the root's window of
   rows, or the demanded entry or column of a dense root — the rest is
   stale *)
let root_finite plan ~row ~col v =
  match plan.root.slot.dense with
  | Some m when col >= 0 && row >= 0 ->
      let re, im = Cmatf.raw m in
      let p = (row * dim plan) + col in
      Float.is_finite re.(p) && Float.is_finite im.(p)
  | Some m when col >= 0 -> Cmatf.is_finite_col m col
  | _ ->
      let n = dim plan in
      Smat.rows_finite ~v_finite:plan.root.v_finite v
        ~lo:(window_lo plan.root ~row)
        ~hi:(window_hi plan.root ~n ~row)

let checked_view plan ~row ~col s =
  match exec ~n:(dim plan) ~row ~col s plan.root with
  | v ->
      poison_root plan ~row ~col;
      if root_finite plan ~row ~col v then Ok v
      else Error (Robust.Pllscope_error.Non_finite { where = "Plan.eval" })
  | exception Guard e -> Error e

let eval_checked plan s = checked_view plan ~row:all_rows ~col:all_cols s

(* What a failing point degrades to: the dense oracle of the plan's
   tree — of the loop the plan evaluates, so a rank-one root closed
   with the λ(s) override is the dense open loop G = u·vᵀ over
   1 + λ(s), not the truncated (I + G)⁻¹·G. The one sanctioned
   dense-oracle call outside oracle code: non-strict mode degrades
   here and records that it did. *)
let dense_oracle plan s =
  let oracle t =
    (Htm_expr.to_matrix_dense plan.ctx t s [@lint.allow "oracle-only"])
  in
  match (plan.root, plan.expr) with
  | { op = Kfb (_, _, Some lam); slot = { sh = `Rank1; _ }; _ }, Feedback g ->
      Cmat.scale (Cx.inv (Cx.add Cx.one (lam s))) (oracle g)
  | _ -> oracle plan.expr

(* The one guard/fallback driver: the checked evaluation, degrading
   to the dense oracle (counted in [Robust.Stats]) unless strict mode
   refuses. [row] and [col] are the entry demand (see [all_rows]). *)
let eval_view plan ~row ~col s =
  match checked_view plan ~row ~col:(root_col plan col) s with
  | Ok v -> `Structured v
  | Error e ->
      if Robust.Config.is_strict () then Robust.Pllscope_error.raise_ e
      else begin
        Robust.Stats.record_fallback e;
        `Dense (dense_oracle plan s)
      end

let eval plan s =
  match eval_view plan ~row:all_rows ~col:all_cols s with
  | `Structured v -> v
  | `Dense m -> Smat.of_cmat m

let to_cmat plan s =
  match eval_view plan ~row:all_rows ~col:all_cols s with
  | `Structured v -> Smat.to_cmat v
  | `Dense m -> m

let index plan what h =
  let c = plan.ctx in
  if abs h > c.Htm_expr.n_harm then
    invalid_arg (what ^ ": harmonic outside truncation");
  Htm_expr.index_of_harmonic c h

let element plan ~n ~m s =
  let i = index plan "Plan.element" n and k = index plan "Plan.element" m in
  match eval_view plan ~row:i ~col:k s with
  | `Structured v -> Smat.get v i k
  | `Dense d -> Cmat.get d i k

let baseband plan s = element plan ~n:0 ~m:0 s

let column plan ~m s =
  let k = index plan "Plan.column" m in
  match eval_view plan ~row:all_rows ~col:k s with
  | `Structured v -> Smat.col v k
  | `Dense d -> Cmat.col d k

let row plan ~n s =
  let i = index plan "Plan.row" n in
  match eval_view plan ~row:i ~col:all_cols s with
  | `Structured v -> Cvec.init (dim plan) (fun k -> Smat.get v i k)
  | `Dense d -> Cvec.init (dim plan) (fun k -> Cmat.get d i k)
