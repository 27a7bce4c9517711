(* Structured truncated HTMs.

   The paper's HTM algebra is closed over a tiny lattice of shapes:
   LTI blocks are diagonal (eq. 12), periodic gains are banded Toeplitz
   (eq. 13), the sampling PFD is rank one (eqs. 19–20), and the
   closed-loop Sherman–Morrison form exists precisely because the
   composition rules keep those shapes. This module is that lattice as
   data: the static rules assign each composition the cheapest shape
   that can represent it, and the [Into] kernels realize it in place,
   falling back to a flat unboxed dense matrix (Cmatf.t) only when no
   structure survives. [Plan] is the only evaluator built on it.

   Storage is split re/im float arrays throughout, so every entry is
   unboxed; band loop bounds use Int.min/Int.max (the polymorphic
   Stdlib.min/max compile to a generic-compare call). The [Into]
   kernels realize a window of w = hi − lo + 1 rows (w = n for a full
   realization; see [Into]). Costs:
     diag·diag              O(w)
     diag·band, band·diag   O(w·k)
     band·band              O(w·k₁·k₂), bandwidth k₁+k₂
     anything·rank-one      O(cost of one windowed matvec) — stays
                            rank one, v shared with the operand
     feedback(diag)         O(w)
     feedback(rank-one)     O(n)  (Sherman–Morrison–Woodbury: vᵀu)
       with λ(s) override   O(w) — no vᵀu, v shared with the operand
     feedback(band k)       LU via Cmatf inside the band: O(n·k²) to
                            factor, O(n·k) per solved column
     feedback(band k),      two-sided elimination, O(n·k²), no
       entry demand         pivoting, proxy-guarded
     feedback(dense)        dense LU via Cmatf, O(n³) unboxed
   "v shared" means the result holds its operand's v storage, so it
   costs nothing per point (see [Into]). Both LU shapes realize every
   row: they rebuild I + G inside the last factors' support (O(n·k)
   stores for band k; the rest of the n×n storage stays zero) and write
   a dense result, every column of it or the one a caller demands (see
   [Into.feedback]). One demanded entry of a banded loop skips the LU:
   [Into.feedback_entry] eliminates a band copy of I + G from both ends
   towards the entry's row and writes that entry alone, to caller
   storage, touching neither a dense result nor LU factors; the banded LU
   stays the path of columns, rows and full realizations, and the
   oracle the entry is tested against. *)

open Numeric

type t =
  | Diag of { dre : float array; dim_ : float array }
  | Band of { n : int; kmax : int; bre : float array; bim : float array }
      (* general banded (not necessarily Toeplitz): entry (i, j) with
         |j - i| <= kmax stored at [i*(2*kmax+1) + (j - i + kmax)] *)
  | Rank1 of {
      ure : float array;
      uim : float array;
      vre : float array;
      vim : float array;
    } (* u·vᵀ — bilinear, no conjugation, matching l·lᵀ of the sampler *)
  | Dense of Cmatf.t

let dim = function
  | Diag { dre; _ } -> Array.length dre
  | Band { n; _ } -> n
  | Rank1 { ure; _ } -> Array.length ure
  | Dense m -> Cmatf.rows m

(* ------------------------------------------------------------------ *)
(* zero-copy constructors over caller-owned storage                    *)

let diag_of_arrays ~dre ~dim_ =
  if Array.length dre <> Array.length dim_ then
    invalid_arg "Smat.diag_of_arrays: length mismatch";
  Diag { dre; dim_ }

let band_of_arrays ~n ~kmax ~bre ~bim =
  let w = (2 * kmax) + 1 in
  if kmax < 0 || Array.length bre <> n * w || Array.length bim <> n * w then
    invalid_arg "Smat.band_of_arrays: storage/bandwidth mismatch";
  Band { n; kmax; bre; bim }

let rank1_of_arrays ~ure ~uim ~vre ~vim = Rank1 { ure; uim; vre; vim }

let of_cmatf m =
  if Cmatf.rows m <> Cmatf.cols m then
    invalid_arg "Smat.of_cmatf: matrix not square";
  Dense m

let of_cmat m = of_cmatf (Cmatf.of_cmat m)

(* ------------------------------------------------------------------ *)
(* boxing (the only place structure is forgotten)                      *)

(* Each entry is boxed once, straight from its shape, by the formula
   [get] uses: a stored entry is copied, a rank-one entry is the
   product u_i·v_k as [Cx.mul] rounds it. The records are built here
   from unboxed floats ([Cx.make] is a call from here, which would box
   its arguments), and the entries off a diagonal or a band share the
   one [Cx.zero] of [Cmat.zeros]. *)
let to_cmat t =
  let n = dim t in
  match t with
  | Diag { dre; dim_ } ->
      let m = Cmat.zeros n n in
      for i = 0 to n - 1 do
        Cmat.set m i i { Complex.re = dre.(i); im = dim_.(i) }
      done;
      m
  | Band { kmax; bre; bim; _ } ->
      let w = (2 * kmax) + 1 in
      let m = Cmat.zeros n n in
      for i = 0 to n - 1 do
        for d = Int.max (-kmax) (-i) to Int.min kmax (n - 1 - i) do
          let p = (i * w) + d + kmax in
          Cmat.set m i (i + d) { Complex.re = bre.(p); im = bim.(p) }
        done
      done;
      m
  | Rank1 { ure; uim; vre; vim } ->
      Cmat.init n n (fun i k ->
          let ar = ure.(i) and ai = uim.(i) and br = vre.(k) and bi = vim.(k) in
          { Complex.re = (ar *. br) -. (ai *. bi); im = (ar *. bi) +. (ai *. br) })
  | Dense m ->
      let re, im = Cmatf.raw m in
      Cmat.init n n (fun i k ->
          let p = (i * n) + k in
          { Complex.re = re.(p); im = im.(p) })

(* ------------------------------------------------------------------ *)
(* element / column access without densifying                          *)

let get t i k =
  let n = dim t in
  if i < 0 || i >= n || k < 0 || k >= n then
    invalid_arg "Smat.get: index out of bounds";
  match t with
  | Diag { dre; dim_ } -> if i = k then Cx.make dre.(i) dim_.(i) else Cx.zero
  | Band { kmax; bre; bim; _ } ->
      let d = k - i in
      if abs d > kmax then Cx.zero
      else
        let w = (2 * kmax) + 1 in
        Cx.make bre.((i * w) + d + kmax) bim.((i * w) + d + kmax)
  | Rank1 { ure; uim; vre; vim } ->
      (* u_i·v_k as [Cx.mul] rounds it, boxing only the product *)
      let ar = ure.(i) and ai = uim.(i) and br = vre.(k) and bi = vim.(k) in
      Cx.make ((ar *. br) -. (ai *. bi)) ((ar *. bi) +. (ai *. br))
  | Dense m -> Cmatf.get m i k

let col t k =
  let n = dim t in
  if k < 0 || k >= n then invalid_arg "Smat.col: index out of bounds";
  Cvec.init n (fun i -> get t i k)

(* Bandwidth above which banded storage loses to flat dense storage:
   (2k+1)·n words vs n·n. *)
let band_too_wide ~n ~kmax = (2 * kmax) + 1 >= n

let to_band_parts = function
  | Diag { dre; dim_ } ->
      let n = Array.length dre in
      (n, 0, dre, dim_)
  | Band { n; kmax; bre; bim } -> (n, kmax, bre, bim)
  | _ -> invalid_arg "Smat.to_band_parts: not banded"

(* ------------------------------------------------------------------ *)
(* matvec and conjugate-transpose matvec (never densifies)             *)

let mv t ~lo ~hi ~xre ~xim ~yre ~yim =
  let n = dim t in
  if Array.length xre <> n || Array.length yre <> n then
    invalid_arg "Smat.mv: dimension mismatch";
  if lo < 0 || hi >= n then invalid_arg "Smat.mv: row window out of bounds";
  (match t with
  | Diag { dre; dim_ } ->
      for i = lo to hi do
        let ar = dre.(i) and ai = dim_.(i) in
        let br = xre.(i) and bi = xim.(i) in
        yre.(i) <- (ar *. br) -. (ai *. bi);
        yim.(i) <- (ar *. bi) +. (ai *. br)
      done
  | Band { kmax; bre; bim; _ } ->
      let w = (2 * kmax) + 1 in
      for i = lo to hi do
        let sr = ref 0.0 and si = ref 0.0 in
        let jlo = Int.max 0 (i - kmax) and jhi = Int.min (n - 1) (i + kmax) in
        for j = jlo to jhi do
          let p = (i * w) + (j - i) + kmax in
          let ar = bre.(p) and ai = bim.(p) in
          let br = xre.(j) and bi = xim.(j) in
          sr := !sr +. ((ar *. br) -. (ai *. bi));
          si := !si +. ((ar *. bi) +. (ai *. br))
        done;
        yre.(i) <- !sr;
        yim.(i) <- !si
      done
  | Rank1 { ure; uim; vre; vim } ->
      (* y = u·(vᵀx): the dot product reads every row of x *)
      let sr = ref 0.0 and si = ref 0.0 in
      for k = 0 to n - 1 do
        let ar = vre.(k) and ai = vim.(k) in
        let br = xre.(k) and bi = xim.(k) in
        sr := !sr +. ((ar *. br) -. (ai *. bi));
        si := !si +. ((ar *. bi) +. (ai *. br))
      done;
      let tr = !sr and ti = !si in
      for i = lo to hi do
        let ar = ure.(i) and ai = uim.(i) in
        yre.(i) <- (ar *. tr) -. (ai *. ti);
        yim.(i) <- (ar *. ti) +. (ai *. tr)
      done
  | Dense m -> Cmatf.gemv m ~xre ~xim ~yre ~yim);
  (* the fault lands in the first realized row, which is what the
     caller reads *)
  if hi >= lo && Robust.Inject.fire Robust.Inject.Smat_nan then
    yre.(lo) <- Float.nan

let mhv t ~xre ~xim ~yre ~yim =
  let n = dim t in
  if Array.length xre <> n || Array.length yre <> n then
    invalid_arg "Smat.mhv: dimension mismatch";
  match t with
  | Diag { dre; dim_ } ->
      for i = 0 to n - 1 do
        let ar = dre.(i) and ai = -.dim_.(i) in
        let br = xre.(i) and bi = xim.(i) in
        yre.(i) <- (ar *. br) -. (ai *. bi);
        yim.(i) <- (ar *. bi) +. (ai *. br)
      done
  | Band { kmax; bre; bim; _ } ->
      let w = (2 * kmax) + 1 in
      Array.fill yre 0 n 0.0;
      Array.fill yim 0 n 0.0;
      for i = 0 to n - 1 do
        let br = xre.(i) and bi = xim.(i) in
        let jlo = Int.max 0 (i - kmax) and jhi = Int.min (n - 1) (i + kmax) in
        for j = jlo to jhi do
          let p = (i * w) + (j - i) + kmax in
          let ar = bre.(p) and ai = -.bim.(p) in
          yre.(j) <- yre.(j) +. ((ar *. br) -. (ai *. bi));
          yim.(j) <- yim.(j) +. ((ar *. bi) +. (ai *. br))
        done
      done
  | Rank1 { ure; uim; vre; vim } ->
      (* Mᴴ = conj(v)·uᴴ: y = conj(v)·(uᴴx) *)
      let sr = ref 0.0 and si = ref 0.0 in
      for k = 0 to n - 1 do
        let ar = ure.(k) and ai = -.uim.(k) in
        let br = xre.(k) and bi = xim.(k) in
        sr := !sr +. ((ar *. br) -. (ai *. bi));
        si := !si +. ((ar *. bi) +. (ai *. br))
      done;
      let tr = !sr and ti = !si in
      for i = 0 to n - 1 do
        let ar = vre.(i) and ai = -.vim.(i) in
        yre.(i) <- (ar *. tr) -. (ai *. ti);
        yim.(i) <- (ar *. ti) +. (ai *. tr)
      done
  | Dense m -> Cmatf.gemv_herm m ~xre ~xim ~yre ~yim

(* y = Aᵀ·x without conjugation, for rank-one·X products. *)
let mtv t ~xre ~xim ~yre ~yim =
  let n = dim t in
  match t with
  | Diag _ -> mv t ~lo:0 ~hi:(n - 1) ~xre ~xim ~yre ~yim
  | Band { kmax; bre; bim; _ } ->
      let w = (2 * kmax) + 1 in
      Array.fill yre 0 n 0.0;
      Array.fill yim 0 n 0.0;
      for i = 0 to n - 1 do
        let br = xre.(i) and bi = xim.(i) in
        let jlo = Int.max 0 (i - kmax) and jhi = Int.min (n - 1) (i + kmax) in
        for j = jlo to jhi do
          let p = (i * w) + (j - i) + kmax in
          let ar = bre.(p) and ai = bim.(p) in
          yre.(j) <- yre.(j) +. ((ar *. br) -. (ai *. bi));
          yim.(j) <- yim.(j) +. ((ar *. bi) +. (ai *. br))
        done
      done
  | Rank1 { ure; uim; vre; vim } ->
      (* Mᵀ = v·uᵀ: y = v·(uᵀx) *)
      let sr = ref 0.0 and si = ref 0.0 in
      for k = 0 to n - 1 do
        let ar = ure.(k) and ai = uim.(k) in
        let br = xre.(k) and bi = xim.(k) in
        sr := !sr +. ((ar *. br) -. (ai *. bi));
        si := !si +. ((ar *. bi) +. (ai *. br))
      done;
      let tr = !sr and ti = !si in
      for i = 0 to n - 1 do
        let ar = vre.(i) and ai = vim.(i) in
        yre.(i) <- (ar *. tr) -. (ai *. ti);
        yim.(i) <- (ar *. ti) +. (ai *. tr)
      done
  | Dense m ->
      let nn = Cmatf.rows m in
      Array.fill yre 0 nn 0.0;
      Array.fill yim 0 nn 0.0;
      for i = 0 to nn - 1 do
        let br = xre.(i) and bi = xim.(i) in
        for k = 0 to nn - 1 do
          let z = Cmatf.get m i k in
          let ar = Cx.re z and ai = Cx.im z in
          yre.(k) <- yre.(k) +. ((ar *. br) -. (ai *. bi));
          yim.(k) <- yim.(k) +. ((ar *. bi) +. (ai *. br))
        done
      done

(* ------------------------------------------------------------------ *)
(* finiteness                                                          *)

(* entries [first, last) of a split re/im pair are all finite *)
let finite_range re im first last =
  let rec go p =
    p >= last || (Float.is_finite re.(p) && Float.is_finite im.(p) && go (p + 1))
  in
  go first

(* The stored entries of rows lo..hi; a rank-one matrix's v counts in
   full, since every row reads all of it, unless the caller already
   knows it finite ([v_finite]). *)
let rows_finite ?(v_finite = false) t ~lo ~hi =
  match t with
  | Diag { dre; dim_ } -> finite_range dre dim_ lo (hi + 1)
  | Band { kmax; bre; bim; _ } ->
      let w = (2 * kmax) + 1 in
      finite_range bre bim (lo * w) ((hi + 1) * w)
  | Rank1 { ure; uim; vre; vim } ->
      finite_range ure uim lo (hi + 1)
      && (v_finite || finite_range vre vim 0 (Array.length vre))
  | Dense m -> Cmatf.is_finite m (* dense results realize every row *)

(* ------------------------------------------------------------------ *)
(* diagnostics                                                         *)

(* Largest |entry| off the main diagonal — drives Htm.is_lti without a
   dense materialization for structured shapes. *)
let max_offdiag_abs t =
  let n = dim t in
  match t with
  | Diag _ -> 0.0
  | _ ->
      let best = ref 0.0 in
      (match t with
      | Band { kmax; bre; bim; _ } ->
          let w = (2 * kmax) + 1 in
          for i = 0 to n - 1 do
            for d = -kmax to kmax do
              let j = i + d in
              if d <> 0 && j >= 0 && j < n then begin
                let p = (i * w) + d + kmax in
                let m = Float.hypot bre.(p) bim.(p) in
                if m > !best then best := m
              end
            done
          done
      | _ ->
          for i = 0 to n - 1 do
            for k = 0 to n - 1 do
              if i <> k then begin
                let m = Cx.abs (get t i k) in
                if m > !best then best := m
              end
            done
          done);
      !best

let norm_inf t =
  let n = dim t in
  let best = ref 0.0 in
  for i = 0 to n - 1 do
    let acc = ref 0.0 in
    for k = 0 to n - 1 do
      acc := !acc +. Cx.abs (get t i k)
    done;
    if !acc > !best then best := !acc
  done;
  !best

(* ------------------------------------------------------------------ *)
(* plan/execute support: static shape algebra and in-place kernels.    *)
(* [Plan] compiles an HTM tree once, allocating one container per node *)
(* from the static shapes below, then streams s-points through the     *)
(* [Into] kernels, writing into caller-owned storage.                  *)

type shape_t = [ `Diag | `Band of int | `Rank1 | `Dense ]

(* Static composition rules: the shape of a sum, product or closed
   loop is a function of the operand shapes alone (never of their
   values), so a plan can size every container before it sees a
   frequency point. [Into]'s dispatch follows these rules decision for
   decision. *)

let band_k : shape_t -> int = function
  | `Diag -> 0
  | `Band k -> k
  | _ -> invalid_arg "Smat.band_k: not banded"

let shape_add (a : shape_t) (b : shape_t) : shape_t =
  match (a, b) with
  | (`Diag | `Band _), (`Diag | `Band _) ->
      let k = Int.max (band_k a) (band_k b) in
      if k = 0 then `Diag else `Band k
  | _ -> `Dense

let shape_mul ~n (a : shape_t) (b : shape_t) : shape_t =
  match (a, b) with
  | `Diag, `Diag -> `Diag
  | _, `Rank1 | `Rank1, _ -> `Rank1
  | (`Diag | `Band _), (`Diag | `Band _) ->
      let k = Int.min (band_k a + band_k b) (n - 1) in
      if band_too_wide ~n ~kmax:k && n > 1 then `Dense
      else if k = 0 then `Diag
      else `Band k
  | `Dense, `Diag | `Diag, `Dense -> `Dense
  | _ -> `Dense

let shape_feedback : shape_t -> shape_t = function
  | `Diag -> `Diag
  | `Rank1 -> `Rank1
  | `Band _ | `Dense -> `Dense

(* Which operands of an [Into.mul] with these shapes must be densified
   into caller-provided scratch ([da], [db])? Mirrors [Into.mul]'s
   dispatch: only the gemm paths need dense operands. *)
let mul_scratch ~n (a : shape_t) (b : shape_t) =
  match (a, b) with
  | `Diag, `Diag -> (false, false)
  | _, `Rank1 | `Rank1, _ -> (false, false)
  | (`Diag | `Band _), (`Diag | `Band _) ->
      let k = Int.min (band_k a + band_k b) (n - 1) in
      if band_too_wide ~n ~kmax:k && n > 1 then (true, true) else (false, false)
  | `Dense, `Diag | `Diag, `Dense -> (false, false)
  | _ -> (a <> `Dense, b <> `Dense)

(* dst += sgn·t on the raw dense storage (dst must be n×n). *)
let axpy_sgn_into t sgn m =
  let n = dim t in
  let mre, mim = Cmatf.raw m in
  let nc = Cmatf.cols m in
  match t with
  | Diag { dre; dim_ } ->
      for i = 0 to n - 1 do
        let p = (i * nc) + i in
        mre.(p) <- mre.(p) +. (sgn *. dre.(i));
        mim.(p) <- mim.(p) +. (sgn *. dim_.(i))
      done
  | Band { kmax; bre; bim; _ } ->
      let w = (2 * kmax) + 1 in
      for i = 0 to n - 1 do
        for d = Int.max (-kmax) (-i) to Int.min kmax (n - 1 - i) do
          let j = i + d in
          let p = (i * w) + d + kmax in
          mre.((i * nc) + j) <- mre.((i * nc) + j) +. (sgn *. bre.(p));
          mim.((i * nc) + j) <- mim.((i * nc) + j) +. (sgn *. bim.(p))
        done
      done
  | Rank1 { ure; uim; vre; vim } ->
      for i = 0 to n - 1 do
        let ar = ure.(i) and ai = uim.(i) in
        for k = 0 to n - 1 do
          let br = vre.(k) and bi = vim.(k) in
          let p = (i * nc) + k in
          mre.(p) <- mre.(p) +. (sgn *. ((ar *. br) -. (ai *. bi)));
          mim.(p) <- mim.(p) +. (sgn *. ((ar *. bi) +. (ai *. br)))
        done
      done
  | Dense src ->
      let sre, sim = Cmatf.raw src in
      for p = 0 to (n * nc) - 1 do
        mre.(p) <- mre.(p) +. (sgn *. sre.(p));
        mim.(p) <- mim.(p) +. (sgn *. sim.(p))
      done

let densify_into t m =
  if Cmatf.rows m <> dim t || Cmatf.cols m <> dim t then
    invalid_arg "Smat.densify_into: dimension mismatch";
  Cmatf.fill_zero m;
  axpy_sgn_into t 1.0 m

(* Complex division into split scalars, mirroring [Complex.div]
   (Smith's algorithm) so closed-form feedback keeps the exact rounding
   of [Cx.div]. Returns (re, im) as a pair of floats — local use
   only, immediately destructured (no heap escape under flambda, and a
   single short-lived block otherwise). *)
let div_parts nr ni dr di =
  if Float.abs dr >= Float.abs di then begin
    let r = di /. dr in
    let d = dr +. (r *. di) in
    ((nr +. (r *. ni)) /. d, (ni -. (r *. nr)) /. d)
  end
  else begin
    let r = dr /. di in
    let d = di +. (r *. dr) in
    (((r *. nr) +. ni) /. d, ((r *. ni) -. nr) /. d)
  end

(* |re + i·im| mirroring [Complex.norm]'s overflow-safe scaling, so the
   checked-feedback conditioning proxies agree with [Cx.abs] to the
   last ulp. *)
let cnorm re im =
  let r = Float.abs re and i = Float.abs im in
  if Float.equal r 0.0 then i
  else if Float.equal i 0.0 then r
  else if r >= i then
    let q = i /. r in
    r *. Stdlib.sqrt (1.0 +. (q *. q))
  else
    let q = r /. i in
    i *. Stdlib.sqrt (1.0 +. (q *. q))

(* LU storage for the closed loop of a banded or dense operand: the
   factors of I + G, a workspace carrying G's bandwidth (the identity
   adds none), and one right-hand-side column. A banded operand also
   gets the band of I + G that the entry elimination works in ([tre],
   [tim], n·(2k+1) each; empty for a dense operand) and [q], three
   float slots for its unboxed scalars. The n×n factors are allocated
   by the first LU ([lu_factors]): an entry elimination never needs
   them. *)
type lu_scratch = {
  mutable lu : Cmatf.t option;
  ws : Cmatf.lu_ws;
  rhs : Cmatf.t;
  rre : float array;  (* [rhs]'s storage *)
  rim : float array;
  tre : float array;
  tim : float array;
  q : float array;
}

let lu_scratch ~n (g : shape_t) =
  let ws, band =
    match g with
    | `Diag | `Band _ ->
        let k = band_k g in
        (Cmatf.lu_ws ~kl:k ~ku:k n, n * ((2 * k) + 1))
    | `Rank1 | `Dense -> (Cmatf.lu_ws n, 0)
  in
  let rhs = Cmatf.create n 1 in
  let rre, rim = Cmatf.raw rhs in
  {
    lu = None;
    ws;
    rhs;
    rre;
    rim;
    tre = Array.make band 0.0;
    tim = Array.make band 0.0;
    q = Array.make 3 0.0;
  }

let lu_factors sc n =
  match sc.lu with
  | Some a -> a
  | None ->
      let a = Cmatf.create n n in
      sc.lu <- Some a;
      a

(* q.(0) + i·q.(1) := (ar + i·ai)/(br + i·bi) by Smith's algorithm, as
   [Complex.div] computes it. Inlined, so no float is boxed. *)
let[@inline] div_into q ar ai br bi =
  if Float.abs br >= Float.abs bi then begin
    let r = bi /. br in
    let d = br +. (r *. bi) in
    q.(0) <- (ar +. (r *. ai)) /. d;
    q.(1) <- (ai -. (r *. ar)) /. d
  end
  else begin
    let r = br /. bi in
    let d = bi +. (r *. br) in
    q.(0) <- ((r *. ar) +. ai) /. d;
    q.(1) <- ((r *. ai) -. ar) /. d
  end

(* A pivot of the entry elimination failed its guard; [q.(2)] holds the
   condition estimate to report. *)
exception Breakdown

(* The exact proxy (|a| + |d|)/|p| of a pivot p = a + d, on the cold
   path only: [twisted_pivot] compares squares first. *)
let pivot_proxy ar ai pr pi = (cnorm ar ai +. cnorm (pr -. ar) (pi -. ai)) /. cnorm pr pi

(* max|p|/min|p| over the n pivots on the diagonal of the band *)
let pivot_spread sc ~n ~w ~k =
  let lo = ref infinity and hi = ref 0.0 in
  for j = 0 to n - 1 do
    let m = cnorm sc.tre.((j * w) + k) sc.tim.((j * w) + k) in
    lo := Float.min !lo m;
    hi := Float.max !hi m
  done;
  !hi /. !lo

(* Guards pivot j of the entry elimination (the diagonal entry j of the
   band [sc.tre]/[sc.tim], width w), whose entry in I + G was 1 + G_jj,
   and leaves 1/p_j in q.(0), q.(1). *)
let[@lint.hot] twisted_pivot sc ~gre ~gim ~w ~k j =
  let p = (j * w) + k and q = sc.q in
  let pr = sc.tre.(p) and pi = sc.tim.(p) in
  if
    (not (Float.is_finite pr && Float.is_finite pi))
    || (Float.equal pr 0.0 && Float.equal pi 0.0)
    || Robust.Inject.fire Robust.Inject.Lu_pivot
  then begin
    q.(2) <- infinity;
    raise_notrace Breakdown
  end;
  let ar = gre.(p) +. 1.0 and ai = gim.(p) in
  let dr = pr -. ar and di = pi -. ai in
  let smw = Robust.Config.smw_max_cond in
  let p2 = (pr *. pr) +. (pi *. pi) in
  (* (|a| + |d|)² ≤ 2(|a|² + |d|²) *)
  if not (2.0 *. ((ar *. ar) +. (ai *. ai) +. (dr *. dr) +. (di *. di)) < smw *. smw *. p2)
  then begin
    (* cold: a pivot within a factor √2 of the threshold, or squares
       that over- or underflowed *)
    let proxy = (pivot_proxy ar ai pr pi [@lint.allow "hot-alloc"]) in
    if not (proxy <= smw) then begin
      q.(2) <- proxy;
      raise_notrace Breakdown
    end
  end;
  (* 1/p = conj(p)/|p|², one division, while |p|² is a normal float *)
  if p2 >= Float.min_float && p2 <= Float.max_float then begin
    let t = 1.0 /. p2 in
    q.(0) <- pr *. t;
    q.(1) <- -.(pi *. t)
  end
  else div_into q 1.0 0.0 pr pi

(* One entry H_rc of H = (I + G)⁻¹·G for a banded G, by two-sided
   ("twisted") elimination of A = I + G against the right-hand side b =
   column c of G. Columns 0 … r−1 are eliminated top-down, which leaves
   rows r … n−1 holding the Schur complement of the leading block (still
   banded: no pivoting, so no fill outside the band); its columns
   n−1 … r+1 are then eliminated bottom-up, which leaves row r as the one
   equation a″_rr·x_r = b″_r. H_rc = x_r, read off the eliminated
   right-hand side, never as 1 − [A⁻¹]_rr, which cancels where |G| is
   small. O(n·k²) flops, every pivot used once: no search, no swap.

   Each pivot p_j is guarded ([twisted_pivot]): a zero or non-finite
   pivot, or a fired lu-pivot site (one hit per pivot), is exactly
   singular; otherwise the closed-form proxy (|a_jj| + |p_j − a_jj|)/|p_j|
   — a_jj the diagonal of I + G, p_j − a_jj the sum of the elimination's
   updates to it — must not exceed [Config.smw_max_cond]. Every pivot
   stays on the band's diagonal, so a last scan bounds their spread
   max|p|/min|p| by [Config.max_cond], the banded LU's [1/lu_pivot_ratio]
   test. Both tests compare squared moduli first and take square roots
   only when that is inconclusive. A failed guard raises [Breakdown]
   with its estimate in q.(2); on success H_rc lands in q.(0), q.(1). *)
let[@lint.hot] twisted_entry sc ~n ~k ~gre ~gim ~row:r ~col:c =
  let w = (2 * k) + 1 in
  let are = sc.tre and aim = sc.tim and q = sc.q in
  let bre = sc.rre and bim = sc.rim in
  (* A := I + G inside the band, b := column c of G *)
  Array.blit gre 0 are 0 (n * w);
  Array.blit gim 0 aim 0 (n * w);
  for i = 0 to n - 1 do
    are.((i * w) + k) <- are.((i * w) + k) +. 1.0
  done;
  Array.fill bre 0 n 0.0;
  Array.fill bim 0 n 0.0;
  for i = Int.max 0 (c - k) to Int.min (n - 1) (c + k) do
    let p = (i * w) + (c - i) + k in
    bre.(i) <- gre.(p);
    bim.(i) <- gim.(p)
  done;
  (* top-down: pivot row j clears column j from rows j+1 … j+k *)
  for j = 0 to r - 1 do
    twisted_pivot sc ~gre ~gim ~w ~k j;
    let vr = q.(0) and vi = q.(1) in
    let hi = Int.min (n - 1) (j + k) in
    for i = j + 1 to hi do
      let x = (i * w) + (j - i) + k in
      let xr = are.(x) and xi = aim.(x) in
      if not (Float.equal xr 0.0 && Float.equal xi 0.0) then begin
        let mr = (xr *. vr) -. (xi *. vi) and mi = (xr *. vi) +. (xi *. vr) in
        for l = j + 1 to hi do
          let pj = (j * w) + (l - j) + k and pl = (i * w) + (l - i) + k in
          let ur = are.(pj) and ui = aim.(pj) in
          are.(pl) <- are.(pl) -. ((mr *. ur) -. (mi *. ui));
          aim.(pl) <- aim.(pl) -. ((mr *. ui) +. (mi *. ur))
        done;
        let br = bre.(j) and bi = bim.(j) in
        bre.(i) <- bre.(i) -. ((mr *. br) -. (mi *. bi));
        bim.(i) <- bim.(i) -. ((mr *. bi) +. (mi *. br))
      end
    done
  done;
  (* bottom-up over the Schur complement (rows and columns r … n−1):
     pivot row j clears column j from rows max(r, j−k) … j−1 *)
  for j = n - 1 downto r + 1 do
    twisted_pivot sc ~gre ~gim ~w ~k j;
    let vr = q.(0) and vi = q.(1) in
    let lo = Int.max r (j - k) in
    for i = lo to j - 1 do
      let x = (i * w) + (j - i) + k in
      let xr = are.(x) and xi = aim.(x) in
      if not (Float.equal xr 0.0 && Float.equal xi 0.0) then begin
        let mr = (xr *. vr) -. (xi *. vi) and mi = (xr *. vi) +. (xi *. vr) in
        for l = lo to j - 1 do
          let pj = (j * w) + (l - j) + k and pl = (i * w) + (l - i) + k in
          let ur = are.(pj) and ui = aim.(pj) in
          are.(pl) <- are.(pl) -. ((mr *. ur) -. (mi *. ui));
          aim.(pl) <- aim.(pl) -. ((mr *. ui) +. (mi *. ur))
        done;
        let br = bre.(j) and bi = bim.(j) in
        bre.(i) <- bre.(i) -. ((mr *. br) -. (mi *. bi));
        bim.(i) <- bim.(i) -. ((mr *. bi) +. (mi *. br))
      end
    done
  done;
  twisted_pivot sc ~gre ~gim ~w ~k r;
  (* the spread of the pivots, as the banded LU bounds its U diagonal *)
  let pmin = ref infinity and pmax = ref 0.0 in
  for j = 0 to n - 1 do
    let pr = are.((j * w) + k) and pi = aim.((j * w) + k) in
    let p2 = (pr *. pr) +. (pi *. pi) in
    if p2 < !pmin then pmin := p2;
    if p2 > !pmax then pmax := p2
  done;
  let mc = Robust.Config.max_cond in
  if not (!pmax <= mc *. mc *. !pmin) then begin
    (* cold: the squares over- or underflowed, or the pivots spread *)
    let spread = (pivot_spread sc ~n ~w ~k [@lint.allow "hot-alloc"]) in
    if not (spread <= mc) then begin
      q.(2) <- spread;
      raise_notrace Breakdown
    end
  end;
  let p = (r * w) + k in
  div_into q bre.(r) bim.(r) are.(p) aim.(p)

(* x := column k of a banded/dense t, rounded as [densify_into] rounds
   it (0 + entry), so the column equals that column of the dense
   realization bit for bit. *)
let column_into t k x =
  let n = dim t in
  let xre, xim = Cmatf.raw x in
  Array.fill xre 0 n 0.0;
  Array.fill xim 0 n 0.0;
  match t with
  | Band { kmax; bre; bim; _ } ->
      let w = (2 * kmax) + 1 in
      for i = Int.max 0 (k - kmax) to Int.min (n - 1) (k + kmax) do
        let p = (i * w) + (k - i) + kmax in
        xre.(i) <- xre.(i) +. bre.(p);
        xim.(i) <- xim.(i) +. bim.(p)
      done
  | Dense m ->
      let mre, mim = Cmatf.raw m in
      for i = 0 to n - 1 do
        xre.(i) <- xre.(i) +. mre.((i * n) + k);
        xim.(i) <- xim.(i) +. mim.((i * n) + k)
      done
  | Diag _ | Rank1 _ -> invalid_arg "Smat.column_into: not banded or dense"

(* column k of dense m := the n×1 x *)
let store_column x m k =
  let xre, xim = Cmatf.raw x and mre, mim = Cmatf.raw m in
  let n = Cmatf.rows m in
  for i = 0 to n - 1 do
    mre.((i * n) + k) <- xre.(i);
    mim.((i * n) + k) <- xim.(i)
  done

module Into = struct
  (* All kernels write into [dst]'s storage. [dst] must have exactly
     the shape the static rules above assign to the operation and must
     not alias an operand — except that a rank-one result whose v is
     its operand's (A·(u vᵀ), z·(u vᵀ), the rank-one loop) holds that
     operand's v storage and writes u alone. Row demand: rows [lo..hi]
     of [dst] are overwritten and every other row is left as it was, so
     containers can be reused point after point with no clearing in
     between; the full window [0..n-1] runs the loops of a whole
     realization. The v of (u vᵀ)·B and a dense [dst] are always
     realized in full. Each row is computed by the same formula in the
     same order whatever the window, so a windowed row is bit-identical
     to that row of a full realization. *)

  (* dst.(p) := z·src.(p) for p in [first, last) *)
  let scale_pair_into z src_re src_im dst_re dst_im first last =
    let zr = Cx.re z and zi = Cx.im z in
    for p = first to last - 1 do
      let ar = src_re.(p) and ai = src_im.(p) in
      dst_re.(p) <- (zr *. ar) -. (zi *. ai);
      dst_im.(p) <- (zr *. ai) +. (zi *. ar)
    done

  let scale ~dst ~lo ~hi z t =
    match (dst, t) with
    | Diag d, Diag s ->
        scale_pair_into z s.dre s.dim_ d.dre d.dim_ lo (hi + 1)
    | Band d, Band s when d.kmax = s.kmax ->
        let w = (2 * d.kmax) + 1 in
        scale_pair_into z s.bre s.bim d.bre d.bim (lo * w) ((hi + 1) * w)
    | Rank1 d, Rank1 s ->
        if d.vre != s.vre then
          invalid_arg "Smat.Into.scale: rank-one dst must share the operand's v";
        scale_pair_into z s.ure s.uim d.ure d.uim lo (hi + 1)
    | Dense d, Dense s ->
        Cmatf.blit ~src:s ~dst:d;
        Cmatf.scale_inplace z d
    | _ -> invalid_arg "Smat.Into.scale: dst shape mismatch"

  let add ~dst ?(sub = false) ~lo ~hi a b =
    let sgn = if sub then -1.0 else 1.0 in
    match dst with
    | Diag _ | Band _ ->
        let n, kd, dre, dim_ = to_band_parts dst in
        let _, ka, are, aim = to_band_parts a in
        let _, kb, bre_, bim_ = to_band_parts b in
        let w = (2 * kd) + 1 and wa = (2 * ka) + 1 and wb = (2 * kb) + 1 in
        Array.fill dre (lo * w) ((hi - lo + 1) * w) 0.0;
        Array.fill dim_ (lo * w) ((hi - lo + 1) * w) 0.0;
        for i = lo to hi do
          for d = -kd to kd do
            let j = i + d in
            if j >= 0 && j < n then begin
              let p = (i * w) + d + kd in
              if abs d <= ka then begin
                dre.(p) <- dre.(p) +. are.((i * wa) + d + ka);
                dim_.(p) <- dim_.(p) +. aim.((i * wa) + d + ka)
              end;
              if abs d <= kb then begin
                dre.(p) <- dre.(p) +. (sgn *. bre_.((i * wb) + d + kb));
                dim_.(p) <- dim_.(p) +. (sgn *. bim_.((i * wb) + d + kb))
              end
            end
          done
        done
    | Dense m ->
        Cmatf.fill_zero m;
        axpy_sgn_into a 1.0 m;
        axpy_sgn_into b sgn m
    | Rank1 _ -> invalid_arg "Smat.Into.add: rank-one destination"

  let gemm_operand t scratch =
    match t with
    | Dense m -> m
    | _ -> (
        match scratch with
        | Some m ->
            densify_into t m;
            m
        | None -> invalid_arg "Smat.Into.mul: missing densification scratch")

  let mul ~dst ?da ?db ~lo ~hi a b =
    let n = dim a in
    match (dst, a, b) with
    | Diag d, Diag x, Diag y ->
        for i = lo to hi do
          let ar = x.dre.(i) and ai = x.dim_.(i) in
          let br = y.dre.(i) and bi = y.dim_.(i) in
          d.dre.(i) <- (ar *. br) -. (ai *. bi);
          d.dim_.(i) <- (ar *. bi) +. (ai *. br)
        done
    | Rank1 d, _, Rank1 r ->
        (* A·(u·vᵀ) = (A·u)·vᵀ *)
        if d.vre != r.vre then
          invalid_arg "Smat.Into.mul: rank-one dst must share the operand's v";
        mv a ~lo ~hi ~xre:r.ure ~xim:r.uim ~yre:d.ure ~yim:d.uim
    | Rank1 d, Rank1 r, _ ->
        (* (u·vᵀ)·B = u·(Bᵀv)ᵀ *)
        mtv b ~xre:r.vre ~xim:r.vim ~yre:d.vre ~yim:d.vim;
        Array.blit r.ure lo d.ure lo (hi - lo + 1);
        Array.blit r.uim lo d.uim lo (hi - lo + 1)
    | (Diag _ | Band _), (Diag _ | Band _), (Diag _ | Band _) ->
        let _, kd, dre, dim_ = to_band_parts dst in
        let _, ka, are, aim = to_band_parts a in
        let _, kb, bre_, bim_ = to_band_parts b in
        let w = (2 * kd) + 1 and wa = (2 * ka) + 1 and wb = (2 * kb) + 1 in
        Array.fill dre (lo * w) ((hi - lo + 1) * w) 0.0;
        Array.fill dim_ (lo * w) ((hi - lo + 1) * w) 0.0;
        for i = lo to hi do
          let llo = Int.max 0 (i - ka) and lhi = Int.min (n - 1) (i + ka) in
          for l = llo to lhi do
            let pa = (i * wa) + (l - i) + ka in
            let ar = are.(pa) and ai = aim.(pa) in
            if not (Float.equal ar 0.0 && Float.equal ai 0.0) then begin
              let jlo = Int.max (Int.max 0 (l - kb)) (i - kd) in
              let jhi = Int.min (Int.min (n - 1) (l + kb)) (i + kd) in
              for j = jlo to jhi do
                let pb = (l * wb) + (j - l) + kb in
                let br = bre_.(pb) and bi = bim_.(pb) in
                let p = (i * w) + (j - i) + kd in
                dre.(p) <- dre.(p) +. ((ar *. br) -. (ai *. bi));
                dim_.(p) <- dim_.(p) +. ((ar *. bi) +. (ai *. br))
              done
            end
          done
        done
    | Dense d, Dense x, Diag y ->
        (* column scaling *)
        let dr, di = Cmatf.raw d and xr, xi = Cmatf.raw x in
        for i = 0 to n - 1 do
          for k = 0 to n - 1 do
            let p = (i * n) + k in
            let ar = xr.(p) and ai = xi.(p) in
            let br = y.dre.(k) and bi = y.dim_.(k) in
            dr.(p) <- (ar *. br) -. (ai *. bi);
            di.(p) <- (ar *. bi) +. (ai *. br)
          done
        done
    | Dense d, Diag x, Dense y ->
        (* row scaling *)
        let dr, di = Cmatf.raw d and yr, yi = Cmatf.raw y in
        for i = 0 to n - 1 do
          let ar = x.dre.(i) and ai = x.dim_.(i) in
          for k = 0 to n - 1 do
            let p = (i * n) + k in
            let br = yr.(p) and bi = yi.(p) in
            dr.(p) <- (ar *. br) -. (ai *. bi);
            di.(p) <- (ar *. bi) +. (ai *. br)
          done
        done
    | Dense d, _, _ ->
        Cmatf.gemm ~dst:d (gemm_operand a da) (gemm_operand b db)
    | _ -> invalid_arg "Smat.Into.mul: dst shape mismatch"

  (* The closed-form shapes guard their scalar denominators with the
     conditioning proxy (1 + |d|)/|1 + d| — the exact κ of the 1×1 (or
     rank-one deflated) subproblem the closed form solves — against
     Config.smw_max_cond; the banded/dense shapes go through the checked
     LU with its Hager estimate. The closed forms realize rows [lo..hi]
     and guard what they realize: a diagonal loop scans the window's
     denominators, a rank-one loop its one scalar. A banded/dense loop
     realizes every row, and solves only column [col] of the result
     when [col >= 0]; one entry of a banded loop is [feedback_entry]'s. *)
  let feedback ~dst ?scratch ?denom_override ?(v_finite = false) ~lo ~hi
      ~col ~context g =
    let open Robust in
    let n = dim g in
    let max_cond = Config.smw_max_cond in
    match (dst, g) with
    | Diag d, Diag x ->
        let worst = ref 1.0 and exact = ref false in
        for i = lo to hi do
          let dr = x.dre.(i) and di = x.dim_.(i) in
          let dm = cnorm (1.0 +. dr) di in
          if Float.equal dm 0.0 then exact := true
          else begin
            let proxy = (1.0 +. cnorm dr di) /. dm in
            if proxy > !worst then worst := proxy
          end
        done;
        if !exact then
          Error (Pllscope_error.Singular { cond_est = infinity; context })
        else if !worst > max_cond then
          Error (Pllscope_error.Singular { cond_est = !worst; context })
        else begin
          for i = lo to hi do
            let dr = x.dre.(i) and di = x.dim_.(i) in
            let qr, qi = div_parts dr di (1.0 +. dr) di in
            d.dre.(i) <- qr;
            d.dim_.(i) <- qi
          done;
          if finite_range d.dre d.dim_ lo (hi + 1) then Ok ()
          else Error (Pllscope_error.Non_finite { where = context })
        end
    | Rank1 d, Rank1 r ->
        if d.vre != r.vre then
          invalid_arg "Smat.Into.feedback: rank-one dst must share the operand's v";
        (* the denominator term: λ(s) when given, else vᵀu, which reads
           every row of u. Two scalars, not one pair: this path is in
           the hot set and the intermediate tuple would allocate. *)
        let sr = ref 0.0 and si = ref 0.0 in
        (match denom_override with
        | Some l ->
            sr := Cx.re l;
            si := Cx.im l
        | None ->
            for k = 0 to n - 1 do
              let ar = r.vre.(k) and ai = r.vim.(k) in
              let br = r.ure.(k) and bi = r.uim.(k) in
              sr := !sr +. ((ar *. br) -. (ai *. bi));
              si := !si +. ((ar *. bi) +. (ai *. br))
            done);
        let lr = !sr and li = !si in
        let er = 1.0 +. lr and ei = li in
        let dm = cnorm er ei in
        if Float.equal dm 0.0 then
          Error (Pllscope_error.Singular { cond_est = infinity; context })
        else begin
          let proxy = (1.0 +. cnorm lr li) /. dm in
          if proxy > max_cond then
            Error (Pllscope_error.Singular { cond_est = proxy; context })
          else begin
            let zr, zi = div_parts 1.0 0.0 er ei in
            for i = lo to hi do
              let ar = r.ure.(i) and ai = r.uim.(i) in
              d.ure.(i) <- (zr *. ar) -. (zi *. ai);
              d.uim.(i) <- (zr *. ai) +. (zi *. ar)
            done;
            if
              finite_range d.ure d.uim lo (hi + 1)
              && (v_finite || finite_range d.vre d.vim 0 n)
            then Ok ()
            else Error (Pllscope_error.Non_finite { where = context })
          end
        end
    | Dense b, (Band _ | Dense _) -> (
        let sc =
          match scratch with
          | Some s -> s
          | None -> invalid_arg "Smat.Into.feedback: missing LU scratch"
        in
        let a = lu_factors sc n and ws = sc.ws and rhs = sc.rhs in
        (* [a] holds the last point's factors (or zeros): clearing their
           support leaves the zero matrix that [densify_into] starts
           from, at O(n·band) instead of O(n²) *)
        Cmatf.lu_clear a ws;
        axpy_sgn_into g 1.0 a;
        Cmatf.add_ident a;
        (* the right-hand sides: every column of G, or only the one the
           caller reads *)
        let x =
          if col < 0 then begin
            densify_into g b;
            b
          end
          else begin
            column_into g col rhs;
            rhs
          end
        in
        let solved =
          match Cmatf.lu_decompose_checked ~context a ws with
          | Error e -> Error e
          | Ok _cond -> Cmatf.lu_solve_checked a ws x ~context
        in
        if col >= 0 then store_column rhs b col;
        solved)
    | _ -> invalid_arg "Smat.Into.feedback: dst shape mismatch"

  (* One entry H_rc of the closed loop of a banded G, by [twisted_entry]:
     no LU and no dense result, the entry lands in out_re.(0),
     out_im.(0). *)
  let[@lint.hot] feedback_entry ~scratch ~row ~col ~context ~out_re ~out_im g =
    let open Robust in
    match g with
    | Band { n; kmax = k; bre = gre; bim = gim } -> (
        match twisted_entry scratch ~n ~k ~gre ~gim ~row ~col with
        | exception Breakdown ->
            Error (Pllscope_error.Singular { cond_est = scratch.q.(2); context })
        | () ->
            let hre = scratch.q.(0) and him = scratch.q.(1) in
            out_re.(0) <- hre;
            out_im.(0) <- him;
            if Float.is_finite hre && Float.is_finite him then Ok ()
            else Error (Pllscope_error.Non_finite { where = context }))
    | _ -> invalid_arg "Smat.Into.feedback_entry: operand not banded"
end
