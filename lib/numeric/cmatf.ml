(* Flat, unboxed complex matrices: split re/im float arrays, row-major.

   [Cmat.t] boxes every entry as a [Complex.t] record behind a pointer
   array-of-arrays, so a dense n×n product chases 3 pointers per flop
   and allocates one heap block per scalar. This module stores the same
   data as two flat [float array]s (unboxed by the OCaml runtime), and
   every kernel below writes into caller-provided storage — the hot
   paths of the structured HTM evaluator allocate nothing but their
   final result. Complex quotients are stored straight into their
   destination arrays: a [float ref] out-parameter would box a float
   on every assignment (no flambda to unbox it). Loop bounds use
   Int.min/Int.max: the polymorphic Stdlib.min/max compile to a
   generic-compare call. *)

type t = { rows : int; cols : int; re : float array; im : float array }

let create rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Cmatf.create: negative dimension";
  { rows; cols; re = Array.make (rows * cols) 0.0; im = Array.make (rows * cols) 0.0 }

let rows m = m.rows
let cols m = m.cols

let get m i k =
  if i < 0 || i >= m.rows || k < 0 || k >= m.cols then
    invalid_arg "Cmatf.get: index out of bounds";
  let p = (i * m.cols) + k in
  Cx.make m.re.(p) m.im.(p)

let set m i k z =
  if i < 0 || i >= m.rows || k < 0 || k >= m.cols then
    invalid_arg "Cmatf.set: index out of bounds";
  let p = (i * m.cols) + k in
  m.re.(p) <- Cx.re z;
  m.im.(p) <- Cx.im z

let copy m =
  { rows = m.rows; cols = m.cols; re = Array.copy m.re; im = Array.copy m.im }

let raw m = (m.re, m.im)

let blit ~src ~dst =
  if src.rows <> dst.rows || src.cols <> dst.cols then
    invalid_arg "Cmatf.blit: dimension mismatch";
  Array.blit src.re 0 dst.re 0 (src.rows * src.cols);
  Array.blit src.im 0 dst.im 0 (src.rows * src.cols)

let fill_zero m =
  Array.fill m.re 0 (m.rows * m.cols) 0.0;
  Array.fill m.im 0 (m.rows * m.cols) 0.0

let identity n =
  let m = create n n in
  for i = 0 to n - 1 do
    m.re.((i * n) + i) <- 1.0
  done;
  m

(* A += alpha·I, in place. *)
let add_ident ?(alpha = Cx.one) m =
  if m.rows <> m.cols then invalid_arg "Cmatf.add_ident: matrix not square";
  let ar = Cx.re alpha and ai = Cx.im alpha in
  for i = 0 to m.rows - 1 do
    let p = (i * m.cols) + i in
    m.re.(p) <- m.re.(p) +. ar;
    m.im.(p) <- m.im.(p) +. ai
  done

(* A *= z, in place. *)
let scale_inplace z m =
  let zr = Cx.re z and zi = Cx.im z in
  for p = 0 to (m.rows * m.cols) - 1 do
    let ar = m.re.(p) and ai = m.im.(p) in
    m.re.(p) <- (zr *. ar) -. (zi *. ai);
    m.im.(p) <- (zr *. ai) +. (zi *. ar)
  done

(* Y += z·X, in place. *)
let axpy z x y =
  if x.rows <> y.rows || x.cols <> y.cols then
    invalid_arg "Cmatf.axpy: dimension mismatch";
  let zr = Cx.re z and zi = Cx.im z in
  for p = 0 to (x.rows * x.cols) - 1 do
    let ar = x.re.(p) and ai = x.im.(p) in
    y.re.(p) <- y.re.(p) +. ((zr *. ar) -. (zi *. ai));
    y.im.(p) <- y.im.(p) +. ((zr *. ai) +. (zi *. ar))
  done

(* dst = A·B (dst cleared first); i-l-k loop order so the inner loop
   walks both B and dst contiguously. dst must not alias A or B. *)
let gemm ~dst a b =
  if a.cols <> b.rows then invalid_arg "Cmatf.gemm: dimension mismatch";
  if dst.rows <> a.rows || dst.cols <> b.cols then
    invalid_arg "Cmatf.gemm: destination shape mismatch";
  if dst == a || dst == b then invalid_arg "Cmatf.gemm: dst aliases an operand";
  fill_zero dst;
  let n = a.rows and q = a.cols and p = b.cols in
  for i = 0 to n - 1 do
    let arow = i * q and orow = i * p in
    for l = 0 to q - 1 do
      let ar = a.re.(arow + l) and ai = a.im.(arow + l) in
      if not (Float.equal ar 0.0 && Float.equal ai 0.0) then begin
        let brow = l * p in
        for k = 0 to p - 1 do
          let br = b.re.(brow + k) and bi = b.im.(brow + k) in
          dst.re.(orow + k) <- dst.re.(orow + k) +. ((ar *. br) -. (ai *. bi));
          dst.im.(orow + k) <- dst.im.(orow + k) +. ((ar *. bi) +. (ai *. br))
        done
      end
    done
  done

(* y = A·x on split-array vectors. *)
let gemv a ~xre ~xim ~yre ~yim =
  if Array.length xre <> a.cols || Array.length xim <> a.cols then
    invalid_arg "Cmatf.gemv: vector dimension mismatch";
  if Array.length yre <> a.rows || Array.length yim <> a.rows then
    invalid_arg "Cmatf.gemv: result dimension mismatch";
  for i = 0 to a.rows - 1 do
    let row = i * a.cols in
    let sr = ref 0.0 and si = ref 0.0 in
    for k = 0 to a.cols - 1 do
      let ar = a.re.(row + k) and ai = a.im.(row + k) in
      let br = xre.(k) and bi = xim.(k) in
      sr := !sr +. ((ar *. br) -. (ai *. bi));
      si := !si +. ((ar *. bi) +. (ai *. br))
    done;
    yre.(i) <- !sr;
    yim.(i) <- !si
  done

(* y = Aᴴ·x (no transposed copy is materialized). *)
let gemv_herm a ~xre ~xim ~yre ~yim =
  if Array.length xre <> a.rows || Array.length xim <> a.rows then
    invalid_arg "Cmatf.gemv_herm: vector dimension mismatch";
  if Array.length yre <> a.cols || Array.length yim <> a.cols then
    invalid_arg "Cmatf.gemv_herm: result dimension mismatch";
  Array.fill yre 0 a.cols 0.0;
  Array.fill yim 0 a.cols 0.0;
  for i = 0 to a.rows - 1 do
    let row = i * a.cols in
    let br = xre.(i) and bi = xim.(i) in
    for k = 0 to a.cols - 1 do
      (* conj(a) * b accumulated column-wise *)
      let ar = a.re.(row + k) and ai = -.a.im.(row + k) in
      yre.(k) <- yre.(k) +. ((ar *. br) -. (ai *. bi));
      yim.(k) <- yim.(k) +. ((ar *. bi) +. (ai *. br))
    done
  done

(* ------------------------------------------------------------------ *)
(* LU with caller-provided workspace                                   *)

(* The workspace carries the bandwidth of the matrices it factors: an
   n×n matrix whose entries (i, j) vanish for i - j > kl or j - i > ku.
   Partial pivoting keeps L within kl entries per column and widens U
   to kl + ku superdiagonals, so every loop below stops at the band.
   Rows still swap whole, which keeps the P·A = L·U layout of the
   dense kernel; the entries the band skips are exact zeros there, so
   the banded factors and solutions are bit-identical to the dense
   ones. The default bandwidth n - 1 is the dense kernel. *)
type lu_ws = {
  perm : int array;
  kl : int;
  ku : int;
  lfirst : int array;
      (* per stored row: its first column that may be nonzero (where
         its L part starts); swapped along with the rows *)
  llast : int array;
      (* per column: the last row that may hold an L entry in it,
         derived from [lfirst] once a factorization completes *)
  hager : t;  (* the condition estimator's n×1 iterate *)
  mutable scratch_re : float array;
  mutable scratch_im : float array;
}

let lu_ws ?kl ?ku n =
  if n < 0 then invalid_arg "Cmatf.lu_ws: negative dimension";
  let dense = Int.max 0 (n - 1) in
  let band = function
    | None -> dense
    | Some k when k < 0 -> invalid_arg "Cmatf.lu_ws: negative bandwidth"
    | Some k -> Int.min k dense
  in
  {
    perm = Array.make n 0;
    kl = band kl;
    ku = band ku;
    lfirst = Array.make n 0;
    llast = Array.make n 0;
    hager = create n 1;
    scratch_re = Array.make n 0.0;
    scratch_im = Array.make n 0.0;
  }

let lu_perm ws = Array.copy ws.perm

(* superdiagonals of U after pivoting *)
let u_width ws = Int.min (ws.kl + ws.ku) (Int.max 0 (Array.length ws.perm - 1))

(* Scratch grows monotonically and is reused across solves, so a
   workspace threaded through a sweep settles into zero allocation. *)
let ensure_scratch ws len =
  if Array.length ws.scratch_re < len then begin
    ws.scratch_re <- Array.make len 0.0;
    ws.scratch_im <- Array.make len 0.0
  end

(* (re, im).(p) := (ar + i·ai) / (br + i·bi) by Smith's algorithm,
   stored straight into the destination. Inlined, so neither the
   arguments nor the quotient are boxed (a call would box the floats it
   passes). *)
let[@inline] div_store re im p ar ai br bi =
  if Float.abs br >= Float.abs bi then begin
    let r = bi /. br in
    let d = br +. (bi *. r) in
    re.(p) <- (ar +. (ai *. r)) /. d;
    im.(p) <- (ai -. (ar *. r)) /. d
  end
  else begin
    let r = br /. bi in
    let d = (br *. r) +. bi in
    re.(p) <- ((ar *. r) +. ai) /. d;
    im.(p) <- ((ai *. r) -. ar) /. d
  end

(* In-place Crout LU with partial pivoting on modulus, inside the
   workspace's band; the factored matrix overwrites [a], the
   permutation lands in [ws.perm]. Raises [Lu.Singular] exactly when
   the dense boxed factorization would. *)
let lu_decompose_inplace a ws =
  let n = a.rows in
  if a.cols <> n then invalid_arg "Cmatf.lu_decompose_inplace: matrix not square";
  if Array.length ws.perm <> n then
    invalid_arg "Cmatf.lu_decompose_inplace: workspace size mismatch";
  let perm = ws.perm and lfirst = ws.lfirst and llast = ws.llast in
  let kl = ws.kl and uw = u_width ws in
  for i = 0 to n - 1 do
    perm.(i) <- i;
    lfirst.(i) <- Int.max 0 (i - kl)
  done;
  for k = 0 to n - 1 do
    (* rows below [ilast] hold exact zeros in column k, columns past
       [lend] exact zeros in every row still to be eliminated *)
    let ilast = Int.min (n - 1) (k + kl) and lend = Int.min (n - 1) (k + uw) in
    (* pivot search down column k *)
    let best = ref k in
    let best_mag = ref (Float.hypot a.re.((k * n) + k) a.im.((k * n) + k)) in
    for i = k + 1 to ilast do
      let mag = Float.hypot a.re.((i * n) + k) a.im.((i * n) + k) in
      if mag > !best_mag then begin
        best := i;
        best_mag := mag
      end
    done;
    if Float.equal !best_mag 0.0 || Robust.Inject.fire Robust.Inject.Lu_pivot
    then raise Lu.Singular;
    let b = !best in
    if b <> k then begin
      (* both rows are exact zeros outside their L parts and [lend]:
         exchange only the columns in between *)
      let first = Int.min lfirst.(k) lfirst.(b) in
      let len = lend - first + 1 in
      ensure_scratch ws len;
      let bk = (b * n) + first and kk = (k * n) + first in
      Array.blit a.re kk ws.scratch_re 0 len;
      Array.blit a.re bk a.re kk len;
      Array.blit ws.scratch_re 0 a.re bk len;
      Array.blit a.im kk ws.scratch_im 0 len;
      Array.blit a.im bk a.im kk len;
      Array.blit ws.scratch_im 0 a.im bk len;
      let tp = perm.(k) in
      perm.(k) <- perm.(b);
      perm.(b) <- tp;
      let tf = lfirst.(k) in
      lfirst.(k) <- lfirst.(b);
      lfirst.(b) <- tf
    end;
    let kk = k * n in
    let pr = a.re.(kk + k) and pi = a.im.(kk + k) in
    for i = k + 1 to ilast do
      let ik = i * n in
      let ar = a.re.(ik + k) and ai = a.im.(ik + k) in
      (* an exactly zero entry needs no multiplier: it is its own L
         entry, and its row no update *)
      if not (Float.equal ar 0.0 && Float.equal ai 0.0) then begin
        div_store a.re a.im (ik + k) ar ai pr pi;
        let cr = a.re.(ik + k) and ci = a.im.(ik + k) in
        if not (Float.equal cr 0.0 && Float.equal ci 0.0) then
          for l = k + 1 to lend do
            let ur = a.re.(kk + l) and ui = a.im.(kk + l) in
            a.re.(ik + l) <- a.re.(ik + l) -. ((cr *. ur) -. (ci *. ui));
            a.im.(ik + l) <- a.im.(ik + l) -. ((cr *. ui) +. (ci *. ur))
          done
      end
    done
  done;
  (* llast.(j) = max (j, the last row whose L part starts at or before
     column j): a running maximum over first columns *)
  for j = 0 to n - 1 do
    llast.(j) <- j
  done;
  for i = 0 to n - 1 do
    let f = lfirst.(i) in
    if llast.(f) < i then llast.(f) <- i
  done;
  for j = 1 to n - 1 do
    if llast.(j - 1) > llast.(j) then llast.(j) <- llast.(j - 1)
  done

(* Zero what a factorization with [ws] may have left nonzero in [a]:
   stored row i's support, from its L part (or its band, should [a]
   hold an unfactored matrix) to i + u_width — every other entry is an
   exact zero already. *)
let lu_clear a ws =
  let n = a.rows and kl = ws.kl and uw = u_width ws in
  for i = 0 to n - 1 do
    let first = Int.max 0 (Int.min ws.lfirst.(i) (i - kl)) in
    let len = Int.min (n - 1) (i + uw) - first + 1 in
    Array.fill a.re ((i * n) + first) len 0.0;
    Array.fill a.im ((i * n) + first) len 0.0
  done

(* B := A⁻¹·B for a matrix factored by [lu_decompose_inplace]; all
   right-hand-side columns advance together so the factored matrix is
   swept once per substitution phase. Each column's arithmetic is
   independent of the others, so solving one column alone (an n×1 [b])
   gives the bits of that column of a full solve. *)
let lu_solve_inplace a ws b =
  let n = a.rows in
  if a.cols <> n then invalid_arg "Cmatf.lu_solve_inplace: matrix not square";
  if b.rows <> n then invalid_arg "Cmatf.lu_solve_inplace: dimension mismatch";
  let p = b.cols in
  let perm = ws.perm and lfirst = ws.lfirst and uw = u_width ws in
  (* apply the row permutation: b := P·b (element by element: a row
     of a one- or few-column b is shorter than a blit call) *)
  ensure_scratch ws (n * p);
  for i = 0 to n - 1 do
    let src = perm.(i) * p and dst = i * p in
    for c = 0 to p - 1 do
      ws.scratch_re.(dst + c) <- b.re.(src + c);
      ws.scratch_im.(dst + c) <- b.im.(src + c)
    done
  done;
  Array.blit ws.scratch_re 0 b.re 0 (n * p);
  Array.blit ws.scratch_im 0 b.im 0 (n * p);
  (* forward substitution against the unit lower triangle *)
  for i = 1 to n - 1 do
    let irow = i * p and arow = i * n in
    for k = lfirst.(i) to i - 1 do
      let lr = a.re.(arow + k) and li = a.im.(arow + k) in
      if not (Float.equal lr 0.0 && Float.equal li 0.0) then begin
        let krow = k * p in
        for c = 0 to p - 1 do
          let br = b.re.(krow + c) and bi = b.im.(krow + c) in
          b.re.(irow + c) <- b.re.(irow + c) -. ((lr *. br) -. (li *. bi));
          b.im.(irow + c) <- b.im.(irow + c) -. ((lr *. bi) +. (li *. br))
        done
      end
    done
  done;
  (* back substitution against the banded upper triangle *)
  for i = n - 1 downto 0 do
    let irow = i * p and arow = i * n in
    for k = i + 1 to Int.min (n - 1) (i + uw) do
      let ur = a.re.(arow + k) and ui = a.im.(arow + k) in
      if not (Float.equal ur 0.0 && Float.equal ui 0.0) then begin
        let krow = k * p in
        for c = 0 to p - 1 do
          let br = b.re.(krow + c) and bi = b.im.(krow + c) in
          b.re.(irow + c) <- b.re.(irow + c) -. ((ur *. br) -. (ui *. bi));
          b.im.(irow + c) <- b.im.(irow + c) -. ((ur *. bi) +. (ui *. br))
        done
      end
    done;
    let dr = a.re.(arow + i) and di = a.im.(arow + i) in
    for c = 0 to p - 1 do
      div_store b.re b.im (irow + c) b.re.(irow + c) b.im.(irow + c) dr di
    done
  done

(* ------------------------------------------------------------------ *)
(* norms, finiteness, condition estimation                             *)

(* 1-norm over the band [kl] below / [ku] above the diagonal: the
   entries outside are zeros and would add nothing to a column sum. *)
let[@lint.hot] norm1_band m ~kl ~ku =
  let best = ref 0.0 in
  for k = 0 to m.cols - 1 do
    let s = ref 0.0 in
    for i = Int.max 0 (k - ku) to Int.min (m.rows - 1) (k + kl) do
      let p = (i * m.cols) + k in
      s := !s +. Float.hypot m.re.(p) m.im.(p)
    done;
    if !s > !best then best := !s
  done;
  !best

(* 1-norm: max column sum of moduli. *)
let norm1 m = norm1_band m ~kl:(m.rows - 1) ~ku:(m.cols - 1)

(* entries [p..hi] of a split pair are finite; top-level recursion, so
   no closure is built per call *)
let rec all_finite re im p hi =
  p > hi || (Float.is_finite re.(p) && Float.is_finite im.(p) && all_finite re im (p + 1) hi)

let is_finite m = all_finite m.re m.im 0 ((m.rows * m.cols) - 1)

(* every stored row of the factors, over its support only *)
let[@lint.hot] factors_finite a ws =
  let n = a.rows and uw = u_width ws in
  let ok = ref true and i = ref 0 in
  while !ok && !i < n do
    let r = !i * n in
    ok := all_finite a.re a.im (r + ws.lfirst.(!i)) (r + Int.min (n - 1) (!i + uw));
    incr i
  done;
  !ok

(* z := A⁻ᴴ·z for [a] factored by [lu_decompose_inplace]. With
   P·A = L·U we have Aᴴ = Uᴴ·Lᴴ·P, so: solve Uᴴw = z by forward
   substitution (Uᴴ is lower triangular with diagonal conj(u_ii)),
   solve Lᴴy = w by back substitution (unit diagonal), then undo the
   permutation with z[perm[i]] = y[i]. Needed by the Hager estimator,
   which alternates A- and Aᴴ-solves on the same packed factors. The
   band bounds both substitutions; the terms it drops are products
   with exact zeros. *)
let[@lint.hot] lu_solve_herm_vec a ws ~zre ~zim =
  let n = a.rows and uw = u_width ws in
  for i = 0 to n - 1 do
    let sr = ref zre.(i) and si = ref zim.(i) in
    for k = Int.max 0 (i - uw) to i - 1 do
      let ur = a.re.((k * n) + i) and ui = -.a.im.((k * n) + i) in
      let wr = zre.(k) and wi = zim.(k) in
      sr := !sr -. ((ur *. wr) -. (ui *. wi));
      si := !si -. ((ur *. wi) +. (ui *. wr))
    done;
    let dr = a.re.((i * n) + i) and di = -.a.im.((i * n) + i) in
    div_store zre zim i !sr !si dr di
  done;
  for i = n - 1 downto 0 do
    let sr = ref zre.(i) and si = ref zim.(i) in
    for k = i + 1 to ws.llast.(i) do
      let lr = a.re.((k * n) + i) and li = -.a.im.((k * n) + i) in
      let yr = zre.(k) and yi = zim.(k) in
      sr := !sr -. ((lr *. yr) -. (li *. yi));
      si := !si -. ((lr *. yi) +. (li *. yr))
    done;
    zre.(i) <- !sr;
    zim.(i) <- !si
  done;
  ensure_scratch ws n;
  Array.blit zre 0 ws.scratch_re 0 n;
  Array.blit zim 0 ws.scratch_im 0 n;
  for i = 0 to n - 1 do
    zre.(ws.perm.(i)) <- ws.scratch_re.(i);
    zim.(ws.perm.(i)) <- ws.scratch_im.(i)
  done

(* Hager/Higham 1-norm condition estimate on packed LU factors: a few
   rounds of y = A⁻¹x / z = A⁻ᴴ·sign(y) locate a near-maximizing column
   of A⁻¹, giving a lower bound on ‖A⁻¹‖₁ that is almost always within
   a small factor of the truth. O(n·(kl + ku)) per round vs
   O(n·kl·(kl + ku)) to factor; the iterate lives in the workspace. *)
let[@lint.hot] lu_cond_est_1 a ws ~norm1_a =
  let n = a.rows in
  if n = 0 then 1.0
  else begin
    let x = ws.hager in
    let inv_n = 1.0 /. float_of_int n in
    Array.fill x.re 0 n inv_n;
    Array.fill x.im 0 n 0.0;
    let est = ref 0.0 in
    (try
       let last_j = ref (-1) in
       for _round = 1 to 5 do
         lu_solve_inplace a ws x;
         (* the moduli, summed here and reused to normalize *)
         ensure_scratch ws n;
         let mods = ws.scratch_re in
         let e = ref 0.0 in
         for i = 0 to n - 1 do
           let m = Float.hypot x.re.(i) x.im.(i) in
           mods.(i) <- m;
           e := !e +. m
         done;
         if not (!e > !est) then raise Exit;
         est := !e;
         for i = 0 to n - 1 do
           let m = mods.(i) in
           if m > 0.0 then begin
             x.re.(i) <- x.re.(i) /. m;
             x.im.(i) <- x.im.(i) /. m
           end
           else begin
             x.re.(i) <- 1.0;
             x.im.(i) <- 0.0
           end
         done;
         lu_solve_herm_vec a ws ~zre:x.re ~zim:x.im;
         let j = ref 0 and zmax = ref (-1.0) in
         for i = 0 to n - 1 do
           let m = Float.hypot x.re.(i) x.im.(i) in
           if m > !zmax then begin
             zmax := m;
             j := i
           end
         done;
         if !j = !last_j then raise Exit;
         last_j := !j;
         Array.fill x.re 0 n 0.0;
         Array.fill x.im 0 n 0.0;
         x.re.(!j) <- 1.0
       done
     with Exit -> ());
    norm1_a *. !est
  end

(* min/max modulus over the factored U diagonal — a cheap pivot
   degeneracy proxy that catches rank deficiency partial pivoting
   smeared into a tiny (but nonzero) trailing pivot. *)
let lu_pivot_ratio a =
  let n = a.rows in
  if n = 0 then 1.0
  else begin
    let mn = ref infinity and mx = ref 0.0 in
    for i = 0 to n - 1 do
      let m = Float.hypot a.re.((i * n) + i) a.im.((i * n) + i) in
      if m < !mn then mn := m;
      if m > !mx then mx := m
    done;
    if Float.equal !mx 0.0 then 0.0 else !mn /. !mx
  end

let lu_decompose_checked ?(max_cond = Robust.Config.max_cond) ~context a ws =
  let nrm = norm1_band a ~kl:ws.kl ~ku:ws.ku in
  match lu_decompose_inplace a ws with
  | exception Lu.Singular ->
      Error (Robust.Pllscope_error.Singular { cond_est = infinity; context })
  | () ->
      if not (factors_finite a ws) then
        Error (Robust.Pllscope_error.Non_finite { where = context ^ ": LU factors" })
      else begin
        let cond = lu_cond_est_1 a ws ~norm1_a:nrm in
        let degen =
          let r = lu_pivot_ratio a in
          if r > 0.0 then 1.0 /. r else infinity
        in
        let est = Float.max cond degen in
        if (not (Float.is_finite est)) || est > max_cond then
          Error (Robust.Pllscope_error.Singular { cond_est = est; context })
        else Ok est
      end

let rec col_finite m k i =
  i >= m.rows
  || (let p = (i * m.cols) + k in
      Float.is_finite m.re.(p) && Float.is_finite m.im.(p) && col_finite m k (i + 1))

let is_finite_col m k =
  if k < 0 || k >= m.cols then invalid_arg "Cmatf.is_finite_col: column out of bounds";
  col_finite m k 0

let lu_solve_checked a ws b ~context =
  lu_solve_inplace a ws b;
  if is_finite b then Ok ()
  else
    Error (Robust.Pllscope_error.Non_finite { where = context ^ ": solve result" })

(* ------------------------------------------------------------------ *)
(* lossless converters                                                 *)

let of_cmat m =
  let r = Cmat.rows m and c = Cmat.cols m in
  let out = create r c in
  for i = 0 to r - 1 do
    for k = 0 to c - 1 do
      let z = Cmat.get m i k in
      out.re.((i * c) + k) <- Cx.re z;
      out.im.((i * c) + k) <- Cx.im z
    done
  done;
  out

let to_cmat m =
  Cmat.init m.rows m.cols (fun i k ->
      let p = (i * m.cols) + k in
      Cx.make m.re.(p) m.im.(p))
