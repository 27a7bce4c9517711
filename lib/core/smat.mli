(** Structured truncated HTMs — the shape lattice of the paper's
    algebra, kept symbolic until the API boundary.

    The HTM of every primitive PLL block has structure: LTI blocks are
    diagonal (eq. 12), periodic gains are banded Toeplitz (eq. 13), the
    sampling PFD is rank one (eqs. 19–20). Composition preserves most
    of it — and the Sherman–Morrison–Woodbury closed form of the
    closed loop (eq. 28 specialized to a rank-one return path) exists
    precisely because it does. This module represents a realized
    (numeric, at one [s]) truncated HTM as the cheapest of four shapes

    {v Diag ⊂ Band ⊂ Dense,   Rank1 ⊂ Dense v}

    with composition rules that stay low in the lattice:
    diag·diag is O(n); diag·band and band·band stay banded;
    anything·rank-one stays rank one at the cost of one matvec;
    feedback of a diagonal or rank-one HTM is closed-form O(n). The
    in-place kernels work on a window of rows, so a caller reading one
    row pays only for the rows that reach it — for a rank-one loop
    whose denominator is given in closed form, nothing stays O(n): its
    [v] is its operand's storage, not a copy.
    Only [Band]/[Dense] feedback pays an LU — on the flat unboxed
    {!Numeric.Cmatf.t} layer, not on boxed [Cmat.t] — and a [Band k]
    operand's LU stays inside its band: O(n·k²) to factor and O(n·k)
    per solved column, against O(n³) for a dense operand. One entry
    of a [Band k] loop needs no LU at all: a two-sided elimination
    without pivoting reaches it in O(n·k²) (see {!Into.feedback}).

    Storage is split unboxed re/im [float array]s. The algebra exists
    only as the in-place {!Into} kernels over containers sized by the
    static shape rules: {!Plan} is the one evaluator built on it, and a
    [t] it hands out is usually a view into plan storage. *)

type t

(** Matrix dimension (all shapes are square). *)
val dim : t -> int

(** {1 Constructors} *)

(** [diag_of_arrays ~dre ~dim_] — zero-copy diagonal view: the arrays
    are the live storage (mutating them mutates the matrix). *)
val diag_of_arrays : dre:float array -> dim_:float array -> t

(** [band_of_arrays ~n ~kmax ~bre ~bim] — zero-copy banded view; entry
    [(i, i+d)], [|d| <= kmax], lives at [i·(2·kmax+1) + d + kmax]. *)
val band_of_arrays :
  n:int -> kmax:int -> bre:float array -> bim:float array -> t

(** [rank1_of_arrays ~ure ~uim ~vre ~vim] — zero-copy rank-one view
    [u·vᵀ] (bilinear, no conjugation — the sampler's [l·lᵀ]
    convention); the arrays are the live storage. *)
val rank1_of_arrays :
  ure:float array -> uim:float array -> vre:float array -> vim:float array -> t

val of_cmat : Numeric.Cmat.t -> t
val of_cmatf : Numeric.Cmatf.t -> t

(** {1 Densification — the only place structure is forgotten} *)

val to_cmat : t -> Numeric.Cmat.t

(** {1 Access without densifying} *)

val get : t -> int -> int -> Numeric.Cx.t
val col : t -> int -> Numeric.Cvec.t

(** [rows_finite ?v_finite t ~lo ~hi] — true iff every stored entry of
    rows [lo..hi] is finite ([~lo:0 ~hi:(dim t - 1)]: of [t]); a
    rank-one [t]'s [v] is scanned in full (every row reads it) unless
    [v_finite] (default [false]) says the caller has already found it
    finite, and a dense [t] is scanned whole. *)
val rows_finite : ?v_finite:bool -> t -> lo:int -> hi:int -> bool

(** {1 Matrix–vector products on split re/im arrays}

    These never densify: the rank-one product is two dot products, the
    banded one touches only the band. *)

(** [mv t ~lo ~hi ~xre ~xim ~yre ~yim] — rows [lo..hi] of [y = T·x];
    the other rows of [y] are left as they were. Row [i] reads [x] at
    the columns where row [i] of [T] is stored: [i-k..i+k] for a
    bandwidth-[k] matrix, every row of [x] for a rank-one or dense
    one. [~lo:0 ~hi:(dim t - 1)] is the whole product; a dense [T]
    always computes every row.
    @raise Invalid_argument on a dimension mismatch or a window outside
    [0..dim t - 1]. *)
val mv :
  t ->
  lo:int ->
  hi:int ->
  xre:float array -> xim:float array -> yre:float array -> yim:float array ->
  unit

(** [mhv t ~xre ~xim ~yre ~yim] — [y = Tᴴ·x]. *)
val mhv :
  t ->
  xre:float array -> xim:float array -> yre:float array -> yim:float array ->
  unit

(** {1 Plan/execute support}

    The grid-batched evaluator ({!Plan}) allocates one container per
    composition node from the {b static} shape rules below, then
    streams frequency points through the {!Into} kernels, writing into
    preallocated storage. *)

(** A shape descriptor. *)
type shape_t = [ `Diag | `Band of int | `Rank1 | `Dense ]

(** Static composition rules: the shape of a sum, product or closed
    loop depends on the operand shapes only, never on their values, so
    every container can be sized before the first point. *)

val shape_add : shape_t -> shape_t -> shape_t

val shape_mul : n:int -> shape_t -> shape_t -> shape_t
val shape_feedback : shape_t -> shape_t

(** [mul_scratch ~n a b] — which operands of an {!Into.mul} at these
    shapes need densification scratch [(da, db)]: only the gemm paths
    (band products too wide for banded storage, dense·band mixes) do. *)
val mul_scratch : n:int -> shape_t -> shape_t -> bool * bool

(** LU storage for {!Into.feedback} of a banded or dense operand: the
    factors of [I + G], an LU workspace carrying the operand's
    bandwidth, one right-hand-side column, and for a banded operand the
    [n·(2k+1)] band that an entry-demand elimination works in. *)
type lu_scratch

(** [lu_scratch ~n g] — scratch for the closed loop of an [n×n]
    operand of static shape [g] ([`Band k] gives a bandwidth-[k]
    workspace, [`Dense] a dense one). *)
val lu_scratch : n:int -> shape_t -> lu_scratch

module Into : sig
  (** The HTM algebra, in place, over a row window. Every kernel
      overwrites rows [lo..hi] of [dst] and leaves the other rows as
      they were, so containers are reusable point after point without
      clearing; [~lo:0 ~hi:(n - 1)] realizes the whole matrix with the
      loops of a full realization. A row of the window is computed by
      the same formula, in the same order, as in a full realization, so
      it is bit-identical to that row of one. A rank-one result whose
      [v] is its operand's ([A·(u vᵀ)], [z·(u vᵀ)], the closed loop of
      [u vᵀ]) must hold the operand's [v] storage — the kernel writes
      [u] alone; the [v] of [(u vᵀ)·B] is realized in full, and a dense
      [dst] realizes every row whatever the window. The rows a window
      reads of each operand are the caller's to have realized: the operand's own rows [lo..hi]
      (an [add], a [scale], [A] of a product, a closed loop over a
      diagonal operand or a rank-one one with [denom_override]); rows
      widened by [A]'s bandwidth for [B] of a diagonal/banded product
      and for [u] in [A·(u vᵀ)]; every row otherwise. [dst] must have
      exactly the shape the static rules assign to the operation and
      must not alias an operand (but for the shared [v] above);
      violations raise [Invalid_argument]. *)

  val scale : dst:t -> lo:int -> hi:int -> Numeric.Cx.t -> t -> unit

  (** [add ~dst ?sub ~lo ~hi a b] — [dst = a + b], or [a - b] with
      [~sub:true]. No zero-diagonal shortcut (see the static shape
      rules). *)
  val add : dst:t -> ?sub:bool -> lo:int -> hi:int -> t -> t -> unit

  (** [mul ~dst ?da ?db ~lo ~hi a b] — [dst = a·b]; [da]/[db] are
      densification scratch, required exactly when {!mul_scratch} says
      so. *)
  val mul :
    dst:t ->
    ?da:Numeric.Cmatf.t ->
    ?db:Numeric.Cmatf.t ->
    lo:int ->
    hi:int ->
    t ->
    t ->
    unit

  (** [feedback ~dst ?scratch ?denom_override ?v_finite ~lo ~hi ~row
      ~col ~context g] — [dst = (I + G)⁻¹·G]. The closed-form shapes
      (diagonal, rank one) realize rows [lo..hi]. [scratch] (from
      {!lu_scratch} at [g]'s shape) is required for banded/dense [g],
      which realizes every row; there, [col >= 0] demands one column:
      only column [col] of [dst] is realized (bit for bit what a full
      realization puts there) and the rest of [dst] is left stale; a
      negative [col] realizes every column. {b Entry demand}: with
      [row >= 0] and [col >= 0] a banded [g] realizes entry [(row, col)]
      of [dst] alone, by a two-sided elimination without pivoting
      (O(n·k²), no LU, no condition estimate), equal to the banded LU's
      entry to rounding; a dense [g] ignores [row]. The guards run over
      what is realized — closed-form shapes check their scalar
      denominators' conditioning proxy [(1 + |d|)/|1 + d|] against
      {!Robust.Config.smw_max_cond} (a diagonal loop over the window's
      rows), the entry elimination checks each pivot [p] the same way
      ([(|a| + |p − a|)/|p|], [a] the pivot's entry in [I + G]) and the
      pivots' spread [max|p|/min|p|] against {!Robust.Config.max_cond},
      the other banded/dense loops use
      {!Numeric.Cmatf.lu_decompose_checked}, and the realized rows (or
      the demanded column, or entry) are scanned for non-finite
      entries, a rank-one result's [v] only when [v_finite] (default
      [false]) does not say it is already known finite — and failures
      come back as [Error (Singular _)] or [Error (Non_finite _)]; a
      zero or non-finite pivot, or a fired [lu-pivot] site, is
      [Singular] with an infinite estimate. [denom_override] replaces
      the rank-one Sherman–Morrison denominator term [vᵀu] with a
      closed-form loop gain λ(s) — the plan layer's [Special] fast path
      for sampling loops; the O(n) dot product is then skipped and the
      loop costs O(hi − lo + 1). *)
  val feedback :
    dst:t ->
    ?scratch:lu_scratch ->
    ?denom_override:Numeric.Cx.t ->
    ?v_finite:bool ->
    lo:int ->
    hi:int ->
    row:int ->
    col:int ->
    context:string ->
    t ->
    (unit, Robust.Pllscope_error.t) result
end

(** {1 Diagnostics} *)

(** Largest off-diagonal modulus ([0.] for [Diag] by construction). *)
val max_offdiag_abs : t -> float

(** Row-sum induced norm, computed entrywise. *)
val norm_inf : t -> float
