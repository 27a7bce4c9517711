(* The HTM composition tree, split out of [Htm] so that the plan/execute
   layer ([Plan]) can walk the same representation without a module
   cycle: [Htm] provides the validated constructors and per-point API on
   top of this type, [Plan] compiles it into a preallocated execution
   schedule. Build values through [Htm]'s smart constructors — they
   enforce the invariants (odd periodic-gain length, copied coefficient
   arrays) that the evaluators assume. *)

open Numeric

type ctx = { n_harm : int; omega0 : float }

type t =
  | Lti of (Cx.t -> Cx.t)
  | Lti_rat of Rat.t
      (* same HTM as [Lti (Rat.eval r)], but the rational form lets the
         plan layer evaluate the diagonal without boxing *)
  | Periodic_gain of Cx.t array
  | Sampler
  | Identity
  | Zero
  | Scale of Cx.t * t
  | Series of t * t
  | Parallel of t * t
  | Sub of t * t
  | Feedback of t
  | Custom of (ctx -> Cx.t -> Cmat.t)

let dim c = (2 * c.n_harm) + 1
let harmonic_of_index c i = i - c.n_harm
let index_of_harmonic c n = n + c.n_harm

(* Reference evaluator: the original all-dense boxed recursion, kept
   verbatim as the oracle for the plan path (equivalence tests, guard
   fallbacks, kernel benchmarks). *)
let rec to_matrix_dense c t s =
  let n = dim c in
  match t with
  | Lti h ->
      Cmat.init n n (fun i k ->
          if i <> k then Cx.zero
          else
            h (Cx.add s (Cx.jomega (float_of_int (harmonic_of_index c i) *. c.omega0))))
  | Lti_rat r ->
      Cmat.init n n (fun i k ->
          if i <> k then Cx.zero
          else
            Rat.eval r
              (Cx.add s
                 (Cx.jomega (float_of_int (harmonic_of_index c i) *. c.omega0))))
  | Periodic_gain coeffs ->
      let kmax = Array.length coeffs / 2 in
      Cmat.init n n (fun i k ->
          let diff = i - k in
          if abs diff > kmax then Cx.zero else coeffs.(diff + kmax))
  | Sampler ->
      let w = Cx.of_float (c.omega0 /. (2.0 *. Float.pi)) in
      Cmat.init n n (fun _ _ -> w)
  | Identity -> Cmat.identity n
  | Zero -> Cmat.zeros n n
  | Scale (z, g) -> Cmat.scale z (to_matrix_dense c g s)
  | Series (g2, g1) -> Cmat.mul (to_matrix_dense c g2 s) (to_matrix_dense c g1 s)
  | Parallel (g1, g2) -> Cmat.add (to_matrix_dense c g1 s) (to_matrix_dense c g2 s)
  | Sub (g1, g2) -> Cmat.sub (to_matrix_dense c g1 s) (to_matrix_dense c g2 s)
  | Feedback g ->
      let gm = to_matrix_dense c g s in
      let i_plus_g = Cmat.add (Cmat.identity n) gm in
      Lu.solve_mat (Lu.decompose i_plus_g) gm
  | Custom f -> f c s

(* Row [i] of [to_matrix_dense c t s], bit for bit, without an n×n
   product: the fallback of a point whose caller reads one entry or one
   row (see [Plan]). A product's row is the left factor's row times the
   right factor, in [Cmat.mul]'s order — [l] ascending, a zero left
   entry skipped — and [Htm.series_list] builds left-associated trees,
   so row [i] of ((A·B)·C)·D is ((rowᵢ(A)·B)·C)·D and the recursion
   follows the left spine. A leaf right factor is read through its
   entry formula, along the band of its row [l] (the diagonal of an LTI
   block or of the identity, the band of a periodic gain, every column
   of the sampler, nothing of zero): an entry off that band is a zero,
   and a finite left entry times a zero is a signed zero, which leaves
   the sum unchanged — the sum starts at +0 and a round-to-nearest sum
   is -0 only when both terms are, so it is never -0. A non-finite left
   entry turns those zeros into NaNs, so it is multiplied through every
   column. Any other right factor, a feedback loop and a custom block
   are realized by [to_matrix_dense]. *)
let row_dense c t s i =
  let n = dim c in
  let diag_entry h l =
    h (Cx.add s (Cx.jomega (float_of_int (harmonic_of_index c l) *. c.omega0)))
  in
  (* bandwidth of a leaf's rows, and its entry (l, k) inside the band *)
  let leaf = function
    | Lti h -> Some (0, fun l _ -> diag_entry h l)
    | Lti_rat r -> Some (0, fun l _ -> diag_entry (Rat.eval r) l)
    | Identity -> Some (0, fun _ _ -> Cx.one)
    | Zero -> Some (-1, fun _ _ -> Cx.zero)
    | Periodic_gain coeffs ->
        let kmax = Array.length coeffs / 2 in
        Some (kmax, fun l k -> coeffs.(l - k + kmax))
    | Sampler ->
        let w = Cx.of_float (c.omega0 /. (2.0 *. Float.pi)) in
        Some (n, fun _ _ -> w)
    | Scale _ | Series _ | Parallel _ | Sub _ | Feedback _ | Custom _ -> None
  in
  let times a b =
    let out = Array.make n Cx.zero in
    let acc k x = out.(k) <- Cx.add out.(k) x in
    (match leaf b with
    | Some (kb, entry) ->
        for l = 0 to n - 1 do
          let al = a.(l) in
          if not (Cx.is_zero al) then begin
            let lo = Int.max 0 (l - kb) and hi = Int.min (n - 1) (l + kb) in
            let klo, khi = if Cx.is_finite al then (lo, hi) else (0, n - 1) in
            for k = klo to khi do
              acc k (Cx.mul al (if k < lo || k > hi then Cx.zero else entry l k))
            done
          end
        done
    | None ->
        let m = to_matrix_dense c b s in
        for l = 0 to n - 1 do
          let al = a.(l) in
          if not (Cx.is_zero al) then
            for k = 0 to n - 1 do
              acc k (Cx.mul al (Cmat.get m l k))
            done
        done);
    out
  in
  let rec row t =
    match (t, leaf t) with
    | _, Some (kb, entry) ->
        Array.init n (fun k -> if abs (k - i) > kb then Cx.zero else entry i k)
    | Scale (z, g), None -> Array.map (Cx.mul z) (row g)
    | Parallel (g1, g2), None -> Array.map2 Cx.add (row g1) (row g2)
    | Sub (g1, g2), None -> Array.map2 Cx.sub (row g1) (row g2)
    | Series (g2, g1), None -> times (row g2) g1
    | _, None ->
        let m = to_matrix_dense c t s in
        Array.init n (fun k -> Cmat.get m i k)
  in
  if i < 0 || i >= n then invalid_arg "Htm_expr.row_dense: row outside the truncation";
  Cvec.of_array (row t)
