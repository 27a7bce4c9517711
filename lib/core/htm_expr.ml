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
