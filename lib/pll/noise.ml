open Numeric

type psd = float -> float

let white level _ = level

let one_over_f2 k w =
  let w2 = w *. w in
  if Float.equal w2 0.0 then Float.infinity else k /. w2

let lorentzian ~level ~corner w = level /. (1.0 +. ((w /. corner) ** 2.0))

(* Alias terms of the folding sums, laid out in the order the original
   sequential loop accumulated them — [s(w); s(w+ω₀); s(w-ω₀); ...] —
   so the parallel evaluation + in-order reduction of [Sweep.sum] is
   bit-identical to the historical left-to-right sum. *)
let alias_term ~omega0 s w i =
  if i = 0 then s w
  else begin
    let shift = float_of_int ((i + 1) / 2) *. omega0 in
    if i land 1 = 1 then s (w +. shift) else s (w -. shift)
  end

let fold_sum ?pool ~omega0 ~folds s w =
  Parallel.Sweep.sum ?pool ((2 * folds) + 1) (alias_term ~omega0 s w)

let reference_noise_out p ?(folds = 50) ?pool s_ref w =
  let h = Cx.abs (Pll.h00 p (Cx.jomega w)) in
  let folded = fold_sum ?pool ~omega0:(Pll.omega0 p) ~folds s_ref w in
  h *. h *. folded

let reference_noise_out_htm p ?(n_harm = 12) ?pool s_ref ws =
  (* HTM-native folding over a whole grid: each point realizes row 0 of
     the closed-loop HTM through a per-lane plan (row demand: only the
     rows of each node that reach row 0) and accumulates
     S_out(ω) = Σ_m |H_{0,m}(jω)|² S_ref(ω + m ω₀)
     (m from -n_harm to n_harm, in that fixed order). Unlike
     [reference_noise_out], each band gets its own transfer weight, so
     this path stays valid for ISF VCOs and mixing PFDs where H_{0,m}
     depends on m; the folding range is the truncation itself rather
     than a separate [folds] parameter. *)
  let omega0 = Pll.omega0 p in
  let c = { Htm_core.Htm.n_harm; omega0 } in
  let planner = Pll.closed_loop_planner p in
  Parallel.Sweep.grid_local ?pool
    ~local:(fun () -> planner c)
    (fun plan w ->
      let h0 = Htm_core.Plan.row plan ~n:0 (Cx.jomega w) in
      let acc = ref 0.0 in
      for m = -n_harm to n_harm do
        let h = Cvec.get h0 (Htm_core.Htm.index_of_harmonic c m) in
        acc := !acc +. (Cx.norm2 h *. s_ref (w +. (float_of_int m *. omega0)))
      done;
      !acc)
    ws

let vco_noise_out p ?(folds = 50) ?pool s_vco w =
  let h00 = Pll.h00 p (Cx.jomega w) in
  let err = Cx.sub Cx.one h00 in
  let direct = Cx.norm2 err *. s_vco w in
  let omega0 = Pll.omega0 p in
  (* skip the m = 0 term: VCO noise at baseband enters through the error
     transfer instead (the [direct] term) *)
  let folded_rest =
    Parallel.Sweep.sum ?pool (2 * folds) (fun i ->
        alias_term ~omega0 s_vco w (i + 1))
  in
  direct +. (Cx.norm2 h00 *. folded_rest)

let lti_reference_noise_out p s_ref w =
  let h = Cx.abs (Pll.h00_lti p (Cx.jomega w)) in
  h *. h *. s_ref w

let rms_jitter s ~lo ~hi =
  if lo <= 0.0 || hi <= lo then invalid_arg "Noise.rms_jitter: need 0 < lo < hi";
  (* log-substitution: ∫ S dω = ∫ S(e^u) e^u du — PSDs span decades *)
  let integral =
    Quad.simpson ~tol:1e-14
      (fun u ->
        let w = exp u in
        s w *. w)
      (log lo) (log hi)
  in
  sqrt (integral /. Float.pi)
