(** NONIDEAL — charge-pump/PFD non-idealities in the behavioral model.

    The small-signal HTM theory assumes an ideal sampler; a real
    charge-pump PFD has a tri-state reset delay, UP/DOWN current
    mismatch and control-node leakage. This experiment measures their
    classic signatures on the time-marching model and checks each
    against its first-order analytic prediction:

    - {b leakage}: the loop must replace the leaked charge every cycle,
      so in lock a static error pulse of width
      [w = leakage·T / I_cp] remains — a static phase offset of the
      same [w] seconds (plus a reference spur from the periodic pulse).
    - {b mismatch + reset delay}: during the reset window both sources
      fight; the net charge [(g−1)·I_cp·t_delay] must be cancelled by a
      static error pulse — offset [≈ (g−1)·t_delay] to first order.
    - {b reset delay alone} (matched currents): no offset — the
      anti-dead-zone pulse pair is charge-neutral. *)

type row = {
  label : string;
  measured_offset : float;  (** steady-state θ, seconds *)
  predicted_offset : float;  (** first-order analytic value *)
  ripple : float;  (** peak-to-peak control ripple in lock, V *)
  spur_dbc : float;
      (** first reference spur on the VCO output, dBc, measured from the
          periodic component of the simulated time shift (−∞ when no
          periodic disturbance remains) *)
  spur_pred_dbc : float;
      (** the same spur predicted independently from the control-voltage
          ripple line by narrowband FM: [β = 2π·K_vco·|v₁|/ω₀] *)
}

val compute : ?spec:Pll_lib.Design.spec -> unit -> row list
[@@lint.allow "test-only-export" "test seam: the numbers behind the printed figure, which the experiments tests assert"]
val run : unit -> unit

(** {1 Monte Carlo component-tolerance study}

    The farm-scale showcase workload: per-point, perturb the charge
    pump (current, mismatch, leakage, reset delay), VCO gain and
    loop-filter impedance, and evaluate the {b analytic} first-order
    signatures validated by {!compute} — no time-marching simulation,
    so a point costs microseconds and 10⁶-point studies are practical.

    Determinism: {!mc_point}'s value depends only on the environment
    and the point index — its Prng is seeded from
    [(config seed, index)] alone — so any execution order, sharding or
    process split produces bit-identical rows. *)

type mc_config = {
  mc_seed : int;  (** base seed mixed into every point's stream *)
  tol_icp : float;  (** relative 1σ of the pump current *)
  tol_kvco : float;  (** relative 1σ of the VCO gain *)
  tol_mismatch : float;  (** 1σ of the UP/DOWN current gain around 1 *)
  tol_filter : float;  (** relative 1σ of the filter impedance *)
  max_reset_delay : float;  (** reset delay uniform in [0, max]·T *)
  max_leakage : float;  (** leakage uniform in [0, max]·I_cp *)
}

val default_mc : mc_config

(** Precomputed nominal operating point (period, ω₀, |Z_LF(jω₀)|, …);
    build once, share across points. *)
type mc_env

(** [mc_env ?spec cfg] — synthesize the nominal loop for [spec] and
    freeze the quantities every Monte Carlo point needs. *)
val mc_env : ?spec:Pll_lib.Design.spec -> mc_config -> mc_env

(** One sampled outcome. Plain floats — Marshal-safe, so rows can ride
    checkpoint journals and farm pipes. *)
type mc_row = {
  mc_offset : float;  (** first-order static phase offset, s *)
  mc_spur_dbc : float;  (** narrowband-FM reference spur, clamped ≥ −200 *)
  mc_gain_err_pct : float;  (** loop-gain error vs nominal, percent *)
}

(** [mc_point env i] — the deterministic outcome of point [i]. Raises
    [Invalid_argument] on a negative index. *)
val mc_point : mc_env -> int -> mc_row

type mc_summary = {
  mc_points : int;
  mc_failed : int;  (** points lost to worker failure / cancellation *)
  offset_mean : float;
  offset_std : float;
  offset_worst : float;  (** max |offset| *)
  spur_mean_dbc : float;
  spur_worst_dbc : float;
  gain_err_std_pct : float;
  yield_pct : float;
      (** share with |offset| < T/100 and spur < −40 dBc *)
}

(** [mc_summarize env rows] — reduce per-point rows ([None] = failed
    point) to the summary statistics. *)
val mc_summarize : mc_env -> mc_row option array -> mc_summary

val mc_print : Format.formatter -> mc_summary -> unit
