(** FRACTIONAL — fractional-N synthesis and ΔΣ spur shaping.

    A fractional-N divider is a deliberate periodic time variation on
    top of the PFD's sampling — squarely inside the paper's framework.
    With [frac = 1/16] the first-order accumulator's residual is a
    16-step sawtooth of exactly one VCO period; the loop low-passes it
    onto the output as spurs at multiples of [ω₀/16]. The experiment
    uses a slow loop (ratio 0.01) so the spur frequency sits well above
    the loop bandwidth — the regime in which fractional-N is usable —
    and compares:

    - the measured first-order fundamental spur against the analytic
      sawtooth + |H₀₀| estimate (they agree to fractions of a dB);
    - first-order vs MASH 1-1 and MASH 1-1-1 noise shaping at the first
      two spur harmonics. *)

type row = {
  modulator : string;
  spur1_dbc : float;  (** measured, at ω₀/16 *)
  spur2_dbc : float;  (** measured, at 2ω₀/16 *)
}

type t = {
  rows : row list;
  predicted_first_order : float;
  ratio : float;  (** loop speed used *)
}

val compute : ?periods:int -> unit -> t
[@@lint.allow "test-only-export" "test seam: the numbers behind the printed figure, which the experiments tests assert"]
val run : unit -> unit
