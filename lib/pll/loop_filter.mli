(** Charge-pump loop filters (Fig. 3).

    The loop filter of a charge-pump PLL is the transimpedance
    [H_LF(s) = I_cp · Z_LF(s)] (eq. 21) from the pump current to the VCO
    control voltage. The classical second-order topology — a series
    [R, C₁] branch in parallel with [C₂] — gives the open loop of the
    paper's Fig. 5: two poles at DC (one from [Z_LF], one from the VCO),
    one finite pole and one zero. *)

type topology =
  | Second_order of { r : float; c1 : float; c2 : float }
      (** series R-C₁ in parallel with C₂ *)
  | Third_order of { r : float; c1 : float; c2 : float; r3 : float; c3 : float }
      (** second-order core followed by an R₃-C₃ ripple pole (buffered
          cascade approximation) *)
  | Custom of Lti.Tf.t  (** arbitrary transimpedance Z(s) in Ω *)

type t = { topology : topology; icp : float  (** pump current, A *) }

val make : topology -> icp:float -> t

(** [of_netlist netlist ~icp ?sense ()] — build the filter from a
    circuit description: the charge pump drives node 1; the control
    voltage is sensed at [sense] (default: node 1). The transimpedance
    is extracted exactly by modified nodal analysis
    ({!Circuit.Mna.transimpedance}), so arbitrary passive (and
    VCVS-buffered) networks can be used without hand-derived
    formulas. *)
val of_netlist : Circuit.Netlist.t -> icp:float -> ?sense:int -> unit -> t

(** [impedance f] is [Z_LF(s)] in Ω. *)
val impedance : t -> Lti.Tf.t

(** [tf f] is [H_LF(s) = I_cp·Z_LF(s)]: V per (A·s impulse ⋅ s⁻¹)…
    i.e. the voltage response to the pump current. *)
val tf : t -> Lti.Tf.t

(** [zero_freq f] / [pole_freq f] — the finite zero and non-DC pole of a
    second/third-order topology in rad/s.
    @raise Invalid_argument for [Custom]. *)
val zero_freq : t -> float
[@@lint.allow "test-only-export" "test seam: the placed zero the synthesis tests check"]

val pole_freq : t -> float
[@@lint.allow "test-only-export" "test seam: the placed pole the synthesis tests check"]

(** [synthesize_second_order ~omega_ug ~gamma ~kdc] returns [(r, c1, c2)]
    for a second-order filter with zero at [omega_ug/gamma], pole at
    [omega_ug*gamma], and total capacitance chosen so that
    [kdc = 1/(C₁+C₂)] matches the loop-gain normalization computed by
    {!Design}. *)
val synthesize_second_order :
  omega_ug:float -> gamma:float -> ctotal:float -> float * float * float

val pp : Format.formatter -> t -> unit
