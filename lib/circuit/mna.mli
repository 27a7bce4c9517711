(** Modified nodal analysis with exact rational extraction.

    The MNA system of a linear R/L/C/VCVS network is a matrix pencil
    [M(s) = G + sC] whose entries are degree-≤1 polynomials in the
    Laplace variable. Transfer functions are ratios of determinants
    (Cramer), and each determinant is a polynomial of degree at most the
    pencil dimension — so it is recovered *exactly* by evaluating the
    pencil at roots of unity (after frequency scaling for conditioning)
    and inverse-DFT interpolation. The result is a true rational
    transfer function ({!Lti.Tf.t}), not a frequency-response table:
    poles, zeros and state-space realizations all come for free
    downstream.

    This is how loop-filter impedances reach the PLL model without any
    hand-derived formula ({!Pll_lib.Loop_filter} accepts the resulting
    [Tf.t] as a [Custom] topology). *)

exception Singular_network of string

(** [impedance netlist ~port] — [V_port(s) / I_in(s)] for a unit current
    injected into [port] (the charge pump's view of the filter).
    @raise Singular_network when the network has no finite solution
    (floating port, shorted source loop, ...). *)
val impedance : Netlist.t -> port:int -> Lti.Tf.t
[@@lint.allow "test-only-export" "test seam: the port impedance the circuit.mna physics tests read"]

(** [transimpedance netlist ~inject ~sense] — [V_sense(s) / I_inject(s)]:
    current into [inject], voltage read at [sense] (e.g. a third-order
    filter driven at the pump node and sensed after the ripple
    section). *)
val transimpedance : Netlist.t -> inject:int -> sense:int -> Lti.Tf.t

(** [voltage_transfer netlist ~from_node ~to_node] —
    [V_to(s) / V_from(s)] with an ideal voltage source driving
    [from_node]. *)
val voltage_transfer : Netlist.t -> from_node:int -> to_node:int -> Lti.Tf.t
[@@lint.allow "test-only-export" "test seam: node-to-node transfer the divider and VCVS tests read"]

(** [solve_at netlist ~inject s] — node voltages (index 0 = node 1) for
    a unit current injection, at a single complex frequency; the direct
    LU reference the rational extraction is tested against. *)
val solve_at : Netlist.t -> inject:int -> Numeric.Cx.t -> Numeric.Cvec.t
[@@lint.allow "test-only-export" "test seam: one-frequency solve the ladder property checks"]

(** [characteristic_freq netlist] — the geometric frequency scale used
    internally for conditioning (exposed for tests). *)
val characteristic_freq : Netlist.t -> float
[@@lint.allow "test-only-export" "queued: only its own unit tests call it"]
