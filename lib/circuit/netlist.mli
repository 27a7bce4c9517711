(** Linear circuit netlists.

    Charge-pump loop filters are small passive networks; instead of
    hand-deriving each topology's impedance, this module describes the
    network and {!Mna} extracts exact rational transfer functions from
    it by modified nodal analysis. Node [0] is ground; other nodes are
    nonnegative integers. *)

type element =
  | Resistor of { a : int; b : int; ohms : float }
  | Capacitor of { a : int; b : int; farads : float }
  | Inductor of { a : int; b : int; henries : float }
  | Vcvs of { out_pos : int; out_neg : int; in_pos : int; in_neg : int; gain : float }
      (** ideal voltage-controlled voltage source (E element) — lets the
          netlist describe buffered/active filter stages *)

type t

(** [create elements] — validates node indices.
    @raise Invalid_argument on negative nodes or nonpositive values. *)
val create : element list -> t

val elements : t -> element list

(** Highest node index used. *)
val max_node : t -> int

(** Number of extra MNA unknowns (inductor and controlled-source branch
    currents). *)
val extra_unknowns : t -> int

(** Convenience constructors. *)
val r : int -> int -> float -> element

val c : int -> int -> float -> element
val l : int -> int -> float -> element

(** [second_order_cp_filter ~r ~c1 ~c2] — the paper's loop filter seen
    from the charge-pump node (node 1): series R-C₁ branch and shunt C₂,
    both to ground. *)
val second_order_cp_filter : r:float -> c1:float -> c2:float -> t
[@@lint.allow "test-only-export" "test seam: reference netlist the netlist-to-filter path is checked on"]

(** [third_order_cp_filter ~r ~c1 ~c2 ~r3 ~c3] — same plus an R₃-C₃
    ripple section; the control voltage is taken at node 3 (after R₃). *)
val third_order_cp_filter :
  r:float -> c1:float -> c2:float -> r3:float -> c3:float -> t
[@@lint.allow "test-only-export" "test seam: reference netlist the netlist-to-filter path is checked on"]

val pp : Format.formatter -> t -> unit
