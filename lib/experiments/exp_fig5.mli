(** FIG5 — typical open-loop characteristic [A(jω)] (paper Fig. 5).

    Three poles (two at DC) and one zero; frequency axis normalized to
    the unity-gain frequency. The shape depends only on the designed
    phase margin (through γ), not on the absolute loop speed — which is
    why the paper can reuse one characteristic for all experiments. *)

type row = {
  omega_norm : float;  (** ω/ω_UG *)
  mag_db : float;
  phase_deg : float;
}

val compute :
  ?spec:Pll_lib.Design.spec ->
  ?points:int ->
  ?pool:Parallel.Pool.t ->
  unit ->
  row list

val run : unit -> unit
