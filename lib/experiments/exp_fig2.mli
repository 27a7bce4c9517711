(** FIG2 — signal transfer between frequency bands (paper Fig. 2).

    The paper's Fig. 2 is a sketch of how [H_{n,m}(jω)] moves signal
    content between the bands around the harmonics of ω₀. Here it is
    made quantitative: the magnitude map of the closed-loop HTM of the
    reference design at a baseband offset, computed twice —

    - from the rank-one closed form (eq. 36), and
    - from the generic truncated matrix closed loop
      [(I+G)^{-1}G] (eq. 28, LU solve)

    — with the agreement between the two reported, plus the rank of the
    sampling-PFD HTM (exactly 1: sampling aliases everything
    everywhere). *)

type t = {
  harmonics : int;  (** map covers n, m in [-harmonics, harmonics] *)
  omega_frac : float;  (** evaluation offset, fraction of ω₀ *)
  closed_form : float array array;  (** |H_{n,m}| from eq. 36 *)
  generic : float array array;  (** |H_{n,m}| from the LU closed loop *)
  max_rel_dev : float;  (** worst elementwise deviation *)
  sampler_rank : int;
}

val compute :
  ?spec:Pll_lib.Design.spec -> ?harmonics:int -> ?n_harm:int -> ?omega_frac:float -> unit -> t
[@@lint.allow "test-only-export" "test seam: the numbers behind the printed figure, which the experiments tests assert"]

val run : unit -> unit
