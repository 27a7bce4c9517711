(** Exact discrete-time PLL model (the [Hein & Scott 1988] /
    [Gardner 1980] baseline, in exact state-space form).

    Between two sampling instants the loop is autonomous; each PFD
    impulse kicks the loop-filter/VCO state by [B·e_k]. With
    [P(s) = I_cp·Z_LF(s)·v₀/s = T·A(s)] realized as [(A, B, C)] and
    [Φ = e^{AT}]:

    [x_{k+1} = Φ(x_k + B e_k)],  [θ_k = C x_k],  [e_k = θref_k − θ_k].

    The open loop is [L(z) = C (zI−Φ)^{-1} Φ B]. Because [P] has
    relative degree ≥ 2 (so its impulse response vanishes at 0), the
    impulse-invariance identity makes [L(e^{jωT})] equal the paper's
    effective open-loop gain [λ(jω) = Σ_m A(jω + jmω₀)] *exactly* — the
    two formalisms are property-tested against each other through
    entirely different numerics (matrix exponential vs. coth lattice
    sums). *)

[@@@lint.allow "test-only-export"
  "oracle: the exact discrete-time model lambda is checked against"]

type t = {
  phi : Numeric.Rmat.t;  (** [e^{AT}] *)
  b : float array;
  c : float array;
  period : float;
}

(** [of_pll p] — requires a time-invariant VCO and a sampling PFD.
    @raise Invalid_argument otherwise. *)
val of_pll : Pll.t -> t

(** [open_loop p] is [L(z)] as an explicit z-rational. *)
val open_loop : t -> Lti.Zdomain.t

(** [closed_loop p] is [L/(1+L)]. *)
val closed_loop : t -> Lti.Zdomain.t

(** [open_loop_response m w] is [L(e^{jwT})]. *)
val open_loop_response : t -> float -> Numeric.Cx.t

(** [closed_loop_poles m] — eigenvalues of [Φ(I − B C)]. *)
val closed_loop_poles : t -> Numeric.Cx.t list

val is_stable : ?tol:float -> t -> bool

(** [predicted_s_poles m] — the continuous-frequency images
    [s = ln(z)/T] (principal branch) of the closed-loop z-poles; these
    are roots of [1 + λ(s) = 0]. *)
val predicted_s_poles : t -> Numeric.Cx.t list

(** [step_response m ~n] — sampled phase [θ_k] for a unit reference
    phase step. *)
val step_response : t -> n:int -> float array
