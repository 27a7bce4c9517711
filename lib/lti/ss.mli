(** Real state-space realizations.

    [x' = A x + B u, y = C x + D u]. The behavioral simulator integrates
    loop-filter dynamics in this form, and the exact discrete-time PLL
    model ({!Pll.Zmodel} upstream) is obtained by exponentiating [A]
    over one reference period. *)

type t = {
  a : Numeric.Rmat.t;
  b : float array;
  c : float array;
  d : float;
}

(** [of_tf tf] — controllable canonical form of a proper transfer
    function. @raise Invalid_argument for improper input. *)
val of_tf : Tf.t -> t

val order : t -> int

(** [eval ss s] is [C (sI - A)^{-1} B + D]; cross-checks against
    [Tf.eval]. *)
val eval : t -> Numeric.Cx.t -> Numeric.Cx.t
[@@lint.allow "test-only-export" "test seam: evaluates a realization against its Tf in the lti.ss tests"]

(** [derivative ss x u] is [A x + B u]. *)
val derivative : t -> float array -> float -> float array

val output : t -> float array -> float -> float

(** [discretize ss ~dt] — exact zero-order-hold discretization; returns
    [(phi, gamma)] with [x_{k+1} = phi x_k + gamma u_k]. *)
val discretize : t -> dt:float -> Numeric.Rmat.t * float array

(** [impulse_state ss w] — state jump produced by an input impulse of
    weight [w]: [x <- x + B w]. *)
val impulse_state : t -> float -> float array
