(** Discrete-time (z-domain) rational transfer functions.

    The substrate for the Hein–Scott-style exact discrete-time PLL
    baseline: sampled-loop transfer functions [L(z)], unit-circle
    frequency response [L(e^{jωT})], and stability by pole modulus. *)

type t

(** [make ~num ~den] — real coefficients in ascending powers of [z]. *)
val make : num:float list -> den:float list -> t
[@@lint.allow "test-only-export" "queued: only its own unit tests call it"]

val eval : t -> Numeric.Cx.t -> Numeric.Cx.t
[@@lint.allow "test-only-export" "test seam: reads L(z) in the Zmodel tests"]

(** [freq_response h ~period w] is [h(e^{jw·period})]. *)
val freq_response : t -> period:float -> float -> Numeric.Cx.t

val add : t -> t -> t
[@@lint.allow "test-only-export" "queued: only its own unit tests call it"]
val mul : t -> t -> t
[@@lint.allow "test-only-export" "queued: only its own unit tests call it"]
val scale : float -> t -> t
[@@lint.allow "test-only-export" "queued: only its own unit tests call it"]

(** [feedback_unity g] is [g/(1+g)]. *)
val feedback_unity : t -> t

val poles : t -> Numeric.Cx.t list
[@@lint.allow "test-only-export" "test seam: reads the closed-loop poles in the Zmodel tests"]

(** All poles strictly inside the unit circle. *)
val is_stable : ?tol:float -> t -> bool
[@@lint.allow "test-only-export" "queued: only its own unit tests call it"]

(** [from_state_space ~phi ~b ~c] is [C (zI - Φ)^{-1} B] as an explicit
    rational in [z], assembled from the characteristic polynomial via
    Cramer-style expansion: num(z) = C adj(zI-Φ) B. *)
val from_state_space : phi:Numeric.Rmat.t -> b:float array -> c:float array -> t
