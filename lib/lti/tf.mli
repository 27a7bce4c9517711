(** Continuous-time transfer functions H(s) with real coefficients.

    A transfer function is a rational in the Laplace variable [s]; this
    is the LTI layer the paper's HTM formalism extends: an LTI block
    embeds into an HTM as the diagonal [H_{m,m}(s) = H(s + j m ω₀)]
    (eq. 12). *)

type t

(** [make ~num ~den] with real coefficients in ascending powers of [s].
    @raise Division_by_zero if the denominator is zero. *)
val make : num:float list -> den:float list -> t

val of_rat : Numeric.Rat.t -> t
val to_rat : t -> Numeric.Rat.t

(** Gain [k] as a transfer function. *)
val gain : float -> t
[@@lint.allow "test-only-export" "test seam: reference transfer function of the LTI tests"]

(** The integrator [1/s]. *)
val integrator : t

(** The double integrator [1/s²]. *)
val double_integrator : t
[@@lint.allow "test-only-export" "test seam: reference transfer function of the LTI tests"]

(** [first_order_pole wp] is [1 / (1 + s/wp)]. *)
val first_order_pole : float -> t

(** [first_order_zero wz] is [1 + s/wz]. *)
val first_order_zero : float -> t
[@@lint.allow "test-only-export" "test seam: reference transfer function of the LTI tests"]

(** [from_zpk ~zeros ~poles ~gain] builds
    [k Π(s - z_i) / Π(s - p_i)] from real zeros/poles. *)
val from_zpk : zeros:float list -> poles:float list -> gain:float -> t
[@@lint.allow "test-only-export" "queued: only its own unit tests call it"]

val eval : t -> Numeric.Cx.t -> Numeric.Cx.t

(** [freq_response tf w] is [eval tf (jw)]. *)
val freq_response : t -> float -> Numeric.Cx.t

val mul : t -> t -> t
val scale : float -> t -> t

val feedback_unity : t -> t
[@@lint.allow "test-only-export" "queued: only its own unit tests call it"]
val poles : t -> Numeric.Cx.t list
val zeros : t -> Numeric.Cx.t list

(** [dc_gain tf] is [lim_{s->0} tf(s)] (may be infinite for poles at the
    origin). *)
val dc_gain : t -> float
[@@lint.allow "test-only-export" "test seam: DC gain the loop-filter and Tf tests check"]

val is_proper : t -> bool

(** [is_stable ?tol tf] — all poles strictly in the open left half plane
    ([Re p < -tol * scale]). Poles at the origin count as unstable. *)
val is_stable : ?tol:float -> t -> bool
[@@lint.allow "test-only-export" "queued: only its own unit tests call it"]

val num_coeffs : t -> float array
val den_coeffs : t -> float array
val pp : Format.formatter -> t -> unit
