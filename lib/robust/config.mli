(** The robustness layer's one runtime knob, and its guard thresholds.

    The knob is an atomic (pool workers read it); set it once at process
    start, before launching parallel work. *)

(** Strict mode: guarded failures raise {!Pllscope_error.Error} instead
    of degrading to the dense oracle. Off by default; the CLI arms it
    with [--strict]. *)
val set_strict : bool -> unit

val is_strict : unit -> bool

(** 1-norm condition-number threshold above which LU-backed solves are
    declared numerically singular: 1e12. *)
val max_cond : float

(** Threshold for the closed-form feedback denominator guard
    ([(1 + |vᵀu|) / |1 + vᵀu|] for Sherman–Morrison–Woodbury, the
    analogous ratio for diagonal feedback): 1e12. *)
val smw_max_cond : float

(** Restore the knob to its default (strict off). *)
val reset : unit -> unit
[@@lint.allow "test-only-export" "fault hook: restores the default guard configuration between tests"]
