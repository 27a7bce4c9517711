(** Scalar root finding and 1-D search.

    Unity-gain crossover search (the phase-margin computations of both
    the LTI baseline and the time-varying λ(s) analysis) is a
    scan-then-Brent bracketing problem solved here. *)

exception No_bracket

(** [bisect f a b] finds a root of [f] in [[a, b]]; [f a] and [f b] must
    have opposite signs. @raise No_bracket otherwise. *)
val bisect : ?tol:float -> ?max_iter:int -> (float -> float) -> float -> float -> float
[@@lint.allow "test-only-export" "queued: only its own unit tests call it"]

(** [brent f a b] — Brent's method; same bracketing contract as
    {!bisect} but superlinear. *)
val brent : ?tol:float -> ?max_iter:int -> (float -> float) -> float -> float -> float

(** [find_first_crossing f ~lo ~hi ~steps] scans [f] on a log-spaced grid
    over [[lo, hi]] (both positive) and returns the abscissa of the first
    sign change, refined with {!brent}. Returns [None] when no sign
    change is seen. *)
val find_first_crossing :
  ?steps:int -> (float -> float) -> lo:float -> hi:float -> float option

(** [find_all_crossings] — like {!find_first_crossing} but returns every
    bracketed crossing on the grid. *)
val find_all_crossings :
  ?steps:int -> (float -> float) -> lo:float -> hi:float -> float list

(** [golden_min f a b] minimizes the unimodal [f] on [[a, b]]. *)
val golden_min : ?tol:float -> (float -> float) -> float -> float -> float

(** [logspace lo hi n] is [n] log-spaced points from [lo] to [hi]
    inclusive (both positive). *)
val logspace : float -> float -> int -> float array
