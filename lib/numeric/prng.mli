(** Deterministic pseudo-random numbers (xoshiro256++).

    Monte-Carlo noise runs must be reproducible across OCaml versions,
    so the generator is implemented here rather than taken from
    [Stdlib.Random] (whose algorithm is not stable across releases).
    Seeding goes through SplitMix64 as recommended by the xoshiro
    authors. *)

type t

(** [create ~seed] — deterministic stream for a given seed. *)
val create : seed:int64 -> t

(** [copy g] — independent continuation of the current state. *)
val copy : t -> t
[@@lint.allow "test-only-export" "queued: only its own unit tests call it"]

(** [float g] — uniform in [0, 1) with 53-bit resolution. *)
val float : t -> float
[@@lint.allow "test-only-export" "test seam: uniform draws the randomized tests generate inputs with"]

(** [uniform g ~lo ~hi] — uniform in [lo, hi). *)
val uniform : t -> lo:float -> hi:float -> float

(** [gaussian g] — standard normal (Marsaglia polar, cached spare). *)
val gaussian : t -> float

(** [gaussian_array g n ~sigma] — [n] independent N(0, σ²) samples. *)
val gaussian_array : t -> int -> sigma:float -> float array
