(** PERF — runtime comparison (paper §5 prose claim).

    "Evaluating (38) is only a matter of seconds while it takes several
    minutes for the time-marching simulations to complete." Here the
    exact closed form, the truncated sum, the generic truncated-matrix
    method and the time-marching extraction are timed on the same
    frequency-response task; the speedup of the closed form over
    time-marching per frequency point is reported. Fine-grained
    micro-benchmarks live in [bench/main.ml] (Bechamel). *)

type row = {
  label : string;
  points : int;  (** frequency points evaluated *)
  seconds : float;  (** CPU time *)
  per_point : float;
}

type t = { rows : row list; speedup : float }

val run : unit -> unit
