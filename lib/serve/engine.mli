(** Request execution for the daemon.

    Every entry point polls the request's cancellation token at a fine
    grain (between stages / grid points / ratios), raising
    {!Parallel.Cancel.Cancelled} — or, for [sweep], returning typed
    per-point failures — when the deadline monitor fires. Results are
    bit-identical to the matching CLI subcommand run locally. *)

val analyze :
  cancel:Parallel.Cancel.t ->
  Pll_lib.Design.spec ->
  Wire.analyze_result

(** Raises {!Robust.Pllscope_error.Error} with a [Parse] payload when
    [points < 2] (malformed request, answered as a typed error frame). *)
val bode :
  cancel:Parallel.Cancel.t ->
  Pll_lib.Design.spec ->
  points:int ->
  Wire.bode_result

(** Checked sweep at chunk size 1: an expired deadline cancels between
    ratios and the already-computed rows still come back, with typed
    [Cancelled] failures for the rest. Raises like {!bode} on an empty
    grid. The daemon's only sweep compute: a stream calls it once per
    window, on the points its journal does not already hold. *)
val sweep :
  cancel:Parallel.Cancel.t ->
  Pll_lib.Design.spec ->
  float array ->
  Wire.sweep_result
