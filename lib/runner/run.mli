(** Crash-safe checked sweeps: {!Parallel.Sweep.grid_checked} with a
    checkpoint {!Journal} and resume.

    With [~checkpoint:(path, key)], every computed point is appended to
    the journal (index + encoded value) before the sweep moves past it.
    With [~resume:true] the journal is replayed first and the points it
    holds are {b not} recomputed — their replayed values fill the
    result directly. Because the resumed sweep still runs over the full
    index range (completed points short-circuit), task indices, chunking
    and error payloads match an uninterrupted run exactly; combined with
    {!Codec}'s bit-exact round-trip this makes

    {v  interrupted-and-resumed  ==  uninterrupted  v}

    bit-for-bit, at any pool size. Replayed points are counted in
    {!Robust.Stats} as resumed. *)

(** [grid ?checkpoint ?resume f a] — checked sweep of [f] over [a];
    see {!Parallel.Sweep.grid_checked} for [pool]/[chunk]/[retries]/
    [cancel]/[task_timeout]. [checkpoint] is [(path, key)]: the journal
    and the key of the workload (a digest of its bytes), which a
    journal this call creates records. Points are journaled as
    {!Codec} bytes. Without [~resume:true] an existing journal at
    [path] is discarded (fresh run); with it, journaled points are
    replayed instead of recomputed. A journal that records another key
    (see {!Journal.check_key}), or a journaled payload that does not
    decode, raises {!Robust.Pllscope_error.Error} with a [Parse] payload
    naming the journal — the key before any point is decoded. The
    journal is synced and closed on exit, including on exceptions and
    simulated crashes. Raises [Invalid_argument] if [resume] is set
    without [checkpoint]. *)
val grid :
  ?pool:Parallel.Pool.t ->
  ?chunk:int ->
  ?retries:int ->
  ?cancel:Parallel.Cancel.t ->
  ?task_timeout:float ->
  ?checkpoint:string * string ->
  ?resume:bool ->
  ('a -> 'b) ->
  'a array ->
  'b Parallel.Sweep.partial
