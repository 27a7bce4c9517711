(** The subprocess side of the sweep-farm protocol.

    {!serve} is the whole lifecycle of a worker process: it speaks
    {!Protocol} on the inherited stdin/stdout pipes, executes each
    assigned half-open range as a {!Parallel.Sweep.grid_checked} sweep
    over global grid indices, then writes the range's computed points to
    its private checkpoint journal with one
    {!Runner.Journal.append_range} and fsyncs it before acknowledging
    the range: every frame of a range is written and fsynced before its
    [Done]. A [kill -9] mid-range loses at most that range, which the
    coordinator re-queues whole; everything acknowledged survives into
    the coordinator's merge.

    The worker's stdout is re-pointed at stderr after the protocol fd is
    duplicated, so stray prints from workload code cannot corrupt a
    frame. *)

(** [serve ?chunk ?retries ?task_timeout ~resolve ()] — run the worker
    loop to completion (Fin, coordinator EOF, or EPIPE — all clean
    exits). [resolve shard blob] must return the task function mapping a
    {b global} grid index to its encoded payload; the encoding must
    match the coordinator's codec byte-for-byte (use {!Runner.Codec} on
    both sides, as {!Runner.Run.grid} does). Settings carried in the
    Hello override the optional arguments. [Robust.Stats] is reset at
    Hello and its snapshot travels back in the Exit frame for the
    coordinator to absorb. Raises [Invalid_argument] if the first
    message is not Hello. *)
val serve :
  ?chunk:int ->
  ?retries:int ->
  ?task_timeout:float ->
  resolve:(int -> string -> int -> string) ->
  unit ->
  unit
