(** Coordinator/worker wire protocol for the sweep farm.

    Messages are {!Runner.Journal.Frame} CRC-32 frames over pipes; the
    frame tag selects the constructor and the payload is the
    {!Runner.Codec} bytes of a plain record (no closures). A peer that dies
    mid-frame reads as end-of-stream ({!recv} returns [None]), which the
    coordinator treats as worker death and the worker treats as
    coordinator shutdown.

    Conversation: coordinator sends {!msg.Hello} once; the worker
    replies {!msg.Ready}; each {!msg.Assign} of a half-open global index
    range [\[lo, hi)] is answered by a {!msg.Done} carrying the typed
    failures of that range — the Done doubles as a pull request for more
    work (contiguous own-shard ranges first, stolen ranges from ragged
    shards after). {!msg.Fin} ends the conversation; the worker answers
    {!msg.Exit} with its {!Robust.Stats} snapshot and idle-wait
    accounting, then closes. *)

(** Spawn-time workload description. [blob] is opaque to the farm; the
    worker resolves it to a task function (see {!Worker.serve}). *)
type hello = {
  shard : int;
  journal : string;
  blob : string;
  chunk : int option;
  retries : int option;
  task_timeout : float option;
}

(** Half-open range [\[lo, hi)] of global grid indices. *)
type range = { lo : int; hi : int }

(** Completion report for one assigned range; [failed] carries global
    indices with error payloads already remapped to global task
    numbers. *)
type done_ = {
  d_lo : int;
  d_hi : int;
  failed : (int * Robust.Pllscope_error.t) list;
}

(** Worker exit report: counters to absorb plus idle-wait accounting
    (how often and for how long the worker sat waiting for an Assign —
    the farm's measure of steal latency). *)
type exit_ = { stats : Robust.Stats.t; waits : int; wait_seconds : float }

type msg =
  | Hello of hello
  | Ready
  | Assign of range
  | Done of done_
  | Fin
  | Exit of exit_

(** [send fd msg] — write one framed message. Raises
    [Unix.Unix_error EPIPE] if the peer is gone. *)
val send : Unix.file_descr -> msg -> unit

(** [recv fd] — block for the next message; [None] on end-of-stream
    (peer exited or died, including mid-frame). Raises
    {!Robust.Pllscope_error.Error} with a [Parse] payload on a CRC
    failure, an unknown tag or a payload that does not decode. *)
val recv : Unix.file_descr -> msg option

(** Lowercase constructor name, for diagnostics. *)
val msg_name : msg -> string
