(* Coordinator <-> worker wire protocol for the sweep farm.

   Messages travel over pipes as Journal CRC-32 frames: the frame's
   index field carries the message tag, the payload is the Runner.Codec
   bytes of a plain record (no closures, no custom blocks), so both
   sides validate integrity with the same frames and codec the
   checkpoint journals use and a worker that dies mid-message reads as
   a clean EOF on the coordinator's side.

   Conversation:

     coordinator                      worker
         | -- Hello {shard; blob; ...} ->|      (once, at spawn)
         |<------------ Ready ----------- |
         | ------ Assign {lo; hi} ------->|
         |<------ Done {lo; hi; failed} --|      (doubles as a pull)
         | ------ Assign {lo; hi} ------->|      (own range or stolen)
         |            ...                 |
         | ------------ Fin ------------->|      (no work left)
         |<------ Exit {stats; ...} ------|
         |            EOF                 |

   Ranges are half-open [lo, hi) in global grid indices. A worker that
   has sent Done and received nothing is parked ("hungry") by the
   coordinator until a range frees up (work stealing) or Fin. *)

type hello = {
  shard : int;  (* this worker's shard number, 0-based *)
  journal : string;  (* its private checkpoint journal path *)
  blob : string;  (* workload description, resolved by the worker *)
  chunk : int option;
  retries : int option;
  task_timeout : float option;
}

type range = { lo : int; hi : int }

type done_ = {
  d_lo : int;
  d_hi : int;
  failed : (int * Robust.Pllscope_error.t) list;
      (* global indices + typed errors; payloads already remapped *)
}

type exit_ = {
  stats : Robust.Stats.t;
  waits : int;  (* Assign round-trips that found the worker idle *)
  wait_seconds : float;  (* total time spent idle waiting for Assign *)
}

type msg =
  | Hello of hello
  | Ready
  | Assign of range
  | Done of done_
  | Fin
  | Exit of exit_

(* The tag table, once per direction. *)
let frame = function
  | Hello h -> (1, Runner.Codec.encode h)
  | Ready -> (2, "")
  | Assign r -> (3, Runner.Codec.encode r)
  | Done d -> (4, Runner.Codec.encode d)
  | Fin -> (5, "")
  | Exit e -> (6, Runner.Codec.encode e)

let of_frame tag payload =
  let decode () = Runner.Codec.decode_exn ~file:"<pipe>" payload in
  match tag with
  | 1 -> Hello (decode ())
  | 2 -> Ready
  | 3 -> Assign (decode ())
  | 4 -> Done (decode ())
  | 5 -> Fin
  | 6 -> Exit (decode ())
  | _ ->
      let msg = "Protocol.recv: unknown message tag " ^ string_of_int tag in
      Robust.Pllscope_error.(
        raise_ (Parse { file = "<pipe>"; line = 0; col = 0; msg }))

let send fd msg =
  let tag, payload = frame msg in
  Runner.Journal.Frame.write_result fd ~tag payload
  |> Result.iter_error Robust.Pllscope_error.raise_

let recv fd =
  match Runner.Journal.Frame.read_result fd with
  | Ok None -> None
  | Ok (Some (tag, payload)) -> Some (of_frame tag payload)
  | Error err -> Robust.Pllscope_error.raise_ err

let msg_name = function
  | Hello _ -> "hello"
  | Ready -> "ready"
  | Assign _ -> "assign"
  | Done _ -> "done"
  | Fin -> "fin"
  | Exit _ -> "exit"
