(** The byte encoding of every value pllscope persists or sends:
    checkpoint journal payloads ({!Run.grid}, farm shard journals),
    farm pipe messages and daemon socket messages.

    The encoding is [Marshal] with [No_sharing]. Marshal round-trips
    OCaml floats bit-exactly; suppressing back-references makes the
    bytes a function of the value's structure alone, so the same value
    encodes to the same bytes whichever path built it (a farm worker, an
    in-process sweep, a streamed reply reassembled cell by cell). Every
    encoded value must be a tree: no closures, no cycles.

    Decoding is not type-safe: the caller names the type it expects,
    and a payload written for another type is undefined behaviour
    (keep distinct checkpoint paths per sweep kind). *)

(** [encode v] — the bytes of [v]. *)
val encode : 'a -> string

(** [decode ~file s] — the value {!encode} wrote. A payload too short
    to hold a Marshal header, or one Marshal rejects, is
    [Error (Parse { file; _ })]: [file] names where the bytes came from
    (a journal path, ["<pipe>"], ["<socket>"]). *)
val decode : file:string -> string -> ('a, Robust.Pllscope_error.t) result

(** [decode_exn ~file s] — {!decode}, raising
    {!Robust.Pllscope_error.Error} on a bad payload. *)
val decode_exn : file:string -> string -> 'a
