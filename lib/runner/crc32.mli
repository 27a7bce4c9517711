(** CRC-32 (IEEE 802.3, polynomial 0xEDB88320) checksums for journal
    frames. A checksum is an [int] in [0 .. 2^32 - 1]; the checksum of
    no bytes is [0], and [update 0 "123456789" 0 9 = 0xCBF43926]. *)

(** [update crc s pos len] — extend [crc] with [s.[pos .. pos+len-1]],
    so [update (update 0 a 0 (String.length a)) b 0 (String.length b)]
    is the checksum of [a ^ b]. Raises [Invalid_argument] if the range
    is out of bounds. *)
val update : int -> string -> int -> int -> int

(** [update_u32 crc v] — extend [crc] with the four bytes of
    [v land 0xFFFF_FFFF], least significant first: what {!update}
    gives over those bytes, without building them. *)
val update_u32 : int -> int -> int
