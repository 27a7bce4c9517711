(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over bytes.

   Used to checksum journal frames; a table-driven byte-at-a-time
   implementation is plenty — journal payloads are a few hundred bytes
   per sweep point. Frames are checksummed outside the journal's mutex,
   from concurrent pool lanes, so the table is built eagerly at module
   initialisation: a lazy one forced by two domains at once raises
   [CamlinternalLazy.Undefined] in the loser. *)

let table =
  Array.init 256 (fun n ->
      let c = ref (Int32.of_int n) in
      for _ = 0 to 7 do
        let lsb = Int32.logand !c 1l in
        c := Int32.shift_right_logical !c 1;
        if lsb <> 0l then c := Int32.logxor !c 0xEDB88320l
      done;
      !c)

let update crc s pos len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32.update: range out of bounds";
  let c = ref (Int32.logxor crc 0xFFFFFFFFl) in
  for i = pos to pos + len - 1 do
    let idx = Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code s.[i]))) 0xFFl) in
    c := Int32.logxor (Int32.shift_right_logical !c 8) table.(idx)
  done;
  Int32.logxor !c 0xFFFFFFFFl

let string s = update 0l s 0 (String.length s)
