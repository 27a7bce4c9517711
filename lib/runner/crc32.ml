(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over bytes.

   Every journal read checksums every frame it walks — a merge or a
   resume of a farm run checks some 100k frames of ~50 bytes — so the
   register is a native [int] (the low 32 bits hold the CRC; [land],
   [lsr] and [lxor] box nothing, where [Int32] arithmetic on a ref
   boxed at every byte) and the bytes are read unchecked inside one
   bounds-checked call. Callers run one call per byte region, not per
   byte: [lib/] is compiled [-opaque], so nothing here is inlined into
   them. Frames are checksummed outside the journal's mutex, from
   concurrent pool lanes, so the table is built eagerly at module
   initialisation: a lazy one forced by two domains at once raises
   [CamlinternalLazy.Undefined] in the loser. *)

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then (!c lsr 1) lxor 0xEDB88320 else !c lsr 1
      done;
      !c)

let update crc s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32.update: range out of bounds";
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c :=
      Array.unsafe_get table ((!c lxor Char.code (String.unsafe_get s i)) land 0xFF)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let update_u32 crc v =
  let c = ref (crc lxor 0xFFFFFFFF) in
  for k = 0 to 3 do
    c :=
      Array.unsafe_get table ((!c lxor (v lsr (8 * k))) land 0xFF)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF
