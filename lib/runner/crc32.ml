(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over bytes.

   Every journal read checksums every frame it walks — a merge or a
   resume of a farm run checks some 100k frames of ~50 bytes — so the
   register is a native [int] (the low 32 bits hold the CRC; [land],
   [lsr] and [lxor] box nothing, where [Int32] arithmetic on a ref
   boxed at every byte) and the bytes are read unchecked inside one
   bounds-checked call. Callers run one call per byte region, not per
   byte: [lib/] is compiled [-opaque], so nothing here is inlined into
   them.

   Slicing-by-8: [tables] holds eight 256-entry tables end to end, the
   first being the classic byte table and table [k] the CRC of a byte
   followed by [k] zero bytes, so eight input bytes fold into the
   register with eight independent lookups instead of a chain of eight
   dependent ones. A region's last [len mod 8] bytes go through the byte
   loop. The checksums are those of the byte loop, bit for bit.

   Frames are checksummed outside the journal's mutex, from concurrent
   pool lanes, so the tables are built eagerly at module initialisation:
   a lazy one forced by two domains at once raises
   [CamlinternalLazy.Undefined] in the loser. *)

let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then (!c lsr 1) lxor 0xEDB88320 else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

(* entry [n] of table [k] *)
let[@inline] tbl k n = Array.unsafe_get tables ((k lsl 8) lor n)
let[@inline] byte s i = Char.code (String.unsafe_get s i)

(* one byte into register [c] *)
let[@inline] step c b = tbl 0 ((c lxor b) land 0xFF) lxor (c lsr 8)

let update crc s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32.update: range out of bounds";
  let c = ref (crc lxor 0xFFFFFFFF) in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let j = !i in
    let lo =
      !c
      lxor (byte s j
           lor (byte s (j + 1) lsl 8)
           lor (byte s (j + 2) lsl 16)
           lor (byte s (j + 3) lsl 24))
    in
    c :=
      tbl 7 (lo land 0xFF)
      lxor tbl 6 ((lo lsr 8) land 0xFF)
      lxor tbl 5 ((lo lsr 16) land 0xFF)
      lxor tbl 4 ((lo lsr 24) land 0xFF)
      lxor tbl 3 (byte s (j + 4))
      lxor tbl 2 (byte s (j + 5))
      lxor tbl 1 (byte s (j + 6))
      lxor tbl 0 (byte s (j + 7));
    i := j + 8
  done;
  for j = stop8 to pos + len - 1 do
    c := step !c (byte s j)
  done;
  !c lxor 0xFFFFFFFF

let update_u32 crc v =
  let c = ref (crc lxor 0xFFFFFFFF) in
  for k = 0 to 3 do
    c := step !c ((v lsr (8 * k)) land 0xFF)
  done;
  !c lxor 0xFFFFFFFF
