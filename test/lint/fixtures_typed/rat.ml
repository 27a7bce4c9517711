(* hot-alloc coverage: rat.ml's hot-set entry is [eval_into]. This file
   has a kernel under another name and none under that one, so the
   entry covers nothing — a finding at line 1, where a rename of the
   real kernel would otherwise drop it from the hot set silently. *)

let eval_split_into re im out_re out_im idx =
  out_re.(idx) <- re;
  out_im.(idx) <- im
