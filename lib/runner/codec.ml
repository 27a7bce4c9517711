let encode v = Marshal.to_string v [ Marshal.No_sharing ]

(* Marshal raises Invalid_argument on a payload shorter than its
   header (or than the length the header claims) and Failure on a bad
   magic number or object tag. *)
let decode ~file s =
  match Marshal.from_string s 0 with
  | v -> Ok v
  | exception (Invalid_argument msg | Failure msg) ->
      Error
        (Robust.Pllscope_error.Parse
           { file; line = 0; col = 0; msg = "undecodable payload: " ^ msg })

let decode_exn ~file s =
  match decode ~file s with
  | Ok v -> v
  | Error err -> Robust.Pllscope_error.raise_ err
