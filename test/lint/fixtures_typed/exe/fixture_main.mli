(* An executable's interface is empty. *)
