(* Callers inside the library, each reaching Exports another way. *)

module X = Exports

let through_alias = X.via_alias
let through_open = Exports.(via_open)
let through_include = Reexport.via_include
