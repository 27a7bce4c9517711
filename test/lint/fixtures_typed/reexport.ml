(* Re-exports Exports: a caller of Reexport.via_include reaches
   Exports.via_include. *)

include Exports
