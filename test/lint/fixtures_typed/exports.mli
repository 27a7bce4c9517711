(* unused-export / test-only-export: the vals of a library interface,
   classified by who references them from another compilation unit. *)

val nobody : int (* reported: no unit references it *)
val own_only : int -> int (* reported: only exports.ml calls it *)
val test_only : int (* reported: only test/ references it *)
val via_alias : int (* clean: Users reaches it through an alias *)
val via_open : int (* clean: Users reaches it through an open *)
val via_include : int (* clean: Users reaches it through an include *)
val via_check_exe : int (* clean: an executable with an .mli calls it *)

(* clean: test-only, allowed with a reason *)
val oracle : int
[@@lint.allow "test-only-export" "oracle: the closed form tests check"]

(* bad-allow: without a reason the allow suppresses nothing *)
val no_reason : int
[@@lint.allow "test-only-export"]

(* bad-allow: no such rule *)
val misspelt : int
[@@lint.allow "unused-exprt" "a typo silences nothing"]
