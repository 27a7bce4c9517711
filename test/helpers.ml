(* Shared test utilities: testables, tolerant float checks, fixtures and
   qcheck generators. *)

open Numeric

let float_eps = 1e-9

let check_close ?(tol = float_eps) msg expected actual =
  let scale = 1.0 +. Float.abs expected +. Float.abs actual in
  if Float.abs (expected -. actual) > tol *. scale then
    Alcotest.failf "%s: expected %.12g, got %.12g (tol %.1e)" msg expected
      actual tol

let check_cx ?(tol = float_eps) msg expected actual =
  if not (Cx.approx ~tol expected actual) then
    Alcotest.failf "%s: expected %s, got %s (tol %.1e)" msg
      (Cx.to_string expected) (Cx.to_string actual) tol

let check_true msg b = Alcotest.(check bool) msg true b
let check_int msg a b = Alcotest.(check int) msg a b

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

(* Pass an explicit random state: the library default lazily prints a
   "qcheck random seed" banner to stdout at module-init time, which
   corrupts the farm protocol stream when the test binary re-execs
   itself as a farm worker (stdout is the protocol pipe). Fixed seed
   also makes the property suite reproducible; override via
   QCHECK_SEED. *)
let qcheck_rand () =
  let seed =
    match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
    | Some s -> s
    | None -> 421_337
  in
  Random.State.make [| seed |]

let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ())
    (QCheck2.Test.make ~count ~name gen prop)

(* CRC-32 (IEEE 802.3, reflected) by its definition, one bit at a time
   and without a table: extends [crc] with [s.[pos .. pos+len-1]] *)
let crc32_bitwise crc s pos len =
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code s.[i];
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then (!c lsr 1) lxor 0xEDB88320 else !c lsr 1
    done
  done;
  !c lxor 0xFFFFFFFF

(* generators *)
let small_float = QCheck2.Gen.float_range (-10.0) 10.0

let nonzero_float =
  QCheck2.Gen.map
    (fun x -> if Float.abs x < 0.1 then x +. 0.5 else x)
    small_float

let gen_cx = QCheck2.Gen.map2 Cx.make small_float small_float

let gen_cx_nonzero =
  QCheck2.Gen.map
    (fun z -> if Cx.abs z < 0.1 then Cx.add z (Cx.make 0.5 0.5) else z)
    gen_cx

(* random polynomial of degree <= 4 with moderate coefficients *)
let gen_poly =
  QCheck2.Gen.map Poly.of_coeffs (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 5) gen_cx)

(* strictly Hurwitz pole set for stable-system generators *)
let gen_stable_pole =
  QCheck2.Gen.map2
    (fun re im -> Cx.make (-.(Float.abs re) -. 0.2) im)
    small_float small_float

(* the reference loop designs used across PLL-level tests *)
let spec_slow =
  { Pll_lib.Design.default_spec with Pll_lib.Design.ratio = 0.05 }

let spec_default = Pll_lib.Design.default_spec (* ratio 0.1 *)

let spec_fast =
  { Pll_lib.Design.default_spec with Pll_lib.Design.ratio = 0.25 }

let pll_of spec = Pll_lib.Design.synthesize spec
