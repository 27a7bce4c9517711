(* The pllscope lint rules, implemented as checks over the untyped
   parsetree (compiler-libs [Parse] + [Ast_iterator]).

   Working untyped keeps the tool dependency-free and fast, at the cost
   of syntactic heuristics: float-eq fires only when an operand is
   visibly float-shaped (float literal, [*.]-family operator, a known
   float-returning function), and pool-purity treats any name not bound
   inside the closure as captured. Both under-approximate rather than
   spam: a silent miss is recoverable by review, a noisy gate gets
   turned off.

   Suppression: [[@lint.allow "rule"]] on an expression or value
   binding, or a file-level [[@@@lint.allow "rule"]] floating attribute.
   Several rules may be given, separated by spaces or commas; the
   special name "all" suppresses every rule. *)

open Parsetree

let rule_float_eq = "float-eq"
let rule_pool_purity = "pool-purity"
let rule_nondet = "nondeterminism"
let rule_mli = "mli-coverage"
let rule_prefix = "error-message-prefix"
let rule_catch_all = "catch-all"
let rule_raw_write = "raw-result-write"

let all_rules =
  [
    ( rule_float_eq,
      "polymorphic =, <> or compare on float- or Cx.t-shaped operands \
       (NaN-unsafe)" );
    ( rule_pool_purity,
      "mutable state captured by closures passed to Parallel.Pool/Sweep" );
    ( rule_nondet,
      "wall-clock / self-seeded randomness / Hashtbl.hash under lib/" );
    (rule_mli, "every lib/**/*.ml must have a matching .mli");
    ( rule_prefix,
      "invalid_arg/failwith messages must start with 'Module.function: '" );
    ( rule_catch_all,
      "exception handlers under lib/ that silently swallow every exception" );
    ( rule_raw_write,
      "direct open_out/Out_channel writes to *.json or golden artifacts; \
       route them through Runner.Atomic_file" );
    ( "bad-allow",
      "[@lint.allow] attribute naming a rule that does not exist" );
  ]

let rule_bad_allow = "bad-allow"

type ctx = {
  file : string;
  in_lib : bool;
  valid_rules : string list; (* catalog for [@lint.allow] validation *)
  mutable stack : string list list; (* [@lint.allow] scopes, innermost first *)
  mutable file_allowed : string list; (* [@@@lint.allow] for the whole file *)
  mutable findings : Finding.t list;
}

let make_ctx ?(extra_allowed = []) ?(valid_rules = []) ~file ~in_lib () =
  { file; in_lib; valid_rules; stack = []; file_allowed = extra_allowed;
    findings = [] }

let suppressed ctx rule =
  let covers rules = List.mem rule rules || List.mem "all" rules in
  covers ctx.file_allowed || List.exists covers ctx.stack

let report ctx rule loc message =
  if not (suppressed ctx rule) then
    ctx.findings <-
      Finding.of_loc ~file:ctx.file ~rule ~message loc :: ctx.findings

(* ------------------------------------------------------------------ *)
(* [@lint.allow "..."] parsing                                         *)

(* The payload of one [@lint.allow]: the rule names (space or comma
   separated) and, in the two-string form [@lint.allow "rule" "reason"],
   the stated reason. A bare [@lint.allow] suppresses everything. *)
let parse_allow (a : attribute) =
  let str e =
    match e.pexp_desc with
    | Pexp_constant (Pconst_string (s, _, _)) -> Some s
    | _ -> None
  in
  let rules s =
    String.split_on_char ' ' s
    |> List.concat_map (String.split_on_char ',')
    |> List.filter (fun r -> not (String.equal r ""))
  in
  match a.attr_payload with
  | PStr [ { pstr_desc = Pstr_eval (e, _); _ } ] -> (
      match (str e, e.pexp_desc) with
      | Some s, _ -> (rules s, None)
      | None, Pexp_apply (f, [ (Asttypes.Nolabel, r) ]) -> (
          match (str f, str r) with
          | Some s, Some reason -> (rules s, Some reason)
          | _ -> ([ "all" ], None))
      | _ -> ([ "all" ], None))
  | _ -> ([ "all" ], None)

let is_allow (a : attribute) = String.equal a.attr_name.txt "lint.allow"

let allow_rules_of_attrs attrs =
  List.concat_map
    (fun a -> if is_allow a then fst (parse_allow a) else [])
    attrs

(* A suppression naming a rule that does not exist silences nothing and
   reads as if it did — flag it (the untyped tier checks each .ml and
   the floating attributes of its .mli; Xref checks the .mli vals it
   reads). The catalog is injected by the driver so this module needs
   no knowledge of the typed tier's rules; so is the list of rules whose
   allow must state a reason ([reasoned]). *)
let validate_allow ?(reasoned = []) ctx (attrs : attributes) =
  if ctx.valid_rules <> [] then
    List.iter
      (fun (a : attribute) ->
        if is_allow a then
          let rules, reason = parse_allow a in
          List.iter
            (fun r ->
              if not (String.equal r "all" || List.mem r ctx.valid_rules) then
                report ctx rule_bad_allow a.attr_loc
                  (Printf.sprintf
                     "[@lint.allow %S] names no known rule and suppresses \
                      nothing; see --list-rules"
                     r)
              else if List.mem r reasoned && Option.is_none reason then
                report ctx rule_bad_allow a.attr_loc
                  (Printf.sprintf
                     "[@lint.allow %S] suppresses nothing without a reason: \
                      [@lint.allow %S \"why\"]"
                     r r))
            rules)
      attrs

(* ------------------------------------------------------------------ *)
(* float-eq                                                            *)

let float_ops = [ "+."; "-."; "*."; "/."; "**"; "~-."; "~+." ]

let float_funs =
  [
    "sqrt"; "exp"; "log"; "log10"; "expm1"; "log1p"; "sin"; "cos"; "tan";
    "asin"; "acos"; "atan"; "atan2"; "sinh"; "cosh"; "tanh"; "ceil"; "floor";
    "abs_float"; "mod_float"; "float_of_int"; "float_of_string"; "ldexp";
    "copysign"; "hypot";
  ]

let float_consts =
  [ "infinity"; "neg_infinity"; "nan"; "epsilon_float"; "max_float"; "min_float" ]

(* [Float.f] calls that do NOT return float — everything else does. *)
let float_module_non_float =
  [
    "to_int"; "to_string"; "is_nan"; "is_finite"; "is_integer"; "compare";
    "equal"; "sign_bit"; "classify_float"; "hash"; "seeded_hash"; "to_string_hum";
  ]

(* Float-returning accessors of the repo's own complex module. *)
let cx_float_funs = [ "abs"; "re"; "im"; "norm2"; "arg" ]

(* [Cx.*] values/calls that are NOT [Cx.t]-valued — everything else in
   the module yields a complex number, so [Cx.f ...] operands of a
   polymorphic comparison are Cx-shaped unless listed here. *)
let cx_non_cx_funs =
  cx_float_funs
  @ [ "is_zero"; "is_finite"; "approx"; "to_string"; "pp" ]

let cx_consts = [ "zero"; "one"; "j" ]

let rec cx_shaped e =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Ldot (Longident.Lident "Cx", n); _ } ->
      List.mem n cx_consts
  | Pexp_apply (f, _) -> (
      match f.pexp_desc with
      | Pexp_ident { txt = Longident.Ldot (Longident.Lident "Cx", fn); _ } ->
          not (List.mem fn cx_non_cx_funs)
      | _ -> false)
  | Pexp_constraint (inner, _) -> cx_shaped inner
  | Pexp_open (_, inner) -> cx_shaped inner
  | _ -> false

let rec float_shaped e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_ident { txt = Longident.Lident n; _ } -> List.mem n float_consts
  | Pexp_ident { txt = Longident.Ldot (Longident.Lident "Float", n); _ } ->
      List.mem n
        [ "pi"; "infinity"; "neg_infinity"; "nan"; "epsilon"; "max_float";
          "min_float" ]
  | Pexp_apply (f, _) -> (
      match f.pexp_desc with
      | Pexp_ident { txt = Longident.Lident op; _ } ->
          List.mem op float_ops || List.mem op float_funs
      | Pexp_ident { txt = Longident.Ldot (Longident.Lident "Float", fn); _ } ->
          not (List.mem fn float_module_non_float)
      | Pexp_ident { txt = Longident.Ldot (Longident.Lident "Cx", fn); _ } ->
          List.mem fn cx_float_funs
      | _ -> false)
  | Pexp_constraint (inner, _) -> float_shaped inner
  | Pexp_open (_, inner) -> float_shaped inner
  | _ -> false

let check_float_eq ctx e =
  match e.pexp_desc with
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Longident.Lident (("=" | "<>") as op); _ }; _ },
        [ (Nolabel, a); (Nolabel, b) ] )
    when float_shaped a || float_shaped b ->
      report ctx rule_float_eq e.pexp_loc
        (Printf.sprintf
           "polymorphic %s on float operands is NaN-unsafe; use Float.equal \
            (or classify the value)"
           op)
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Longident.Lident (("=" | "<>") as op); _ }; _ },
        [ (Nolabel, a); (Nolabel, b) ] )
    when cx_shaped a || cx_shaped b ->
      report ctx rule_float_eq e.pexp_loc
        (Printf.sprintf
           "polymorphic %s on Cx.t operands is NaN-unsafe; use Cx.is_zero or \
            Cx.approx"
           op)
  | Pexp_apply
      ( {
          pexp_desc =
            Pexp_ident
              {
                txt =
                  ( Longident.Lident "compare"
                  | Longident.Ldot (Longident.Lident "Stdlib", "compare") );
                _;
              };
          _;
        },
        [ (Nolabel, a); (Nolabel, b) ] )
    when float_shaped a || float_shaped b ->
      report ctx rule_float_eq e.pexp_loc
        "polymorphic compare on float operands is NaN-unsafe; use \
         Float.compare"
  | Pexp_apply
      ( {
          pexp_desc =
            Pexp_ident
              {
                txt =
                  ( Longident.Lident "compare"
                  | Longident.Ldot (Longident.Lident "Stdlib", "compare") );
                _;
              };
          _;
        },
        [ (Nolabel, a); (Nolabel, b) ] )
    when cx_shaped a || cx_shaped b ->
      report ctx rule_float_eq e.pexp_loc
        "polymorphic compare on Cx.t operands is NaN-unsafe; compare re/im \
         explicitly with Float.compare"
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* pool-purity                                                         *)

let pool_fns =
  [ "map"; "mapi"; "init"; "grid"; "grid_local"; "map_list"; "sum";
    "run_indices" ]

let is_pool_entry lid =
  match Longident.flatten lid with
  | [ "Parallel"; ("Pool" | "Sweep"); fn ] | [ ("Pool" | "Sweep"); fn ] ->
      List.mem fn pool_fns
  | _ -> false

(* Mutating (or unsynchronized-read) operations on shared structures. *)
let hashtbl_shared_fns =
  [
    "add"; "replace"; "remove"; "reset"; "clear"; "find"; "find_opt";
    "find_all"; "mem"; "iter"; "fold"; "filter_map_inplace"; "length";
  ]

let buffer_shared_fns =
  [
    "add_char"; "add_string"; "add_bytes"; "add_subbytes"; "add_substring";
    "add_buffer"; "add_channel"; "contents"; "clear"; "reset"; "truncate";
    "length"; "output_buffer";
  ]

(* Every name bound anywhere inside [e] (params, lets, match cases).
   Over-approximates lexical scope — good enough to separate task-local
   state from captured state without a full environment. *)
let bound_names e =
  let names = Hashtbl.create 16 in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun self p ->
          (match p.ppat_desc with
          | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) ->
              Hashtbl.replace names txt ()
          | _ -> ());
          Ast_iterator.default_iterator.pat self p);
    }
  in
  it.expr it e;
  names

let scan_closure ctx closure =
  let locals = bound_names closure in
  let is_local_ident e =
    match e.pexp_desc with
    | Pexp_ident { txt = Longident.Lident n; _ } -> Hashtbl.mem locals n
    | _ -> false
  in
  let ident_name e =
    match e.pexp_desc with
    | Pexp_ident { txt = Longident.Lident n; _ } -> n
    | _ -> "<expr>"
  in
  let hazard loc msg = report ctx rule_pool_purity loc msg in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          let pushed = allow_rules_of_attrs e.pexp_attributes in
          ctx.stack <- pushed :: ctx.stack;
          (match e.pexp_desc with
          | Pexp_setfield (obj, fld, _) ->
              if not (is_local_ident obj) then
                hazard e.pexp_loc
                  (Printf.sprintf
                     "write to mutable field '%s' of a value captured by a \
                      pool task races across domains"
                     (Longident.last fld.txt))
          | Pexp_apply
              ( { pexp_desc = Pexp_ident { txt = Longident.Lident ":="; _ }; _ },
                (_, lhs) :: _ ) ->
              if not (is_local_ident lhs) then
                hazard e.pexp_loc
                  (Printf.sprintf
                     "assignment to ref '%s' captured by a pool task races \
                      across domains"
                     (ident_name lhs))
          | Pexp_apply
              ( { pexp_desc = Pexp_ident { txt = Longident.Lident "!"; _ }; _ },
                [ (_, arg) ] ) ->
              if
                (match arg.pexp_desc with
                | Pexp_ident { txt = Longident.Lident _; _ } -> true
                | _ -> false)
                && not (is_local_ident arg)
              then
                hazard e.pexp_loc
                  (Printf.sprintf
                     "read of ref '%s' captured by a pool task is unsynchronized"
                     (ident_name arg))
          | Pexp_apply
              ( {
                  pexp_desc =
                    Pexp_ident { txt = Longident.Lident (("incr" | "decr") as f); _ };
                  _;
                },
                [ (_, arg) ] ) ->
              if not (is_local_ident arg) then
                hazard e.pexp_loc
                  (Printf.sprintf
                     "%s on ref '%s' captured by a pool task races across \
                      domains"
                     f (ident_name arg))
          | Pexp_apply
              ( {
                  pexp_desc =
                    Pexp_ident
                      { txt = Longident.Ldot (Longident.Lident "Hashtbl", fn); _ };
                  _;
                },
                (_, first) :: _ )
            when List.mem fn hashtbl_shared_fns ->
              if not (is_local_ident first) then
                hazard e.pexp_loc
                  (Printf.sprintf
                     "Hashtbl.%s on a table captured by a pool task is not \
                      thread-safe"
                     fn)
          | Pexp_apply
              ( {
                  pexp_desc =
                    Pexp_ident
                      { txt = Longident.Ldot (Longident.Lident "Buffer", fn); _ };
                  _;
                },
                (_, first) :: _ )
            when List.mem fn buffer_shared_fns ->
              if not (is_local_ident first) then
                hazard e.pexp_loc
                  (Printf.sprintf
                     "Buffer.%s on a buffer captured by a pool task is not \
                      thread-safe"
                     fn)
          | Pexp_apply
              ( {
                  pexp_desc =
                    Pexp_ident
                      {
                        txt =
                          Longident.Ldot
                            (Longident.Lident (("Array" | "Bytes") as m), "set");
                        _;
                      };
                  _;
                },
                (_, first) :: _ ) ->
              if not (is_local_ident first) then
                hazard e.pexp_loc
                  (Printf.sprintf
                     "%s.set on storage captured by a pool task; return \
                      results from the task and let Pool.map collect them"
                     m)
          | _ -> ());
          Ast_iterator.default_iterator.expr self e;
          ctx.stack <- List.tl ctx.stack);
    }
  in
  it.expr it closure

let check_pool_call ctx e =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
    when is_pool_entry txt ->
      List.iter
        (fun (_, arg) ->
          match arg.pexp_desc with
          | Pexp_fun _ | Pexp_function _ -> scan_closure ctx arg
          | _ -> ())
        args
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* nondeterminism                                                      *)

let nondet_paths =
  [
    ([ "Random"; "self_init" ],
     "self-seeded randomness breaks run-to-run reproducibility; use the \
      seeded Numeric.Prng");
    ([ "Random"; "State"; "make_self_init" ],
     "self-seeded randomness breaks run-to-run reproducibility; use the \
      seeded Numeric.Prng");
    ([ "Sys"; "time" ],
     "wall/CPU-clock reads make lib/ results nondeterministic; take time \
      as a parameter or annotate why it cannot leak into results");
    ([ "Unix"; "gettimeofday" ],
     "wall-clock reads make lib/ results nondeterministic; take time as a \
      parameter or annotate why it cannot leak into results");
    ([ "Unix"; "time" ],
     "wall-clock reads make lib/ results nondeterministic; take time as a \
      parameter or annotate why it cannot leak into results");
    ([ "Hashtbl"; "hash" ],
     "Hashtbl.hash output is unspecified across OCaml versions; golden \
      snapshots must not depend on it");
    ([ "Hashtbl"; "seeded_hash" ],
     "seeded Hashtbl hashing is unspecified across OCaml versions; golden \
      snapshots must not depend on it");
  ]

let check_nondet ctx e =
  if ctx.in_lib then
    match e.pexp_desc with
    | Pexp_ident { txt; _ } -> (
        let path = Longident.flatten txt in
        match List.assoc_opt path nondet_paths with
        | Some why ->
            report ctx rule_nondet e.pexp_loc
              (Printf.sprintf "%s: %s" (String.concat "." path) why)
        | None -> ())
    | _ -> ()

(* ------------------------------------------------------------------ *)
(* error-message-prefix                                                *)

(* Leftmost string literal of an error-message expression: a literal
   itself, the left arm of [lit ^ e], or a sprintf format string. *)
let rec literal_prefix e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_string (s, _, _)) -> Some s
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Longident.Lident "^"; _ }; _ },
        [ (_, l); _ ] ) ->
      literal_prefix l
  | Pexp_apply
      ( {
          pexp_desc =
            Pexp_ident
              {
                txt =
                  Longident.Ldot
                    (Longident.Lident ("Printf" | "Format"), "sprintf");
                _;
              };
          _;
        },
        (_, fmt) :: _ ) ->
      literal_prefix fmt
  | _ -> None

(* Accepts "Module.function: ..." with one or more dotted capitalized
   components followed by a lowercase function name and a colon. *)
let well_prefixed s =
  let n = String.length s in
  let is_ident c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = '\''
  in
  let ident_end i =
    let j = ref (i + 1) in
    while !j < n && is_ident s.[!j] do
      incr j
    done;
    !j
  in
  let rec component i =
    if i >= n then false
    else if s.[i] >= 'A' && s.[i] <= 'Z' then
      let j = ident_end i in
      j < n && s.[j] = '.' && after_dot (j + 1)
    else false
  and after_dot i =
    if i < n && s.[i] >= 'A' && s.[i] <= 'Z' then component i else final i
  and final i =
    if i >= n then false
    else if (s.[i] >= 'a' && s.[i] <= 'z') || s.[i] = '_' then
      let j = ident_end i in
      j < n && s.[j] = ':'
    else false
  in
  component 0

let check_prefix ctx e =
  match e.pexp_desc with
  | Pexp_apply
      ( {
          pexp_desc =
            Pexp_ident
              {
                txt =
                  ( Longident.Lident (("invalid_arg" | "failwith") as fn)
                  | Longident.Ldot
                      ( Longident.Lident "Stdlib",
                        (("invalid_arg" | "failwith") as fn) ) );
                _;
              };
          _;
        },
        (_, arg) :: _ ) -> (
      match literal_prefix arg with
      | Some s when not (well_prefixed s) ->
          report ctx rule_prefix e.pexp_loc
            (Printf.sprintf
               "%s message %S lacks the 'Module.function: ' prefix used \
                across the codebase"
               fn s)
      | _ -> ())
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* catch-all                                                           *)

(* Does [e] reference the unqualified identifier [name]? Shadowing makes
   this an over-approximation of "the binder is used", which errs toward
   silence — the right direction for a gate. *)
let uses_ident name e =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_ident { txt = Longident.Lident n; _ }
            when String.equal n name ->
              found := true
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it e;
  !found

(* [Some None] for a wildcard, [Some (Some name)] for a bare variable
   binder, [None] for anything discriminating. *)
let rec pat_catch_all p =
  match p.ppat_desc with
  | Ppat_any -> Some None
  | Ppat_var { txt; _ } -> Some (Some txt)
  | Ppat_alias (inner, { txt; _ }) -> (
      match pat_catch_all inner with Some _ -> Some (Some txt) | None -> None)
  | _ -> None

(* A handler matching every exception hides injected faults,
   Out_of_memory and genuine bugs alike. Flag [try ... with _ ->] and
   handlers whose binder the body never looks at; a guard ([when ...])
   makes the case discriminating, so guarded cases pass. *)
let check_catch_all ctx e =
  if ctx.in_lib then begin
    let check_case ~unwrap (case : case) =
      if Option.is_none case.pc_guard then
        let p = unwrap case.pc_lhs in
        match p with
        | None -> ()
        | Some p -> (
            match pat_catch_all p with
            | Some None ->
                report ctx rule_catch_all p.ppat_loc
                  "catch-all handler 'with _ ->' swallows every exception \
                   (including Out_of_memory and injected faults); match the \
                   exceptions you expect or re-raise"
            | Some (Some name) when not (uses_ident name case.pc_rhs) ->
                report ctx rule_catch_all p.ppat_loc
                  (Printf.sprintf
                     "handler binds '%s' but never uses it, silently \
                      swallowing every exception; match the exceptions you \
                      expect or re-raise"
                     name)
            | _ -> ())
    in
    match e.pexp_desc with
    | Pexp_try (_, cases) -> List.iter (check_case ~unwrap:Option.some) cases
    | Pexp_match (_, cases) ->
        List.iter
          (check_case ~unwrap:(fun p ->
               match p.ppat_desc with
               | Ppat_exception inner -> Some inner
               | _ -> None))
          cases
    | _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* raw-result-write                                                    *)

(* Result artifacts — BENCH_*.json and the golden snapshots — must be
   written through Runner.Atomic_file (temp file in the target dir +
   fsync + rename), so a crash or SIGKILL mid-write can never leave a
   torn file for CI or the test suite to consume. Flag direct
   [open_out]-family and [Out_channel] opens whose path argument is a
   string literal that is visibly such an artifact (ends in ".json" or
   mentions "golden"). Computed paths pass: the rule under-approximates
   rather than spam scratch-file writes. *)

let raw_write_fns = [ "open_out"; "open_out_bin"; "open_out_gen" ]

let out_channel_open_fns =
  [ "open_bin"; "open_text"; "open_gen"; "with_open_bin"; "with_open_text";
    "with_open_gen" ]

let raw_write_target f =
  match f.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match Longident.flatten txt with
      | [ fn ] | [ "Stdlib"; fn ] when List.mem fn raw_write_fns -> Some fn
      | [ "Out_channel"; fn ] | [ "Stdlib"; "Out_channel"; fn ]
        when List.mem fn out_channel_open_fns ->
          Some ("Out_channel." ^ fn)
      | _ -> None)
  | _ -> None

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i =
    if i + nn > nh then false
    else String.equal (String.sub hay i nn) needle || at (i + 1)
  in
  at 0

let result_artifact_path s =
  Filename.check_suffix s ".json"
  || contains_substring (String.lowercase_ascii s) "golden"

let check_raw_write ctx e =
  match e.pexp_desc with
  | Pexp_apply (f, args) -> (
      match raw_write_target f with
      | None -> ()
      | Some fn ->
          List.iter
            (fun (_, arg) ->
              match arg.pexp_desc with
              | Pexp_constant (Pconst_string (s, _, _))
                when result_artifact_path s ->
                  report ctx rule_raw_write e.pexp_loc
                    (Printf.sprintf
                       "%s %S writes a result artifact directly; route it \
                        through Runner.Atomic_file so a crash cannot leave a \
                        torn file"
                       fn s)
              | _ -> ())
            args)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* mli-coverage (filesystem side; file-level suppression honoured)     *)

let check_mli ctx =
  if ctx.in_lib && Filename.check_suffix ctx.file ".ml" then
    if not (Sys.file_exists (ctx.file ^ "i")) then
      report ctx rule_mli
        {
          Location.none with
          loc_start = { Lexing.dummy_pos with pos_lnum = 1; pos_bol = 0; pos_cnum = 0 };
        }
        (Printf.sprintf "%s has no interface; add %si to pin the public API"
           (Filename.basename ctx.file)
           (Filename.basename ctx.file))

(* ------------------------------------------------------------------ *)
(* driver over one parsed structure                                    *)

let lint_structure ctx structure =
  (* file-level [@@@lint.allow] first, so it covers the whole file *)
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_attribute a ->
          validate_allow ctx [ a ];
          ctx.file_allowed <- allow_rules_of_attrs [ a ] @ ctx.file_allowed
      | _ -> ())
    structure;
  check_mli ctx;
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          validate_allow ctx e.pexp_attributes;
          let pushed = allow_rules_of_attrs e.pexp_attributes in
          ctx.stack <- pushed :: ctx.stack;
          check_float_eq ctx e;
          check_pool_call ctx e;
          check_nondet ctx e;
          check_prefix ctx e;
          check_catch_all ctx e;
          check_raw_write ctx e;
          Ast_iterator.default_iterator.expr self e;
          ctx.stack <- List.tl ctx.stack);
      value_binding =
        (fun self vb ->
          validate_allow ctx vb.pvb_attributes;
          let pushed = allow_rules_of_attrs vb.pvb_attributes in
          ctx.stack <- pushed :: ctx.stack;
          Ast_iterator.default_iterator.value_binding self vb;
          ctx.stack <- List.tl ctx.stack);
    }
  in
  it.structure it structure;
  List.rev ctx.findings

(* Floating [@@@lint.allow] attributes of an interface file: an .mli may
   carry the suppression for its module pair (documented in DESIGN.md
   §8), so the companion .ml inherits them. *)
let interface_allows ctx (signature : signature) =
  List.concat_map
    (fun item ->
      match item.psig_desc with
      | Psig_attribute a ->
          validate_allow ctx [ a ];
          allow_rules_of_attrs [ a ]
      | _ -> [])
    signature
