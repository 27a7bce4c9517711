(* The typed tier of pllscope-lint: rules over the Typedtree loaded
   from dune-built .cmt files (see Cmt_loader). Where the untyped tier
   (Rules) pattern-matches on name shapes, these rules see resolved
   paths and inferred types, so they catch what the heuristics provably
   miss: a float compare through a variable or alias, an allocation
   inside a kernel, a lane-owned plan leaking out of its sweep task.

   Rules:
   - float-eq      polymorphic =/<>/compare whose operand type is (or
                   contains) float or Complex.t, by actual type
   - hot-alloc     heap-allocating constructs inside [@lint.hot]
                   functions and the designated kernel hot set
   - lane-escape   Parallel.Sweep.grid_local lane state stored, returned
                   or captured by an escaping closure
   - oracle-only   dense-oracle / unchecked-kernel entry points called
                   outside oracle, fallback, experiment or test code
   - ignored-result a result from a *_checked API dropped via ignore,
                   a wildcard binding or unit sequencing

   Suppression shares the untyped grammar: [@lint.allow "rule"] on an
   expression or binding, [@@@lint.allow "rule"] for the file (in the
   .ml or its companion .mli). Attributes survive into the typedtree,
   so no source correlation is needed.

   Like the untyped tier, every rule under-approximates: cold paths
   (raise arguments, exception handlers, assertions) are exempt from
   hot-alloc, and escape analysis flags only directly visible leaks. *)

open Typedtree

let rule_float_eq = "float-eq" (* shared name: typed tier supersedes *)
let rule_hot_alloc = "hot-alloc"
let rule_lane_escape = "lane-escape"
let rule_oracle_only = "oracle-only"
let rule_ignored_result = "ignored-result"

let all_rules =
  [
    ( rule_float_eq,
      "typed: polymorphic =, <> or compare whose operands are (or \
       contain) float/Complex.t" );
    ( rule_hot_alloc,
      "heap allocation inside [@lint.hot] functions and the designated \
       kernel hot set" );
    ( rule_lane_escape,
      "Sweep.grid_local lane state stored, returned or captured by an \
       escaping closure" );
    ( rule_oracle_only,
      "dense-oracle / unchecked kernel entry points called outside \
       oracle, fallback, experiment or test modules" );
    ( rule_ignored_result,
      "result of a *_checked API dropped via ignore, '_' binding or \
       sequencing" );
  ]

type ctx = {
  file : string; (* path as given on the command line *)
  basename : string;
  mutable stack : string list list;
  mutable file_allowed : string list;
  mutable module_path : string list; (* innermost first *)
  mutable findings : Finding.t list;
}

let make_ctx ~file ~extra_allowed =
  {
    file;
    basename = Filename.basename file;
    stack = [];
    file_allowed = extra_allowed;
    module_path = [];
    findings = [];
  }

let suppressed ctx rule =
  let covers rules = List.mem rule rules || List.mem "all" rules in
  covers ctx.file_allowed || List.exists covers ctx.stack

let report ctx rule loc message =
  if not (suppressed ctx rule) then
    ctx.findings <-
      Finding.with_tier Finding.Typed
        (Finding.of_loc ~file:ctx.file ~rule ~message loc)
      :: ctx.findings

(* ------------------------------------------------------------------ *)
(* paths and types                                                     *)

let rec path_last = function
  | Path.Pident id -> Ident.name id
  | Path.Pdot (_, s) -> s
  | Path.Papply (_, p) -> path_last p
  | Path.Pextra_ty (p, _) -> path_last p

(* Dune wraps libraries: a cross-library reference resolves to the
   mangled implementation module (Htm_core__Htm). Strip the wrapper so
   rule tables can name modules the way source does. *)
let unmangle name =
  let n = String.length name in
  let rec last_sep i best =
    if i >= n - 1 then best
    else if name.[i] = '_' && name.[i + 1] = '_' then last_sep (i + 2) (i + 2)
    else last_sep (i + 1) best
  in
  match last_sep 0 0 with 0 -> name | i -> String.sub name i (n - i)

let path_prefix = function
  | Path.Pdot (p, _) -> Some (unmangle (path_last p))
  | _ -> None

let head_ident e =
  match e.exp_desc with Texp_ident (p, _, _) -> Some p | _ -> None

let is_stdlib_path p names =
  match (path_prefix p, path_last p) with
  | (Some "Stdlib" | None), last -> List.mem last names
  | _ -> false

let expand env ty = try Ctype.expand_head env ty with _ -> ty

let is_complex_path p =
  let n = Path.name p in
  String.equal n "Stdlib__Complex.t"
  || String.equal n "Complex.t"
  ||
  match (path_prefix p, path_last p) with
  | Some ("Cx" | "Complex"), "t" -> true
  | _ -> false

(* What a polymorphic comparison on [ty] would walk over. Expansion is
   depth- and cycle-bounded; declarations are inspected one level at a
   time (record fields, constructor arguments), which resolves the
   aliases and wrappers that actually occur in this tree. *)
type float_kind = Kfloat | Kcomplex | Kcontains | Kclean

let classify_type env ty =
  let rec go depth seen ty =
    if depth < 0 then Kclean
    else
      let ty = expand env ty in
      match Types.get_desc ty with
      | Types.Tconstr (p, args, _) ->
          if Path.same p Predef.path_float then Kfloat
          else if is_complex_path p then Kcomplex
          else if
            List.exists (Path.same p)
              [ Predef.path_array; Predef.path_list; Predef.path_option ]
          then contains depth seen args
          else if List.exists (Path.same p) seen then Kclean
          else
            let seen = p :: seen in
            let from_decl =
              match Env.find_type p env with
              | exception Not_found -> Kclean
              | decl -> (
                  match decl.Types.type_kind with
                  | Types.Type_record (lbls, _) ->
                      contains (depth - 1) seen
                        (List.map (fun l -> l.Types.ld_type) lbls)
                  | Types.Type_variant (cstrs, _) ->
                      contains (depth - 1) seen
                        (List.concat_map
                           (fun c ->
                             match c.Types.cd_args with
                             | Types.Cstr_tuple tys -> tys
                             | Types.Cstr_record lbls ->
                                 List.map (fun l -> l.Types.ld_type) lbls)
                           cstrs)
                  | _ -> Kclean)
            in
            if from_decl <> Kclean then downgrade from_decl
            else downgrade (contains (depth - 1) seen args)
      | Types.Ttuple tys -> downgrade (contains (depth - 1) seen tys)
      | _ -> Kclean
  and contains depth seen tys =
    List.fold_left
      (fun acc ty -> if acc <> Kclean then acc else go depth seen ty)
      Kclean tys
  and downgrade = function
    | Kclean -> Kclean
    | _ -> Kcontains (* float found below the surface *)
  in
  go 3 [] ty

(* ------------------------------------------------------------------ *)
(* float-eq (typed)                                                    *)

let check_float_eq ctx e =
  match e.exp_desc with
  | Texp_apply (head, [ (_, Some a); (_, Some b) ]) -> (
      match head_ident head with
      | Some p
        when (match (path_prefix p, path_last p) with
             | Some "Stdlib", ("=" | "<>" | "compare") -> true
             | _ -> false) -> (
          let env = Cmt_loader.env_of a.exp_env in
          let op = path_last p in
          let kind =
            match classify_type env a.exp_type with
            | Kclean -> classify_type env b.exp_type
            | k -> k
          in
          match kind with
          | Kfloat ->
              report ctx rule_float_eq e.exp_loc
                (Printf.sprintf
                   "polymorphic %s on float operands (resolved type) is \
                    NaN-unsafe; use Float.equal/Float.compare"
                   op)
          | Kcomplex ->
              report ctx rule_float_eq e.exp_loc
                (Printf.sprintf
                   "polymorphic %s on Complex.t operands (resolved type) is \
                    NaN-unsafe; use Cx.is_zero/Cx.approx or compare re/im \
                    with Float.compare"
                   op)
          | Kcontains ->
              report ctx rule_float_eq e.exp_loc
                (Printf.sprintf
                   "polymorphic %s on a type containing float components is \
                    NaN-unsafe; compare with a type-specific equal"
                   op)
          | Kclean -> ())
      | _ -> ())
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* hot-alloc                                                           *)

(* The designated hot set: (file basename, module-qualified binding).
   These are the kernels whose allocation-freedom the benchmarks in
   BENCH_kernels/BENCH_grid depend on; [@lint.hot] extends the set to
   their internals and to new kernels. An entry that names no binding
   of its file is itself a finding, so renaming or deleting a kernel
   cannot drop it from the set unnoticed. *)
let builtin_hot =
  [
    ("plan.ml", [ "eval"; "element"; "baseband" ]);
    ("smat.ml", [ "Into.scale"; "Into.add"; "Into.mul"; "Into.feedback" ]);
    ( "cmatf.ml",
      [ "gemm"; "gemv"; "gemv_herm"; "axpy"; "scale_inplace"; "add_ident";
        "lu_decompose_inplace"; "lu_solve_inplace" ] );
    ("rat.ml", [ "eval_into" ]);
  ]

let nonalloc_list_fns =
  [ "length"; "hd"; "tl"; "nth"; "iter"; "iteri"; "for_all"; "exists";
    "for_all2"; "exists2"; "mem"; "memq"; "assoc"; "assq"; "mem_assoc";
    "mem_assq"; "is_empty"; "compare_lengths"; "compare_length_with" ]

let alloc_array_fns =
  [ "make"; "create_float"; "init"; "make_matrix"; "init_matrix"; "append";
    "concat"; "sub"; "copy"; "of_list"; "to_list"; "of_seq"; "to_seq";
    "to_seqi"; "map"; "mapi"; "split"; "combine"; "stable_sort" ]

let alloc_string_fns =
  [ "make"; "init"; "sub"; "concat"; "cat"; "map"; "mapi"; "trim"; "escaped";
    "uppercase_ascii"; "lowercase_ascii"; "capitalize_ascii";
    "uncapitalize_ascii"; "split_on_char"; "to_bytes"; "of_bytes"; "to_seq";
    "of_seq" ]

let alloc_bytes_fns =
  [ "make"; "create"; "init"; "copy"; "of_string"; "to_string"; "sub";
    "extend"; "concat"; "cat" ]

let alloc_hashtbl_fns =
  [ "create"; "copy"; "add"; "replace"; "of_seq"; "to_seq"; "fold" ]

(* Head paths whose application always allocates. *)
let allocating_call p =
  let last = path_last p in
  match path_prefix p with
  | Some "Array" when List.mem last alloc_array_fns -> Some ("Array." ^ last)
  | Some "Float" when String.equal last "of_string" -> Some "Float.of_string"
  | Some "List" when not (List.mem last nonalloc_list_fns) ->
      Some ("List." ^ last)
  | Some "String" when List.mem last alloc_string_fns -> Some ("String." ^ last)
  | Some "Bytes" when List.mem last alloc_bytes_fns -> Some ("Bytes." ^ last)
  | Some "Hashtbl" when List.mem last alloc_hashtbl_fns ->
      Some ("Hashtbl." ^ last)
  | Some ("Printf" | "Format" | "Buffer" | "Seq" | "Queue" | "Stack") ->
      Some (Path.name p)
  | Some "Stdlib" | None ->
      if
        List.mem last
          [ "ref"; "^"; "@"; "string_of_int"; "string_of_float";
            "string_of_bool"; "float_of_string" ]
      then Some last
      else None
  | _ -> None

let is_raise_head p =
  is_stdlib_path p [ "raise"; "raise_notrace"; "invalid_arg"; "failwith" ]

(* Tail positions of an expression: what the enclosing function returns. *)
let rec tails e =
  match e.exp_desc with
  | Texp_let (_, _, b) -> tails b
  | Texp_sequence (_, b) -> tails b
  | Texp_ifthenelse (_, t, Some el) -> tails t @ tails el
  | Texp_ifthenelse (_, t, None) -> tails t
  | Texp_match (_, cases, _) -> List.concat_map (fun c -> tails c.c_rhs) cases
  | Texp_try (b, cases) ->
      tails b @ List.concat_map (fun c -> tails c.c_rhs) cases
  | Texp_open (_, b) -> tails b
  | Texp_letmodule (_, _, _, _, b) -> tails b
  | _ -> [ e ]

(* A let-bound ref whose every use is a direct !, :=, incr or decr is
   rewritten by the compiler into a mutable stack variable
   (Simplif.eliminate_ref) and never touches the heap. *)
let ref_init e =
  match e.exp_desc with
  | Texp_apply (head, [ (_, Some init) ])
    when (match head_ident head with
         | Some p -> is_stdlib_path p [ "ref" ]
         | None -> false) ->
      Some init
  | _ -> None

let only_ref_ops id body =
  let safe = ref true in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          match e.exp_desc with
          | Texp_apply
              ( head,
                (_, Some { exp_desc = Texp_ident (Path.Pident i, _, _); _ })
                :: rest )
            when Ident.same i id
                 && (match head_ident head with
                    | Some p -> is_stdlib_path p [ "!"; ":="; "incr"; "decr" ]
                    | None -> false) ->
              List.iter
                (function _, Some a -> self.expr self a | _ -> ())
                rest
          | Texp_ident (Path.Pident i, _, _) when Ident.same i id ->
              safe := false
          | _ -> Tast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it body;
  !safe

(* Scan one hot function body for allocating constructs. Exemptions,
   each matching what the compiler or the API contract actually does:
   - cold subtrees never run per point: raise/invalid_arg/failwith
     arguments, assertion bodies, exception handlers, and Error
     construction (the checked protocol's failure path);
   - a literal tuple scrutinee of a match is compiled as a multi-column
     match without building the tuple;
   - let-bound refs used only through !/:=/incr/decr become mutable
     stack variables (Simplif.eliminate_ref);
   - Ok of a result-typed call is the checked protocol's O(1)-per-call
     return, not per-point churn (its payload is still scanned);
   - allocation in tail position is the function's documented return
     value — hot-alloc polices the work done per point, not whether
     the API hands back a fresh result. *)
let scan_hot ctx ~fname body =
  let alloc loc what =
    report ctx rule_hot_alloc loc
      (Printf.sprintf "%s in hot function '%s' (kernel paths must not touch \
                       the heap per point)"
         what fname)
  in
  (* skip the function's own curried parameter chain, including the
     default-value lets the compiler inserts for ?(x = e) parameters *)
  let rec skip_params e =
    match e.exp_desc with
    | Texp_function { cases = [ { c_rhs; _ } ]; _ } -> skip_params c_rhs
    | Texp_let
        ( _,
          [ { vb_expr = { exp_desc = Texp_match (scrut, _, _); _ }; _ } ],
          b )
      when (match scrut.exp_desc with
           | Texp_ident (p, _, _) ->
               let n = path_last p in
               String.length n >= 5 && String.sub n 0 5 = "*opt*"
           | _ -> false) ->
        skip_params b
    | _ -> e
  in
  let body = skip_params body in
  let tail_set = tails body in
  let in_tail e = List.memq e tail_set in
  let is_result_construct e =
    match Types.get_desc (expand (Cmt_loader.env_of e.exp_env) e.exp_type) with
    | Types.Tconstr (p, _, _) ->
        String.equal (Path.name p) "result"
        || String.equal (Path.name p) "Stdlib.result"
    | _ -> false
  in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          let pushed = Rules.allow_rules_of_attrs e.exp_attributes in
          ctx.stack <- pushed :: ctx.stack;
          (let continue () = Tast_iterator.default_iterator.expr self e in
           let flag what = if not (in_tail e) then alloc e.exp_loc what in
           match e.exp_desc with
           (* cold subtrees: skip entirely *)
           | Texp_apply (head, _)
             when (match head_ident head with
                  | Some p -> is_raise_head p
                  | None -> false) ->
               ()
           | Texp_assert _ -> ()
           | Texp_try (b, _) -> self.expr self b (* handlers are cold *)
           | Texp_construct (_, cd, _) when cd.Types.cstr_name = "Error" ->
               () (* failure path of the checked protocol: cold *)
           | Texp_construct (_, cd, args)
             when cd.Types.cstr_name = "Ok" && is_result_construct e ->
               (* the checked protocol's per-call return; payload still
                  scanned *)
               List.iter (self.expr self) args
           (* a literal tuple scrutinee never allocates *)
           | Texp_match ({ exp_desc = Texp_tuple es; _ }, cases, _) ->
               List.iter (self.expr self) es;
               List.iter (fun c -> self.expr self c.c_rhs) cases
           (* eliminate_ref: a ref that stays a local mutable variable.
              Binding-level [@lint.allow] scopes over the bound
              expression, matching the untyped tier. *)
           | Texp_let (Asttypes.Nonrecursive, vbs, b) ->
               List.iter
                 (fun vb ->
                   let vb_pushed =
                     Rules.allow_rules_of_attrs vb.vb_attributes
                   in
                   ctx.stack <- vb_pushed :: ctx.stack;
                   (match (vb.vb_pat.pat_desc, ref_init vb.vb_expr) with
                   | Tpat_var (id, _), Some init when only_ref_ops id b ->
                       self.expr self init
                   | _ -> self.expr self vb.vb_expr);
                   ctx.stack <- List.tl ctx.stack)
                 vbs;
               self.expr self b
           (* allocating constructs *)
           | Texp_function _ ->
               flag "closure allocation";
               (* one closure per curried chain, not one per parameter *)
               self.expr self (skip_params e)
           | Texp_tuple _ ->
               flag "tuple allocation";
               continue ()
           | Texp_construct (_, cd, _ :: _) ->
               flag
                 (Printf.sprintf "constructor '%s' allocation"
                    cd.Types.cstr_name);
               continue ()
           | Texp_variant (_, Some _) ->
               flag "polymorphic-variant allocation";
               continue ()
           | Texp_record _ ->
               flag "record allocation";
               continue ()
           | Texp_array (_ :: _) ->
               flag "array literal allocation";
               continue ()
           | Texp_lazy _ ->
               flag "lazy-block allocation";
               continue ()
           | Texp_letop _ ->
               flag "binding-operator closure allocation";
               continue ()
           | Texp_object _ | Texp_new _ | Texp_pack _ ->
               flag "object/module allocation";
               continue ()
           | Texp_apply (head, _) ->
               (match head_ident head with
               | Some p -> (
                   match allocating_call p with
                   | Some name -> flag (name ^ " allocates")
                   | None -> ())
               | None -> ());
               (* partial application materializes a closure *)
               let env = Cmt_loader.env_of e.exp_env in
               (match Types.get_desc (expand env e.exp_type) with
               | Types.Tarrow _ ->
                   flag "partial application (closure allocation)"
               | Types.Tconstr (p, _, _) when is_complex_path p ->
                   flag "boxed Complex.t result allocation"
               | _ -> ());
               continue ()
           | _ -> continue ());
          ctx.stack <- List.tl ctx.stack);
    }
  in
  it.expr it body

(* ------------------------------------------------------------------ *)
(* lane-escape                                                         *)

let rec pat_idents : type k. k general_pattern -> Ident.t list =
 fun p ->
  match p.pat_desc with
  | Tpat_var (id, _) -> [ id ]
  | Tpat_alias (inner, id, _) -> id :: pat_idents inner
  | Tpat_tuple ps | Tpat_array ps -> List.concat_map pat_idents ps
  | Tpat_construct (_, _, ps, _) -> List.concat_map pat_idents ps
  | Tpat_variant (_, Some inner, _) -> pat_idents inner
  | Tpat_record (fields, _) ->
      List.concat_map (fun (_, _, p) -> pat_idents p) fields
  | Tpat_lazy inner -> pat_idents inner
  | Tpat_or (a, b, _) -> pat_idents a @ pat_idents b
  | Tpat_value v -> pat_idents (v :> value general_pattern)
  | Tpat_exception inner -> pat_idents inner
  | _ -> []

let mentions_ident ids e =
  let found = ref false in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_ident (Path.Pident id, _, _)
            when List.exists (Ident.same id) ids ->
              found := true
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it e;
  !found

(* Does the lane ident appear *as a value* in this expression — the
   expression is the ident itself, or a tuple/constructor/record/array
   immediately packaging it? (An application that merely reads the lane
   state is fine: its result is fresh data.) *)
let rec packages_ident ids e =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> List.exists (Ident.same id) ids
  | Texp_tuple es | Texp_array es | Texp_construct (_, _, es) ->
      List.exists (packages_ident ids) es
  | Texp_variant (_, Some inner) -> packages_ident ids inner
  | Texp_record { fields; extended_expression; _ } ->
      Array.exists
        (function
          | _, Overridden (_, e) -> packages_ident ids e
          | _, Kept _ -> false)
        fields
      || (match extended_expression with
         | Some e -> packages_ident ids e
         | None -> false)
  | _ -> false

let is_grid_local_head ctx p =
  String.equal (path_last p) "grid_local"
  && (match path_prefix p with
     | Some "Sweep" -> true
     | _ -> String.equal ctx.basename "sweep.ml")

let scan_lane ctx callback =
  match callback.exp_desc with
  | Texp_function { cases = [ { c_lhs; c_rhs; _ } ]; _ } ->
      let lane = pat_idents c_lhs in
      if lane = [] then ()
      else begin
        let leak loc what =
          report ctx rule_lane_escape loc
            (Printf.sprintf
               "%s: lane state from Sweep.grid_local is owned by one task at \
                a time and must not outlive it"
               what)
        in
        (* the point parameter's function node is the legit curried
           continuation, everything nested deeper is scanned *)
        let body =
          match c_rhs.exp_desc with
          | Texp_function { cases = [ { c_rhs = inner; _ } ]; _ } -> inner
          | _ -> c_rhs
        in
        (* stored through a mutable cell? *)
        let it =
          {
            Tast_iterator.default_iterator with
            expr =
              (fun self e ->
                let pushed = Rules.allow_rules_of_attrs e.exp_attributes in
                ctx.stack <- pushed :: ctx.stack;
                (match e.exp_desc with
                | Texp_apply (head, args) -> (
                    match head_ident head with
                    | Some p when is_stdlib_path p [ "ref" ] -> (
                        match args with
                        | [ (_, Some v) ] when mentions_ident lane v ->
                            leak e.exp_loc "lane state stored in a ref"
                        | _ -> ())
                    | Some p when is_stdlib_path p [ ":=" ] -> (
                        match args with
                        | [ _; (_, Some v) ] when mentions_ident lane v ->
                            leak e.exp_loc
                              "lane state assigned to a captured ref"
                        | _ -> ())
                    | Some p
                      when (match (path_prefix p, path_last p) with
                           | Some ("Array" | "Hashtbl"), ("set" | "add" | "replace")
                             -> true
                           | _ -> false) -> (
                        match List.rev args with
                        | (_, Some v) :: _ when mentions_ident lane v ->
                            leak e.exp_loc
                              (Printf.sprintf
                                 "lane state stored via %s" (Path.name p))
                        | _ -> ())
                    | _ -> ())
                | Texp_setfield (_, _, _, v) when mentions_ident lane v ->
                    leak e.exp_loc "lane state stored in a mutable field"
                | _ -> ());
                Tast_iterator.default_iterator.expr self e;
                ctx.stack <- List.tl ctx.stack);
          }
        in
        it.expr it body;
        (* returned from the task, or captured by a returned closure? *)
        List.iter
          (fun t ->
            if packages_ident lane t then
              leak t.exp_loc "lane state returned from the task"
            else
              match t.exp_desc with
              | Texp_function _ when mentions_ident lane t ->
                  leak t.exp_loc
                    "closure capturing lane state returned from the task"
              | _ -> ())
          (tails body)
      end
  | _ -> ()

let check_lane_escape ctx e =
  match e.exp_desc with
  | Texp_apply (head, args) -> (
      match head_ident head with
      | Some p when is_grid_local_head ctx p ->
          List.iter
            (fun (label, arg) ->
              match (label, arg) with
              | Asttypes.Nolabel, Some ({ exp_desc = Texp_function _; _ } as f)
                ->
                  scan_lane ctx f
              | _ -> ())
            args
      | _ -> ())
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* oracle-only                                                         *)

(* (module, function) -> basenames of the modules that define or are
   the sanctioned consumers of the entry point. *)
let oracle_apis =
  [
    (("Htm", "to_matrix_dense"), [ "htm.ml"; "htm_expr.ml" ]);
    (("Htm_expr", "to_matrix_dense"), [ "htm.ml"; "htm_expr.ml" ]);
    (* the raw LU pair: library code factors through the checked
       variants (Cmatf.lu_decompose_checked / lu_solve_checked) *)
    (("Cmatf", "lu_decompose_inplace"), [ "cmatf.ml" ]);
    (("Cmatf", "lu_solve_inplace"), [ "cmatf.ml" ]);
  ]

let oracle_caller_exempt basename =
  (* oracle, fallback, cross-check and measurement modules may use the
     dense/unchecked paths; the typed tier only scans lib/, so tests and
     bench are exempt by scope. *)
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
    at 0
  in
  contains basename "oracle" || contains basename "fallback"
  || contains basename "xchk"
  || String.length basename > 4
     && String.equal (String.sub basename 0 4) "exp_"

let check_oracle_only ctx e =
  match e.exp_desc with
  | Texp_apply (head, _) -> (
      match head_ident head with
      | Some p -> (
          match (path_prefix p, path_last p) with
          | Some m, f -> (
              match List.assoc_opt (m, f) oracle_apis with
              | Some definers
                when not
                       (List.mem ctx.basename definers
                       || oracle_caller_exempt ctx.basename) ->
                  report ctx rule_oracle_only e.exp_loc
                    (Printf.sprintf
                       "%s.%s is an oracle/unchecked entry point; call the \
                        checked variant here, or move this use into an \
                        oracle/fallback/test module"
                       m f)
              | _ -> ())
          | _ -> ())
      | None -> ())
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* ignored-result                                                      *)

let is_result_ty env ty =
  match Types.get_desc (expand env ty) with
  | Types.Tconstr (p, _, _) ->
      String.equal (Path.name p) "result"
      || String.equal (Path.name p) "Stdlib.result"
  | _ -> false

let checked_result_call e =
  match e.exp_desc with
  | Texp_apply (head, _) -> (
      match head_ident head with
      | Some p ->
          let last = path_last p in
          let n = String.length last in
          if n > 8 && String.equal (String.sub last (n - 8) 8) "_checked" then
            if is_result_ty (Cmt_loader.env_of e.exp_env) e.exp_type then
              Some (Path.name p)
            else None
          else None
      | None -> None)
  | _ -> None

(* The allow may sit on the checked call itself, which has not been
   visited yet when the enclosing ignore/sequence is checked — scope its
   own attributes in before reporting. *)
let report_ignored ctx call api how =
  let pushed = Rules.allow_rules_of_attrs call.exp_attributes in
  ctx.stack <- pushed :: ctx.stack;
  report ctx rule_ignored_result call.exp_loc
    (Printf.sprintf
       "result of %s is dropped %s; a checked API's Error carries the \
        degradation the caller must decide about — match on it or propagate"
       api how);
  ctx.stack <- List.tl ctx.stack

let check_ignored_result ctx e =
  match e.exp_desc with
  | Texp_apply (head, [ (_, Some arg) ])
    when (match head_ident head with
         | Some p -> is_stdlib_path p [ "ignore" ]
         | None -> false) -> (
      match checked_result_call arg with
      | Some api -> report_ignored ctx arg api "via ignore"
      | None -> ())
  | Texp_sequence (e1, _) -> (
      match checked_result_call e1 with
      | Some api -> report_ignored ctx e1 api "by unit sequencing"
      | None -> ())
  | _ -> ()

let check_ignored_binding ctx vb =
  let discarded =
    match vb.vb_pat.pat_desc with
    | Tpat_any -> true
    | Tpat_var (id, _) ->
        let n = Ident.name id in
        String.length n > 0 && n.[0] = '_'
    | _ -> false
  in
  if discarded then
    match checked_result_call vb.vb_expr with
    | Some api -> report_ignored ctx vb.vb_expr api "by a wildcard binding"
    | None -> ()

(* ------------------------------------------------------------------ *)
(* driver over one typed structure                                     *)

let hot_attr attrs =
  List.exists
    (fun (a : Parsetree.attribute) ->
      String.equal a.attr_name.txt "lint.hot")
    attrs

let binding_name vb =
  match vb.vb_pat.pat_desc with
  | Tpat_var (id, _) -> Some (Ident.name id)
  | _ -> None

let qualified ctx name =
  String.concat "." (List.rev (name :: ctx.module_path))

let hot_set ctx =
  Option.value (List.assoc_opt ctx.basename builtin_hot) ~default:[]

let report_missing_hot ctx ~seen =
  List.iter
    (fun name ->
      if not (List.mem name seen || suppressed ctx rule_hot_alloc) then
        ctx.findings <-
          Finding.with_tier Finding.Typed
            (Finding.make ~file:ctx.file ~line:1 ~col:0 ~rule:rule_hot_alloc
               ~message:
                 (Printf.sprintf
                    "hot-set entry '%s' names no binding in %s: rename or \
                     drop it with the kernel, or the kernel leaves hot-alloc \
                     coverage"
                    name ctx.basename))
          :: ctx.findings)
    (hot_set ctx)

let lint_structure ctx structure =
  let seen = ref [] in
  (* file-level [@@@lint.allow] attributes cover the whole file *)
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_attribute a ->
          ctx.file_allowed <-
            Rules.allow_rules_of_attrs [ a ] @ ctx.file_allowed
      | _ -> ())
    structure.str_items;
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          let pushed = Rules.allow_rules_of_attrs e.exp_attributes in
          ctx.stack <- pushed :: ctx.stack;
          check_float_eq ctx e;
          check_lane_escape ctx e;
          check_oracle_only ctx e;
          check_ignored_result ctx e;
          Tast_iterator.default_iterator.expr self e;
          ctx.stack <- List.tl ctx.stack);
      value_binding =
        (fun self vb ->
          let pushed = Rules.allow_rules_of_attrs vb.vb_attributes in
          ctx.stack <- pushed :: ctx.stack;
          check_ignored_binding ctx vb;
          (match binding_name vb with
          | Some name ->
              let q = qualified ctx name in
              let builtin = List.mem q (hot_set ctx) in
              if builtin then seen := q :: !seen;
              if hot_attr vb.vb_attributes || builtin then
                scan_hot ctx ~fname:q vb.vb_expr
          | None -> ());
          Tast_iterator.default_iterator.value_binding self vb;
          ctx.stack <- List.tl ctx.stack);
      structure_item =
        (fun self item ->
          match item.str_desc with
          | Tstr_module mb ->
              let name =
                match mb.mb_id with Some id -> Ident.name id | None -> "_"
              in
              ctx.module_path <- name :: ctx.module_path;
              Tast_iterator.default_iterator.structure_item self item;
              ctx.module_path <- List.tl ctx.module_path
          | _ -> Tast_iterator.default_iterator.structure_item self item);
    }
  in
  it.structure it structure;
  report_missing_hot ctx ~seen:!seen;
  List.rev ctx.findings
