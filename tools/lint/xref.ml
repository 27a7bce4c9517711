(* The cross-unit reference index of the typed tier, and the two export
   rules built on it.

   Every .cmt under --cmt-root contributes the value paths its typed
   tree references; every .cmti contributes the vals its interface
   exports. A path is normalized to a list of module names with dune's
   wrapping undone ([Htm_core__Htm] and [Htm_core.Htm] are both
   [Htm_core; Htm]; executables are [Dune; exe; Main]), then rewritten
   through the module aliases of every unit ([module Sym =
   Symbolic.Sym_pll], dune's generated alias modules) until it names
   the module that defines the value. [open] needs no work: the
   typechecker records the resolved path. A module used whole (a
   functor argument, a packed first-class module) references all of its
   values; a reference to [M.v] where [M] has [include N] also
   references [N.v].

   Rules over the vals of each linted library .mli (nested [module M :
   sig ... end] included):
   - unused-export     no other compilation unit references it
   - test-only-export  only test units (sources under [test/]) do

   The linter's fixture corpora (sources under a [fixtures*] directory)
   are closed worlds: their units count as callers only of exports of
   the same corpus, and their test units are those under its [test/].
   Suppression is [[@@lint.allow "rule" "reason"]] on the val, or a
   floating [[@@@lint.allow "rule" "reason"]] for the whole interface;
   an allow of these rules without a reason is a bad-allow and
   suppresses nothing. *)

open Typedtree

let rule_unused_export = "unused-export"
let rule_test_only_export = "test-only-export"
let export_rules = [ rule_unused_export; rule_test_only_export ]

let all_rules =
  [
    ( rule_unused_export,
      "val of a library .mli that no other compilation unit references" );
    ( rule_test_only_export,
      "val of a library .mli referenced only by test units (allow oracles, \
       fault hooks and test seams with a reason)" );
  ]

(* "Htm_core__Htm" -> [Htm_core; Htm]; "Htm_core__" -> [Htm_core]. *)
let split_mangled name =
  let n = String.length name in
  let rec go start i acc =
    if i >= n - 1 then List.rev (String.sub name start (n - start) :: acc)
    else if name.[i] = '_' && name.[i + 1] = '_' then
      go (i + 2) (i + 2) (String.sub name start (i - start) :: acc)
    else go start (i + 1) acc
  in
  List.filter (fun s -> s <> "") (go 0 0 [])

let take k l = List.filteri (fun i _ -> i < k) l
let drop k l = List.filteri (fun i _ -> i >= k) l

type unit_refs = {
  source : string; (* as recorded at compile time *)
  refs : (string list * string) list; (* module path, value *)
  whole : string list list; (* modules used as a whole *)
  aliases : (string list * string list) list; (* module path -> target *)
  includes : (string list * string list) list; (* module path -> included *)
}

(* One pass over a unit's typed tree. Local module idents resolve
   through the aliases bound so far; a path through any other local
   module (a struct, a functor parameter) is the unit's own business.
   [prefix] is the path of the structure being walked, under which
   other units reach its aliases and includes. *)
let scan_unit ~source ~modname structure =
  let local = Hashtbl.create 16 in
  let refs = ref [] and whole = ref [] in
  let aliases = ref [] and includes = ref [] in
  let rec resolve = function
    | Path.Pident id ->
        if Ident.global id then Some (split_mangled (Ident.name id))
        else Hashtbl.find_opt local (Ident.unique_name id)
    | Path.Pdot (p, s) -> Option.map (fun m -> m @ [ s ]) (resolve p)
    | Path.Papply _ | Path.Pextra_ty _ -> None
  in
  let rec module_ident me =
    match me.mod_desc with
    | Tmod_ident (p, _) -> resolve p
    | Tmod_constraint (me, _, _, _) -> module_ident me
    | _ -> None
  in
  let bind id me =
    match (id, module_ident me) with
    | Some id, Some target ->
        Hashtbl.replace local (Ident.unique_name id) target;
        Some (Ident.name id, target)
    | _ -> None
  in
  let prefix = ref (Some modname) in
  let under name = Option.map (fun pre -> pre @ [ name ]) !prefix in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          match e.exp_desc with
          | Texp_ident (Path.Pdot (m, v), _, _) ->
              Option.iter (fun m -> refs := (m, v) :: !refs) (resolve m)
          | Texp_letmodule (id, _, _, me, body) when bind id me <> None ->
              self.expr self body
          | _ -> Tast_iterator.default_iterator.expr self e);
      structure_item =
        (fun self item ->
          match item.str_desc with
          | Tstr_module mb -> (
              match bind mb.mb_id mb.mb_expr with
              | Some (name, target) ->
                  Option.iter
                    (fun p -> aliases := (p, target) :: !aliases)
                    (under name)
              | None ->
                  let saved = !prefix in
                  prefix :=
                    Option.bind mb.mb_id (fun id -> under (Ident.name id));
                  Tast_iterator.default_iterator.structure_item self item;
                  prefix := saved)
          | Tstr_include { incl_mod; _ } -> (
              match (module_ident incl_mod, !prefix) with
              | Some target, Some pre -> includes := (pre, target) :: !includes
              | Some target, None -> whole := target :: !whole
              | None, _ ->
                  Tast_iterator.default_iterator.structure_item self item)
          | _ -> Tast_iterator.default_iterator.structure_item self item);
      (* an opened module is not used whole: each reference through it
         is recorded with its resolved path *)
      open_declaration =
        (fun self od ->
          match od.open_expr.mod_desc with
          | Tmod_ident _ -> ()
          | _ -> Tast_iterator.default_iterator.open_declaration self od);
      module_expr =
        (fun self me ->
          match me.mod_desc with
          | Tmod_ident (p, _) ->
              Option.iter (fun m -> whole := m :: !whole) (resolve p)
          | _ -> Tast_iterator.default_iterator.module_expr self me);
    }
  in
  it.structure it structure;
  { source; refs = !refs; whole = !whole; aliases = !aliases;
    includes = !includes }

type export = {
  path : string list; (* defining module, unmangled *)
  name : string;
  loc : Location.t;
  attrs : Parsetree.attributes;
}

type interface = {
  mli : string; (* as recorded at compile time *)
  exports : export list;
  floating : Parsetree.attributes; (* top-level [@@@...] *)
}

let interface_of ~mli ~modname (sg : signature) =
  let rec items path sg =
    List.concat_map
      (fun item ->
        match item.sig_desc with
        | Tsig_value vd ->
            [ { path; name = vd.val_name.txt; loc = vd.val_loc;
                attrs = vd.val_attributes } ]
        | Tsig_module
            { md_name = { txt = Some m; _ };
              md_type = { mty_desc = Tmty_signature sg; _ }; _ } ->
            items (path @ [ m ]) sg
        | _ -> [])
      sg.sig_items
  in
  let floating =
    List.filter_map
      (fun item ->
        match item.sig_desc with Tsig_attribute a -> Some a | _ -> None)
      sg.sig_items
  in
  { mli; exports = items modname sg; floating }

type scanned = Impl of unit_refs | Intf of interface

(* What one .cmt/.cmti contributes; the typed tree is not kept. *)
let scan (cmt : Cmt_format.cmt_infos) =
  let modname = split_mangled cmt.cmt_modname in
  match (cmt.cmt_sourcefile, cmt.cmt_annots) with
  | Some source, Cmt_format.Implementation str ->
      Some (Impl (scan_unit ~source ~modname str))
  | Some mli, Cmt_format.Interface sg ->
      Some (Intf (interface_of ~mli ~modname sg))
  | _ -> None

type t = {
  interfaces : (string * interface) list; (* by recorded .mli path *)
  refs : (string list * string, string list) Hashtbl.t;
      (* canonical (module, value) -> referring sources *)
  whole : (string list, string list) Hashtbl.t;
      (* canonical module -> sources using it whole *)
}

let find_all tbl key = Option.value (Hashtbl.find_opt tbl key) ~default:[]

let add_multi tbl key v =
  let prev = find_all tbl key in
  if not (List.mem v prev) then Hashtbl.replace tbl key (v :: prev)

(* Rewrite the longest aliased prefix until none is left; the fuel
   bounds a cyclic alias table. *)
let rec canon ?(fuel = 32) alias path =
  let rec longest k =
    if k = 0 || fuel = 0 then path
    else
      match Hashtbl.find_opt alias (take k path) with
      | Some target -> canon ~fuel:(fuel - 1) alias (target @ drop k path)
      | None -> longest (k - 1)
  in
  longest (List.length path)

let build scanned =
  let units = List.filter_map (function Impl u -> Some u | _ -> None) scanned in
  let alias = Hashtbl.create 256 and includes = Hashtbl.create 16 in
  List.iter
    (fun u ->
      List.iter
        (fun (from, target) ->
          if from <> target then Hashtbl.replace alias from target)
        u.aliases)
    units;
  let canon = canon alias in
  List.iter
    (fun u ->
      List.iter (fun (p, m) -> add_multi includes (canon p) (canon m)) u.includes)
    units;
  let refs = Hashtbl.create 4096 and whole = Hashtbl.create 64 in
  List.iter
    (fun u ->
      List.iter
        (fun (m, v) ->
          let m = canon m in
          List.iter
            (fun m -> add_multi refs (m, v) u.source)
            (m :: find_all includes m))
        u.refs;
      List.iter (fun m -> add_multi whole (canon m) u.source) u.whole)
    units;
  let interfaces =
    List.filter_map (function Intf i -> Some (i.mli, i) | _ -> None) scanned
  in
  { interfaces; refs; whole }

(* "test/lint/fixtures_typed/x.mli" -> Some "test/lint/fixtures_typed/" *)
let fixture_root source =
  let rec go acc = function
    | [] | [ _ ] -> None
    | d :: rest ->
        let acc = acc ^ d ^ "/" in
        if String.starts_with ~prefix:"fixtures" d then Some acc else go acc rest
  in
  go "" (String.split_on_char '/' source)

let is_test source =
  let root = Option.value (fixture_root source) ~default:"" in
  String.starts_with ~prefix:(root ^ "test/") source

(* Sources of the other units that reference [e]: by name, or by using
   its module (or an enclosing one) whole. *)
let callers t (i : interface) e =
  let own = Filename.remove_extension i.mli ^ ".ml" in
  List.init (List.length e.path) (fun k -> take (k + 1) e.path)
  |> List.concat_map (find_all t.whole)
  |> List.append (find_all t.refs (e.path, e.name))
  |> List.filter (fun src ->
         src <> own && fixture_root src = fixture_root i.mli)

let check t ~valid_rules ~mli =
  match Cmt_loader.find_cmt t.interfaces mli with
  | None -> []
  | Some i ->
      let ctx = Rules.make_ctx ~file:mli ~in_lib:false ~valid_rules () in
      (* the rules an attribute list suppresses: allows with a reason *)
      let allowed attrs =
        Rules.validate_allow ~reasoned:export_rules ctx attrs;
        List.concat_map
          (fun a ->
            if not (Rules.is_allow a) then []
            else
              match Rules.parse_allow a with
              | rules, Some _ -> rules
              | _, None -> [])
          attrs
      in
      let file_allowed = allowed i.floating in
      List.iter
        (fun e ->
          let allows = allowed e.attrs @ file_allowed in
          let report rule what =
            if not (List.mem rule allows) then
              Rules.report ctx rule e.loc
                (Printf.sprintf "val '%s' is referenced %s"
                   (String.concat "." (List.tl e.path @ [ e.name ]))
                   what)
          in
          match callers t i e with
          | [] ->
              report rule_unused_export
                "by no other compilation unit; delete it from the interface"
          | cs when List.for_all is_test cs ->
              report rule_test_only_export
                "only by tests; delete it with its tests, or allow it with \
                 the reason it stays (oracle, fault hook, test seam)"
          | _ -> ())
        i.exports;
      List.rev_map (Finding.with_tier Finding.Typed) ctx.Rules.findings
