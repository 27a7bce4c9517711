(* pllscope-lint — static analysis gate for the pllscope tree.

   Two tiers share one driver:

   - the untyped tier parses .ml sources (compiler-libs Parse +
     Ast_iterator) and runs the fast syntactic rules;
   - the typed tier loads the .cmt/.cmti files of the build
     (Cmt_format + Tast_iterator) and runs semantic rules over resolved
     paths and inferred types, and the export rules over a cross-unit
     reference index of every unit (Xref).

   Usage:
     pllscope_lint [--typed | --untyped] [--cmt-root DIR] [--path-root DIR]
                   [--allowlist FILE] [--baseline FILE]
                   [--write-baseline FILE] [--json] [--sarif FILE] [--hints]
                   [--lib-prefix DIR] [--list-rules] PATH...

   PATHs are .ml files or directories (recursed, sorted, hidden and
   underscore-prefixed directories skipped). Rules scoped to library
   code (mli-coverage, nondeterminism, catch-all — and the whole typed
   tier) apply to files under a --lib-prefix root (default "lib").
   A file's companion .mli may carry [@@@lint.allow] attributes that
   cover the pair. The typed tier needs --cmt-root (the build context
   root, "." when run by the dune @lint rule); files without a cmt fall
   back to untyped-only coverage. When both tiers run, the typed
   float-eq supersedes the untyped heuristic on every file it covered.

   --baseline FILE suppresses known findings ("rule path" lines) so the
   gate only fails on drift; stale entries are reported on stderr.
   --write-baseline regenerates that file from the current findings.
   --json / --sarif render machine-readable output for CI annotation.

   Exit status: 0 clean (or fully baselined), 1 findings, 2 usage or
   I/O error. *)

let usage () =
  prerr_endline
    "usage: pllscope_lint [--typed|--untyped] [--cmt-root DIR] [--path-root \
     DIR] [--allowlist FILE] [--baseline FILE] [--write-baseline FILE] \
     [--json] [--sarif FILE] [--hints] [--lib-prefix DIR] [--list-rules] \
     PATH...";
  exit 2

(* ------------------------------------------------------------------ *)
(* rule catalog: name -> description, tier, fix-it hint                *)

let hint_of_rule = function
  | "float-eq" ->
      Some
        "use Float.equal/Float.compare; Cx.is_zero/Cx.approx for complex \
         values; a type-specific equal for containers"
  | "pool-purity" ->
      Some
        "return per-task results and let the pool collect them; use \
         Sweep.grid_local for lane-owned mutable workspaces"
  | "nondeterminism" ->
      Some
        "take time as a parameter; use the seeded Numeric.Prng for \
         randomness"
  | "mli-coverage" -> Some "add a sibling .mli pinning the public API"
  | "error-message-prefix" ->
      Some "start the message with 'Module.function: '"
  | "catch-all" ->
      Some "match the exceptions you expect, or bind the exception and \
            re-raise it"
  | "raw-result-write" ->
      Some "route the write through Runner.Atomic_file (temp + fsync + \
            rename)"
  | "bad-allow" -> Some "check the rule name against --list-rules"
  | "hot-alloc" ->
      Some
        "hoist the allocation into plan/workspace construction, or justify \
         the cold path with [@lint.allow \"hot-alloc\"] and a comment"
  | "lane-escape" ->
      Some
        "keep lane state inside the task: copy scalars out of plan views \
         and return fresh data only"
  | "oracle-only" ->
      Some
        "call the _checked variant, or move this use into an \
         oracle/fallback/experiment/test module"
  | "unused-export" ->
      Some
        "delete the val from the .mli, and its definition if nothing in \
         its own unit uses it"
  | "test-only-export" ->
      Some
        "delete it with the tests that only exercise it, or keep it with \
         [@@lint.allow \"test-only-export\" \"reason\"]"
  | "ignored-result" ->
      Some
        "match on Ok/Error and decide about the degradation (count \
         fallbacks in Robust.Stats); do not drop the result"
  | _ -> None

let catalog =
  List.map (fun (n, d) -> (n, d, "untyped")) Rules.all_rules
  @ List.filter_map
      (fun (n, d) ->
        (* float-eq appears in both tiers under one id *)
        if List.mem_assoc n Rules.all_rules then None else Some ((n, d, "typed")))
      (Typed_rules.all_rules @ Xref.all_rules)

let valid_rules = List.map (fun (n, _, _) -> n) catalog

let list_rules () =
  List.iter
    (fun (name, desc, tier) ->
      Printf.printf "%-22s [%s] %s\n" name tier desc;
      match hint_of_rule name with
      | Some h -> Printf.printf "%-22s   fix: %s\n" "" h
      | None -> ())
    catalog;
  exit 0

(* ------------------------------------------------------------------ *)
(* allowlist / baseline files: lines of "rule path", '#' comments      *)

let load_pairs ~what path =
  if not (Sys.file_exists path) then (
    Printf.eprintf "pllscope_lint: %s %s not found\n" what path;
    exit 2);
  let ic = open_in path in
  let entries = ref [] in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if String.length line > 0 && line.[0] <> '#' then
         match String.index_opt line ' ' with
         | Some i ->
             let rule = String.sub line 0 i in
             let file =
               String.trim (String.sub line (i + 1) (String.length line - i - 1))
             in
             entries := (rule, file) :: !entries
         | None ->
             Printf.eprintf
               "pllscope_lint: malformed %s line (want 'rule path'): %s\n"
               what line;
             exit 2
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !entries

let pair_matches (rule, file) (f : Finding.t) =
  String.equal rule f.Finding.rule && String.equal file f.Finding.file

(* ------------------------------------------------------------------ *)
(* source collection                                                   *)

let rec collect_ml acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.fold_left
         (fun acc entry ->
           if String.length entry = 0 || entry.[0] = '.' || entry.[0] = '_' then
             acc
           else collect_ml acc (Filename.concat path entry))
         acc
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let parse_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let lexbuf = Lexing.from_channel ic in
      Location.init lexbuf path;
      Parse.implementation lexbuf)

let parse_interface path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let lexbuf = Lexing.from_channel ic in
      Location.init lexbuf path;
      Parse.interface lexbuf)

let in_lib ~lib_prefixes path =
  List.exists
    (fun p ->
      let p = if Filename.check_suffix p "/" then p else p ^ "/" in
      String.starts_with ~prefix:p path)
    lib_prefixes

(* [@@@lint.allow] attributes from the companion .mli, plus any
   bad-allow findings its attributes produced. *)
let mli_allows path =
  let mli = path ^ "i" in
  if not (Sys.file_exists mli) then ([], [])
  else
    match parse_interface mli with
    | exception _ -> ([], []) (* unparsable mli surfaces elsewhere *)
    | signature ->
        let ctx = Rules.make_ctx ~file:mli ~in_lib:false ~valid_rules () in
        let allows = Rules.interface_allows ctx signature in
        (allows, List.rev ctx.Rules.findings)

let lint_file_untyped ~lib_prefixes path =
  let extra_allowed, mli_findings = mli_allows path in
  let ctx =
    Rules.make_ctx ~file:path ~in_lib:(in_lib ~lib_prefixes path)
      ~extra_allowed ~valid_rules ()
  in
  match parse_file path with
  | structure -> mli_findings @ Rules.lint_structure ctx structure
  | exception exn ->
      let loc, msg =
        match Location.error_of_exn exn with
        | Some (`Ok e) ->
            (e.Location.main.loc, Format.asprintf "%t" e.Location.main.txt)
        | _ -> (Location.none, Printexc.to_string exn)
      in
      mli_findings
      @ [ Finding.of_loc ~file:path ~rule:"parse-error" ~message:msg loc ]

let lint_file_typed ~cmt_index ~path_root path =
  match Cmt_loader.find_cmt cmt_index path with
  | None -> None
  | Some cmt_path -> (
      match Cmt_loader.load ~path_root cmt_path with
      | None -> None
      | Some loaded ->
          let extra_allowed, _ = mli_allows path in
          let ctx = Typed_rules.make_ctx ~file:path ~extra_allowed in
          Some (Typed_rules.lint_structure ctx loaded.Cmt_loader.structure))

(* ------------------------------------------------------------------ *)
(* driver                                                              *)

type mode = Both | Typed_only | Untyped_only

let () =
  let allowlist = ref [] in
  let baseline = ref None in
  let write_baseline = ref None in
  let lib_prefixes = ref [] in
  let paths = ref [] in
  let mode = ref Both in
  let cmt_root = ref None in
  let path_root = ref "." in
  let json = ref false in
  let sarif = ref None in
  let hints = ref false in
  let rec parse_args = function
    | [] -> ()
    | "--list-rules" :: _ -> list_rules ()
    | "--typed" :: rest ->
        mode := Typed_only;
        parse_args rest
    | "--untyped" :: rest ->
        mode := Untyped_only;
        parse_args rest
    | "--json" :: rest ->
        json := true;
        parse_args rest
    | "--hints" :: rest ->
        hints := true;
        parse_args rest
    | "--sarif" :: file :: rest ->
        sarif := Some file;
        parse_args rest
    | "--cmt-root" :: dir :: rest ->
        cmt_root := Some dir;
        parse_args rest
    | "--path-root" :: dir :: rest ->
        path_root := dir;
        parse_args rest
    | "--allowlist" :: file :: rest ->
        allowlist := load_pairs ~what:"allowlist" file @ !allowlist;
        parse_args rest
    | "--baseline" :: file :: rest ->
        baseline := Some (load_pairs ~what:"baseline" file);
        parse_args rest
    | "--write-baseline" :: file :: rest ->
        write_baseline := Some file;
        parse_args rest
    | "--lib-prefix" :: dir :: rest ->
        lib_prefixes := dir :: !lib_prefixes;
        parse_args rest
    | ( "--allowlist" | "--lib-prefix" | "--cmt-root" | "--path-root"
      | "--baseline" | "--write-baseline" | "--sarif" )
      :: [] ->
        usage ()
    | arg :: _ when String.starts_with ~prefix:"-" arg -> usage ()
    | path :: rest ->
        paths := path :: !paths;
        parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  if !paths = [] then usage ();
  if !mode = Typed_only && !cmt_root = None then (
    prerr_endline "pllscope_lint: --typed requires --cmt-root DIR";
    exit 2);
  let lib_prefixes = if !lib_prefixes = [] then [ "lib" ] else !lib_prefixes in
  let files =
    List.fold_left
      (fun acc p ->
        if not (Sys.file_exists p) then (
          Printf.eprintf "pllscope_lint: no such file or directory: %s\n" p;
          exit 2);
        collect_ml acc p)
      [] (List.rev !paths)
    |> List.sort_uniq String.compare
  in
  (* untyped tier *)
  let untyped_findings =
    if !mode = Typed_only then []
    else List.concat_map (lint_file_untyped ~lib_prefixes) files
  in
  (* typed tier: library files that have a cmt under --cmt-root *)
  let typed_findings, covered =
    match (!mode, !cmt_root) with
    | Untyped_only, _ | _, None -> ([], [])
    | _, Some root ->
        let cmt_index, scanned =
          Cmt_loader.index ~cmt_root:root ~scan:Xref.scan
        in
        let xref = Xref.build scanned in
        List.fold_left
          (fun (fs, covered) file ->
            if not (in_lib ~lib_prefixes file) then (fs, covered)
            else
              let exports = Xref.check xref ~valid_rules ~mli:(file ^ "i") in
              match
                lint_file_typed ~cmt_index ~path_root:!path_root file
              with
              | None -> (exports @ fs, covered)
              | Some findings -> (exports @ findings @ fs, file :: covered))
          ([], []) files
  in
  (* the typed float-eq supersedes the untyped heuristic where it ran *)
  let untyped_findings =
    List.filter
      (fun (f : Finding.t) ->
        not
          (String.equal f.Finding.rule "float-eq"
          && List.mem f.Finding.file covered))
      untyped_findings
  in
  let findings =
    untyped_findings @ typed_findings
    |> List.filter (fun f ->
           not (List.exists (fun p -> pair_matches p f) !allowlist))
    |> List.map (fun (f : Finding.t) ->
           Finding.with_hint (hint_of_rule f.Finding.rule) f)
    |> List.sort_uniq Finding.compare
  in
  (match !write_baseline with
  | Some file ->
      let seen = Hashtbl.create 16 in
      let pairs =
        List.filter
          (fun (f : Finding.t) ->
            let key = (f.Finding.rule, f.Finding.file) in
            if Hashtbl.mem seen key then false
            else (
              Hashtbl.add seen key ();
              true))
          findings
      in
      let oc = open_out file in
      output_string oc
        "# pllscope-lint baseline — known findings the gate tolerates.\n\
         # Regenerate with --write-baseline; remove lines as debt is paid.\n";
      List.iter
        (fun (f : Finding.t) ->
          Printf.fprintf oc "%s %s\n" f.Finding.rule f.Finding.file)
        pairs;
      close_out oc;
      exit 0
  | None -> ());
  (* baseline split: drifted findings fail, matched ones are tolerated *)
  let drifted, baselined, stale =
    match !baseline with
    | None -> (findings, [], [])
    | Some entries ->
        let drifted, baselined =
          List.partition
            (fun f -> not (List.exists (fun p -> pair_matches p f) entries))
            findings
        in
        let stale =
          List.filter
            (fun p -> not (List.exists (pair_matches p) findings))
            entries
        in
        (drifted, baselined, stale)
  in
  (match !sarif with
  | Some path ->
      let rules =
        List.map (fun (n, d, _) -> (n, d, hint_of_rule n)) catalog
      in
      Sarif.write ~path ~rules drifted
  | None -> ());
  if !json then begin
    print_endline "[";
    List.iteri
      (fun i f ->
        print_string (Finding.to_json f);
        if i < List.length drifted - 1 then print_endline "," else print_newline ())
      drifted;
    print_endline "]"
  end
  else
    List.iter
      (fun f ->
        print_endline (Finding.to_string f);
        if !hints then
          match f.Finding.hint with
          | Some h -> Printf.printf "    fix: %s\n" h
          | None -> ())
      drifted;
  List.iter
    (fun (rule, file) ->
      Printf.eprintf
        "pllscope_lint: stale baseline entry (no such finding): %s %s\n" rule
        file)
    stale;
  if baselined <> [] then
    Printf.eprintf "pllscope_lint: %d finding(s) matched the baseline\n"
      (List.length baselined);
  if drifted <> [] then (
    Printf.eprintf "pllscope_lint: %d finding(s)\n" (List.length drifted);
    exit 1)
