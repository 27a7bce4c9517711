(* Discovery and loading of .cmt files for the typed tier.

   Dune produces a .cmt per module (it always passes -bin-annot; for an
   executable whose module has an .mli, only the check alias does),
   stored next to the object files in the library's hidden
   [.<lib>.objs/byte/] directory. We walk a --cmt-root for every
   [*.cmt] and [*.cmti] (descending into hidden directories, which the
   source-file walker deliberately skips) and index the cmts by the
   source path recorded in them, so each requested .ml file can be
   paired with its typed tree; the same pass feeds the cross-unit
   reference index (Xref).

   Environment reconstruction: cmt files store typing environments in
   summary form; [Envaux.env_of_only_summary] rebuilds them, which needs
   the compile-time load path ([cmt_loadpath]). Those entries are
   relative to the build root the compiler ran in — when the linter runs
   from a subdirectory (the fixture tests do), --path-root re-anchors
   any entry that does not resolve as written. Reconstruction failures
   are not fatal: rules degrade to the unexpanded types stored in the
   tree, which still resolve the common (non-alias) cases. *)

type loaded = {
  cmt_path : string;
  source : string;  (* path as recorded at compile time *)
  structure : Typedtree.structure;
}

let rec walk_cmts acc path =
  if not (Sys.file_exists path) then acc
  else if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.fold_left
         (fun acc entry -> walk_cmts acc (Filename.concat path entry))
         acc
  else if Filename.check_suffix path ".cmt" || Filename.check_suffix path ".cmti"
  then path :: acc
  else acc

(* Re-anchor a compile-time load-path entry against where we run from. *)
let fix_path ~path_root d =
  if d = "" || Filename.is_relative d = false || Sys.file_exists d then d
  else
    let cand = Filename.concat path_root d in
    if Sys.file_exists cand then cand else d

let load ~path_root cmt_path =
  match Cmt_format.read_cmt cmt_path with
  | exception _ -> None
  | cmt -> (
      match (cmt.Cmt_format.cmt_sourcefile, cmt.Cmt_format.cmt_annots) with
      | Some source, Cmt_format.Implementation structure ->
          let loadpath =
            List.map (fix_path ~path_root) cmt.Cmt_format.cmt_loadpath
          in
          Load_path.init ~auto_include:Load_path.no_auto_include loadpath;
          Envaux.reset_cache ();
          Some { cmt_path; source; structure }
      | _ -> None)

(* Read every .cmt and .cmti under [cmt_root] once: pair each
   implementation's recorded source with its cmt path, and keep what
   [scan] extracts from every file. [find_cmt] then pairs a requested
   source file with its cmt. The cmt records the path relative to the
   compiler's build root; the caller may have named the same file from
   a subdirectory, so fall back to suffix matching (unambiguous in
   practice: one cmt per module per tree). *)
let index ~cmt_root ~scan =
  List.fold_left
    (fun (index, scanned) p ->
      match Cmt_format.read_cmt p with
      | exception _ -> (index, scanned)
      | cmt ->
          ( (match cmt.Cmt_format.cmt_sourcefile with
            | Some src when Filename.check_suffix src ".ml" -> (src, p) :: index
            | _ -> index),
            Option.fold ~none:scanned ~some:(fun s -> s :: scanned) (scan cmt) ))
    ([], [])
    (List.rev (walk_cmts [] cmt_root))

let find_cmt index file =
  match List.assoc_opt file index with
  | Some p -> Some p
  | None ->
      let suffix = "/" ^ file in
      let matches =
        List.filter
          (fun (src, _) ->
            Filename.check_suffix src suffix
            || Filename.check_suffix file ("/" ^ src))
          index
      in
      (match matches with [ (_, p) ] -> Some p | _ -> None)

(* Reconstruct a full typing env from the summary stored in the tree;
   on failure fall back to the stored env (types already expanded at
   compile time still work, aliases may not). *)
let env_of env = try Envaux.env_of_only_summary env with _ -> env
