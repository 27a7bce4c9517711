let () =
  Printf.printf "%d %d\n" Lint_fixtures_typed.Exports.via_check_exe
    Lint_fixtures_typed.Exports.misspelt
