let use_test_only = Lint_fixtures_typed.Exports.test_only
let use_oracle = Lint_fixtures_typed.Exports.oracle
let use_no_reason = Lint_fixtures_typed.Exports.no_reason
