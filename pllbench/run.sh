#!/usr/bin/env bash
# Build the benchmark and the pllscope binary from source, then run one
# workload: bash pllbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Run from the root of the source tree. The build stays inside the tree.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --build-dir _build --display quiet ./pllbench/main.exe ./bin/pllscope.exe 1>&2
exec ./_build/default/pllbench/main.exe --pllscope ./_build/default/bin/pllscope.exe "$@"
