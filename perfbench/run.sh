#!/usr/bin/env bash
# Build the server and the benchmark from source, then run one workload.
# Usage: bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root. Build output goes to stderr so the last
# line of stdout is the result JSON.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bin/awbserve.exe ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
