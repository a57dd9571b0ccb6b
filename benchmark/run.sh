#!/usr/bin/env bash
# Build the lapis CLI and the benchmark runner from source, then run it
# from the repository root; every argument goes to the runner:
#
#   bash benchmark/run.sh --workload serve-mix --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr, so the runner's result is stdout's last
# line. The dune cache is off so the build stays inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet bin/lapis.exe benchmark/run.exe >&2
exec ./_build/default/benchmark/run.exe "$@"
