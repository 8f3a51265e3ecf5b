#!/usr/bin/env bash
# Builds the benchmark from source, then runs it; the arguments go to it:
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Exits non-zero without a result when the build fails.
set -euo pipefail
cd "$(dirname "$0")/.."
if command -v dune >/dev/null 2>&1; then dune=(dune); else dune=(opam exec -- dune); fi
"${dune[@]}" build --root . --cache=disabled --display quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
