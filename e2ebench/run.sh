#!/usr/bin/env bash
# Build the end-to-end benchmark from this checkout's sources and run it.
#   bash e2ebench/run.sh --workload ladder|portfolio|serve --seed N --seconds S --trace 0|1
# Run from the repository root. Build output goes to stderr, so the last
# stdout line is the benchmark's JSON result.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f e2ebench/e2e.ml ]; then
  echo "e2ebench: run from the repository root (dune-project, lib/ and e2ebench/ are needed)" >&2
  exit 2
fi
# --cache=disabled: the shared build cache lives outside the checkout
dune build --root . --cache=disabled ./e2ebench/e2e.exe 1>&2
exec ./_build/default/e2ebench/e2e.exe "$@"
