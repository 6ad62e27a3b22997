#!/usr/bin/env bash
# Builds msched and the benchmark from this checkout, then runs one workload:
#
#   bash perfbench/run.sh --workload cold_compile|serve_mix|delta_edit \
#        --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; stdout ends with the JSON result line.
set -u
cd "$(dirname "$0")/.." || exit 2
build=.bench_build
mkdir -p "$build/tmp" || exit 2
export TMPDIR="$PWD/$build/tmp" DUNE_CACHE=disabled
if ! dune build --root . --build-dir "$build" \
    ./bin/msched_cli.exe ./perfbench/main.exe 1>&2; then
  echo "perfbench: build failed" >&2
  exit 1
fi
exec "$build/default/perfbench/main.exe" \
  --server "$build/default/bin/msched_cli.exe" "$@"
