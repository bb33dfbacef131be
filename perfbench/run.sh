#!/usr/bin/env bash
# Build the benchmark from source and run it: bash perfbench/run.sh ARGS...
# Run from the repository root; ARGS go to perfbench/main.exe.  The build
# stays in the checkout's _build (dune's shared cache is off).
set -eu
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from the root of a full source checkout (no dune-project or lib/ here)" >&2
  exit 2
fi
DUNE_CACHE=disabled exec dune exec --root . --display quiet perfbench/main.exe -- "$@"
