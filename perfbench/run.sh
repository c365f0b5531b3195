#!/bin/sh
# Builds the benchmark driver from this checkout, then runs it:
#   sh perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Build output goes to stderr; the driver's last stdout line is the
# result JSON.  The shared dune cache is off so that the build reads and
# writes only inside this checkout.  See perfbench/README.md.
set -e
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled ./perfbench/perf.exe 1>&2
exec ./_build/default/perfbench/perf.exe "$@"
