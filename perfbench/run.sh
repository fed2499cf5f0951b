#!/usr/bin/env bash
# Builds the benchmark harness and the ceal-serve / ceal-worker daemons from
# source, then runs the harness with the given arguments:
#
#   bash perfbench/run.sh --workload gt-build --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --compare base.jsonl --against new.jsonl
#
# Run it from the root of a checkout. Everything the build and the run write
# stays under .bench_build in the checkout.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"

# Without the program next to the harness there is nothing to build or run:
# fail before starting any go command.
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/ceal-serve" ] || [ ! -d "$root/cmd/ceal-worker" ]; then
  echo "run.sh: $root holds no ceal source tree (go.mod, cmd/ceal-serve, cmd/ceal-worker)" >&2
  exit 2
fi

# Telemetry off through its mode file: otherwise each go command may start a
# detached upload process that outlives the build.
mkdir -p "$out/bin" "$out/config/go/telemetry"
echo off >"$out/config/go/telemetry/mode"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOTELEMETRY=off GOFLAGS=-mod=readonly

(cd "$root" && go build -o "$out/bin/" ./cmd/ceal-serve ./cmd/ceal-worker) >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2

cd "$root"
exec "$out/bin/perfbench" --root "$root" --bin "$out/bin" "$@"
