#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#   bash stackbench/run.sh --workload <archive|long-functions|service> \
#        --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Build outputs and the Go build cache go
# under $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -d "$root/stack" ]]; then
	echo "stackbench: $root holds no checker sources (go.mod, internal/, stack/); run from the repository root" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout.
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOENV=off GOWORK=off XDG_CONFIG_HOME="$out/config"

(cd "$root/stackbench" && go build -o "$out/stackbench" .)
exec "$out/stackbench" -root "$root" -out "$out" "$@"
