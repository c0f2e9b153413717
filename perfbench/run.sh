#!/usr/bin/env bash
# Builds bricsd and the perfbench driver from the source tree this script
# sits in, then runs the driver with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload query-warm --seed 1 --seconds 35 --trace 0
#
# Run it from the repository root. Every build product, Go cache and result
# file stays under .bench_build/ in that root.
set -euo pipefail

root="$(pwd)"
out="${root}/.bench_build"
if [[ ! -f "${root}/go.mod" || ! -d "${root}/cmd/bricsd" || ! -f "${root}/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (no go.mod, cmd/bricsd or perfbench/ here)" >&2
	exit 2
fi
mkdir -p "${out}/bin" "${out}/gocache" "${out}/gotmp"
export GOCACHE="${out}/gocache" GOTMPDIR="${out}/gotmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -o "${out}/bin/bricsd" ./cmd/bricsd
(cd "${root}/perfbench" && go build -o "${out}/bin/perfbench" .)
exec "${out}/bin/perfbench" -root "${root}" -bricsd "${out}/bin/bricsd" "$@"
