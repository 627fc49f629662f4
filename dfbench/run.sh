#!/usr/bin/env bash
# Builds dfbench from this checkout's sources and runs it, passing every
# argument through, e.g.
#
#   bash dfbench/run.sh --workload bin-single-simdb --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout: the Go build cache, the binary, capture files and
# traces. The toolchain must already be installed; nothing is downloaded.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/home" "$build/gocache" "$build/gopath"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOENV=off GOWORK=off

(cd "$here" && go build -o "$build/dfbench" .)

# The revision the results belong to: git's, or a digest of the sources
# when the checkout is not a git repository.
commit="$(git -C "$root" describe --always --dirty 2>/dev/null || true)"
if [ -z "$commit" ]; then
	commit="src-$(cd "$root" && find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
fi

exec "$build/dfbench" -workdir "$build/run" -commit "$commit" "$@"
