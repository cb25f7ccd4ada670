#!/usr/bin/env bash
# unlinked.sh lists the functions declared in the root module's
# production files (non-main packages, non-test files) that no shipped
# program links. It builds every main package of the root module and of
# the benchmark module with inlining off, so an inlined callee keeps its
# symbol, collects the binaries' repro/... text symbols with go tool nm,
# and prints each declared function missing from them, then the count.
#
# Public API, test oracles and test helpers stay on the list by design.
# Anything else on it is a capability no program reaches. With --max N the
# script is a ratchet: it exits 1 when more than N functions are unlinked.
#
# Usage: scripts/unlinked.sh [--max N]   (about 10 s; needs only the Go toolchain)
set -euo pipefail
export LC_ALL=C # one collation for sort and comm

max=
case "${1:-}" in
--max)
    [[ "${2:-}" =~ ^[0-9]+$ ]] || { echo "usage: $0 [--max N]" >&2; exit 2; }
    max=$2 ;;
"") ;;
*) echo "usage: $0 [--max N]" >&2; exit 2 ;;
esac

root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/bin"

# Build every main package of a module into $work/bin.
build_mains() {
    local dir=$1 pkg
    for pkg in $(go list -C "$dir" -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...); do
        go build -C "$dir" -gcflags=all=-l -o "$work/bin/${pkg//\//_}" "$pkg"
    done
}
build_mains "$root"
build_mains "$root/benchmark"

# Linked: text symbols of the module's packages, generic instantiations
# folded to [...] the way the declarations below spell them.
for bin in "$work"/bin/*; do
    go tool nm "$bin"
done | awk '$2 == "T" && $3 ~ /^repro\// { print $3 }' |
    sed -E 's/\[.*\]/[...]/' | sort -u >"$work/linked"

# Declared: one import-path-qualified name per top-level func, spelled as
# the linker does — pkg.F, pkg.T.M, pkg.(*T).M, pkg.(*T[...]).M.
go list -C "$root" -f '{{if ne .Name "main"}}{{$p := .ImportPath}}{{range .GoFiles}}{{$p}} {{$.Dir}}/{{.}}
{{end}}{{end}}' ./... |
    while read -r pkg file; do
        sed -nE \
            -e 's/^func \([^)]*\*([A-Za-z0-9_]+)(\[[^]]*\])?\) ([A-Za-z0-9_]+).*/(*\1\2).\3/p' \
            -e 's/^func \(([A-Za-z0-9_]+ )?([A-Za-z0-9_]+)(\[[^]]*\])?\) ([A-Za-z0-9_]+).*/\2\3.\4/p' \
            -e 's/^func ([A-Za-z0-9_]+)(\[)?.*/\1\2/p' "$file" |
            sed -E -e '/^init$/d' -e 's/\[[^]]*\]/[...]/' -e 's/\[$/[...]/' \
                -e "s|^|$pkg.|"
    done | sort -u >"$work/declared"

comm -23 "$work/declared" "$work/linked" | tee "$work/unlinked"
count=$(wc -l <"$work/unlinked")
echo "unlinked: $count of $(wc -l <"$work/declared") declared functions"
if [[ -n $max && $count -gt $max ]]; then
    echo "unlinked: $count functions no binary links, more than the $max allowed" >&2
    exit 1
fi
