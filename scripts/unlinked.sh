#!/usr/bin/env bash
# Usage: scripts/unlinked.sh
#
# Lists the functions of the clampi module that no binary links. Builds
# the five binaries (cmd/clampi, cmd/clampi-serve, cmd/clampi-vet,
# cmd/clampi-perfgate and bench) with inlining off (-gcflags=all=-l), so
# every function a binary calls keeps its own text symbol, and matches
# `go tool nm` of all five against every function declared outside
# _test.go files, bench/ and testdata/. A function counts from its
# signature to its closing brace. Prints the number of unlinked
# functions and their lines, then one "file:line name lines" row per
# function. Writes nothing into the checkout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
export GOPROXY=off GOTOOLCHAIN=local

# Text symbols of every binary, generic instantiations and the index of
# init functions dropped. A main package's symbols are renamed to the
# import path of its directory so the four commands do not collide.
for cmd in clampi clampi-serve clampi-vet clampi-perfgate; do
	go build -C "$root" -gcflags=all=-l -o "$tmp/$cmd.bin" "./cmd/$cmd"
	go tool nm "$tmp/$cmd.bin" | sed -nE 's/^ *[0-9a-f]+ [Tt] //p' |
		sed -E "s#^main\.#clampi/cmd/$cmd.#" >>"$tmp/syms"
done
go build -C "$root/bench" -gcflags=all=-l -o "$tmp/bench.bin" .
go tool nm "$tmp/bench.bin" | sed -nE 's/^ *[0-9a-f]+ [Tt] //p' >>"$tmp/syms"
sed -E 's/\[[^]]*\]//g; s/\.init\.[0-9]+$/.init/' "$tmp/syms" | sort -u >"$tmp/linked"

# Declared functions: "file<TAB>line<TAB>symbol<TAB>lines". gofmt puts a
# top-level func's closing brace alone in column 0, or the whole func on
# its signature line.
git -C "$root" ls-files '*.go' | grep -v -e '_test\.go$' -e '^bench/' -e '/testdata/' -e '^testdata/' |
	while read -r f; do
		dir=$(dirname "$f")
		pkg=clampi
		[ "$dir" = . ] || pkg="clampi/$dir"
		awk -v f="$f" -v pkg="$pkg" '
			function emit(end) { printf "%s\t%d\t%s\t%d\n", f, start, sym, end - start + 1; sym = "" }
			sym != "" && /^}/ { emit(NR); next }
			/^func / {
				s = $0
				sub(/^func /, "", s)
				recv = ""
				if (s ~ /^\(/) {
					recv = s
					sub(/\).*/, "", recv)
					sub(/^\(/, "", recv)
					n = split(recv, r, " ")
					recv = r[n]
					sub(/\[.*/, "", recv)
					sub(/^[^)]*\) */, "", s)
				}
				name = s
				sub(/[[(].*/, "", name)
				if (recv ~ /^\*/) sym = pkg ".(" recv ")." name
				else if (recv != "") sym = pkg "." recv "." name
				else sym = pkg "." name
				start = NR
				if ($0 ~ /}$/) emit(NR)
			}' "$root/$f"
	done >"$tmp/decls"

awk -F'\t' '
	NR == FNR { linked[$1] = 1; next }
	!($3 in linked) {
		count++
		lines += $4
		rows = rows sprintf("%s:%d %s %d\n", $1, $2, $3, $4)
	}
	END {
		printf "unlinked: %d functions / %d lines\n", count, lines
		printf "%s", rows
	}' "$tmp/linked" "$tmp/decls"
