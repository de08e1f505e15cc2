#!/usr/bin/env bash
# Usage: scripts/textlayout.sh <rev>
#
# Compares the text layout of the bench/ binary built from the work tree
# with the one built from <rev>. The set-up of serve_small_wire,
# serve_large_wire and miss_churn_sim is a math/rand.Read of megabytes,
# and its speed depends on the 64-byte alignment of math/rand.read and
# (*rngSource).Int63: one new standard-library function linked before
# them moves both and shows up as a setup_s regression that has nothing
# to do with the change (CHANGES.md, PRs 23 and 25).
#
# Both binaries are built as bench/run.sh builds them (the caller's
# GOFLAGS, GOPROXY=off, GOTOOLCHAIN=local) in a temporary directory;
# nothing is written into the checkout. Prints both addresses of the two
# math/rand functions and the first text symbol outside clampi/ and
# main. whose address differs — separately for the standard library laid
# out before the program's own code, which a change to clampi must leave
# in place, and for the packages laid out after it, which any growth of
# clampi moves. Exits 1 if math/rand moved.
set -euo pipefail

rev=${1:?usage: scripts/textlayout.sh <rev>}
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
export GOPROXY=off GOTOOLCHAIN=local

mkdir "$tmp/rev"
git -C "$root" archive "$rev" | tar -x -C "$tmp/rev"
go build -C "$root/bench" -o "$tmp/work.bin" .
go build -C "$tmp/rev/bench" -o "$tmp/rev.bin" .

# name<TAB>address of every text symbol in address order. A name can
# repeat (runtime/cgo(.text)); the n-th occurrence is keyed name#n.
text() {
	go tool nm -n "$1" | sed -nE 's/^ *([0-9a-f]+) [Tt] (.*)$/\2\t\1/p' |
		awk -F'\t' '{ print $1 "#" (n[$1]++) "\t" $2 }'
}
text "$tmp/rev.bin" >"$tmp/rev.txt"
text "$tmp/work.bin" >"$tmp/work.txt"

echo "textlayout: work tree vs $rev ($(git -C "$root" rev-parse --short "$rev")), $(go env GOVERSION)"
moved=0
for sym in 'math/rand.read' 'math/rand.(*rngSource).Int63'; do
	a=$(awk -F'\t' -v s="$sym#0" '$1 == s { print "0x" $2 }' "$tmp/rev.txt")
	b=$(awk -F'\t' -v s="$sym#0" '$1 == s { print "0x" $2 }' "$tmp/work.txt")
	printf '  %-30s %s -> %s\n' "$sym" "${a:-absent}" "${b:-absent}"
	[ "$a" = "$b" ] || moved=1
done

# Symbols of clampi/ and main. (and the equality and instantiation
# functions generated for their types) are the change itself; packages
# are laid out in dependency order, so clampi code sits between standard
# ones and everything after the first moved clampi function moves too.
# A moved standard-library symbol ahead of that one is what to look for.
awk -F'\t' '
	function ours(k) { return k ~ /clampi[\/.]/ || k ~ /^main\./ }
	function name(k) { sub(/#[0-9]+$/, "", k); return k }
	function show(k, was) { return sprintf("%s %s -> 0x%s", name(k), was, $2) }
	NR == FNR { at[$1] = $2; next }
	{
		seen[$1] = 1
		was = ($1 in at) ? "0x" at[$1] : "(absent)"
		if (!ours($1)) total++
		if (was == "0x" $2) next
		if (!any) any = show($1, was)
		if (ours($1)) next
		n++
		if (!first) first = show($1, was)
	}
	END {
		for (k in at) if (!ours(k) && !(k in seen)) gone++
		print "  first moved text symbol:  " (any ? any : "none")
		print "  first outside clampi/ and main.: " (first ? first : "none")
		printf "  %d of %d text symbols outside clampi/ and main. moved, %d only in %s\n", n, total, gone, rev
	}' rev="$rev" "$tmp/rev.txt" "$tmp/work.txt"

if [ "$moved" = 1 ]; then
	echo "textlayout: math/rand moved: setup_s of the workloads that rand.Read their set-up is not comparable" >&2
	exit 1
fi
