#!/usr/bin/env bash
# End-to-end smoke test of the obda command on the knowledge base in this
# directory (the paper's running example): every strategy runs with
# -sql -explain on the native and on the sql backend, for the query in
# query.txt and for one with a constant. The printed statement must
# carry its WITH clause (and the constant, as a literal: a query's
# constants are bound into the plan of its template at run time), both
# backends must print the same, non-empty set of answers, and the same
# EXPLAIN estimate header (estCost=… estCard=…): they estimate a plan
# with one estimator.
#
# Usage: cmd/obda/testdata/smoke.sh path/to/obda
set -euo pipefail
obda=${1:?usage: smoke.sh path/to/obda}
dir=$(cd "$(dirname "$0")" && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
# smoke QUERY LITERAL: every strategy on both backends; LITERAL, when
# set, must appear in the printed SQL.
smoke() {
	local query=$1 literal=$2
	echo "query: $query"
	for s in ucq ucq-min uscq croot gdl-rdbms gdl-ext edl; do
		for b in native sql; do
			"$obda" -tbox "$dir/tbox.dl" -abox "$dir/abox.facts" -query "$query" \
				-strategy "$s" -backend "$b" -sql -explain >"$tmp/out" 2>"$tmp/err"
			if ! grep -q '^WITH f1 AS (SELECT' "$tmp/out"; then
				echo "$s/$b: the printed SQL has no WITH clause:" >&2
				cat "$tmp/out" >&2
				exit 1
			fi
			if [ -n "$literal" ] && ! grep -q "^WHERE .*$literal" "$tmp/out"; then
				echo "$s/$b: the printed SQL does not carry $literal:" >&2
				cat "$tmp/out" >&2
				exit 1
			fi
			# The answers are the last lines of stdout; stderr counts them.
			n=$(sed -n 's/^\([0-9][0-9]*\) answer(s)$/\1/p' "$tmp/err")
			if [ -z "$n" ] || [ "$n" -eq 0 ]; then
				echo "$s/$b: no answers" >&2
				cat "$tmp/err" >&2
				exit 1
			fi
			tail -n "$n" "$tmp/out" | sort >"$tmp/$b"
			grep '^backend=.* estCost=' "$tmp/out" | sed 's/^backend=[^ ]* //' >"$tmp/$b.est"
			if [ ! -s "$tmp/$b.est" ]; then
				echo "$s/$b: no EXPLAIN estimate header:" >&2
				cat "$tmp/out" >&2
				exit 1
			fi
		done
		if ! diff -u "$tmp/native" "$tmp/sql"; then
			echo "$s: native and sql answers differ" >&2
			exit 1
		fi
		if ! diff -u "$tmp/native.est" "$tmp/sql.est"; then
			echo "$s: native and sql estimates differ" >&2
			exit 1
		fi
		echo "$s: $(wc -l <"$tmp/native") answer(s) on both backends"
	done
}
smoke "$(cat "$dir/query.txt")" ""
smoke "Q(x) <- worksWith(x, 'Francois')" "'Francois'"
