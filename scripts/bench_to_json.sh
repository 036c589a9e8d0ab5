#!/bin/sh
# bench_to_json.sh — convert `go test -bench -benchmem` output on stdin into
# a JSON document on stdout, so the BENCH_<date>.json trajectory files are
# machine-readable. No dependencies beyond POSIX sh + awk.
#
# When a previous BENCH_*.json exists in the repository root, the document
# gains a "delta_vs" block: per-benchmark ns/op and allocs/op ratios against
# the most recent committed data point (ratio > 1 means improvement), so a
# regression is visible in the diff of the new file itself.
#
# Usage: go test -run NONE -bench ... -benchmem . | scripts/bench_to_json.sh
set -eu

date_utc=$(date -u +%Y-%m-%d)
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
# A run over uncommitted changes measures code no commit holds; say so.
if [ "$commit" != unknown ] && ! git diff --quiet HEAD 2>/dev/null; then
	commit="$commit-dirty"
fi
goversion=$(go version | awk '{print $3}')
# Most recent committed trajectory point: newest date first, and within one
# date the highest numeric rerun suffix (BENCH_<date>.json < BENCH_<date>.2
# < BENCH_<date>.3, which plain lexicographic sort gets backwards). Empty
# files are skipped so an output file pre-created by a shell redirect can
# never select itself as baseline.
prev=$(
	for f in BENCH_*.json; do
		[ -s "$f" ] || continue
		printf '%s\n' "$f"
	done 2>/dev/null | awk -F. '
	{
		suf = (NF == 3) ? $2 + 0 : 1
		if ($1 > bd || ($1 == bd && suf > bs)) { bd = $1; bs = suf; best = $0 }
	}
	END { if (best != "") print best }'
)

awk -v date="$date_utc" -v commit="$commit" -v goversion="$goversion" -v prevfile="${prev:-}" '
# First input (the previous BENCH file, if any): collect the ns/op and
# allocs/op of its "benchmarks" block, keyed by benchmark name. Works for
# both the pretty-printed and the single-line object layout.
NR == FNR && prevfile != "" {
    if (index($0, "\"benchmarks\"")) inbench = 1
    if (!inbench) next
    if (match($0, /"name": *"[^"]*"/)) {
        nm = substr($0, RSTART, RLENGTH)
        sub(/^"name": *"/, "", nm); sub(/"$/, "", nm)
    }
    if (match($0, /"ns_per_op": *[0-9.]+/)) {
        v = substr($0, RSTART, RLENGTH); sub(/^"ns_per_op": */, "", v)
        prev_ns[nm] = v
    }
    if (match($0, /"allocs_per_op": *[0-9.]+/)) {
        v = substr($0, RSTART, RLENGTH); sub(/^"allocs_per_op": */, "", v)
        prev_allocs[nm] = v
    }
    next
}
/^Benchmark/ && /ns\/op/ {
    name = $1
    sub(/-[0-9]+$/, "", name)  # strip the -GOMAXPROCS suffix
    # Benchmarks comparing the async stream disciplines spell the mode in a
    # "stream=vN" sub-benchmark component; surface it as a typed field so
    # trajectory tooling can split the series per discipline.
    stream = ""
    if (match(name, /stream=v[0-9]+/))
        stream = substr(name, RSTART + 8, RLENGTH - 8)
    iters = $2
    ns = ""; bytes = ""; allocs = ""; nsrep = ""; nsev = ""
    for (i = 3; i < NF; i++) {
        if ($(i+1) == "ns/op") ns = $i
        if ($(i+1) == "ns/rep") nsrep = $i
        if ($(i+1) == "ns/event") nsev = $i
        if ($(i+1) == "B/op") bytes = $i
        if ($(i+1) == "allocs/op") allocs = $i
    }
    if (ns == "") next
    count++
    names[count] = name; nss[count] = ns; allocss[count] = allocs
    if (count > 1) printf ","
    printf "\n    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, iters, ns
    if (stream != "") printf ", \"stream\": %s", stream
    if (nsrep != "") printf ", \"ns_per_rep\": %s", nsrep
    if (nsev != "") printf ", \"ns_per_event\": %s", nsev
    if (bytes != "") printf ", \"bytes_per_op\": %s", bytes
    if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
    printf "}"
}
BEGIN {
    printf "{\n  \"date\": \"%s\",\n  \"commit\": \"%s\",\n  \"go\": \"%s\",\n  \"benchmarks\": [", date, commit, goversion
}
END {
    printf "\n  ]"
    if (prevfile != "") {
        printf ",\n  \"delta_vs\": {\n    \"file\": \"%s\",\n    \"note\": \"ratios are previous / this run; > 1 means this run improved\",\n    \"entries\": [", prevfile
        dfirst = 0
        for (i = 1; i <= count; i++) {
            nm = names[i]
            if (!(nm in prev_ns)) continue
            if (dfirst) printf ","
            dfirst = 1
            printf "\n      {\"name\": \"%s\", \"ns_ratio\": %.2f", nm, prev_ns[nm] / nss[i]
            if (allocss[i] != "" && (nm in prev_allocs) && allocss[i] + 0 > 0)
                printf ", \"allocs_ratio\": %.2f", prev_allocs[nm] / allocss[i]
            printf "}"
        }
        printf "\n    ]\n  }"
    }
    print "\n}"
}
' ${prev:+"$prev"} -
