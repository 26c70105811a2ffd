#!/usr/bin/env bash
# Renders `go test -bench` output as a BENCH_<n>.json artifact, one
# schema for every leg: an array of
#   {"name": ..., "iterations": N, "<unit>": value, ...}
# with one member per `value unit` pair of the benchmark line, keyed by
# the unit exactly as the benchmark printed it (ns/op, B/op, allocs/op,
# qps, p99_us, ...), so a benchmark that reports a new unit needs no
# change here.
#
#   .github/render-bench.sh bench5.txt BENCH_5.json
set -euo pipefail
awk 'BEGIN { print "["; first = 1 }
/^Benchmark/ {
  rec = sprintf("{\"name\":\"%s\",\"iterations\":%s", $1, $2)
  for (i = 3; i < NF; i += 2) rec = rec sprintf(",\"%s\":%s", $(i+1), $i)
  if (!first) print ","
  printf "  %s}", rec; first = 0
}
END { print "\n]" }' "$1" > "$2"
jq empty "$2"
jq length "$2"
