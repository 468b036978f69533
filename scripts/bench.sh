#!/bin/sh
# bench.sh — run the benchmarks and emit BENCH_pipeline.json plus
# BENCH_server.json.
#
# Part 1 (BENCH_pipeline.json) compares per-call Op with and without the
# cost memos (BenchmarkOpSchedUncached / BenchmarkOpSchedCached):
#   single_call_uncached : per-call Op with both memo layers — the
#                          scheduler memo and the accelerator's cost
#                          units — cleared before every call (the
#                          pre-memoization baseline)
#   single_call_cached   : per-call Op with the memos serving (default)
#
# plus the two execution modes of the functional hot loop on an 8 Mbit AND
# (see DESIGN.md "Execution modes"):
#   fastpath             : compiled word-level kernels (default)
#   fallback             : command-accurate device model (the engine
#                          installed with Accelerator.SetExecutor)
#
# Each benchmark runs 8 times (go test -count 8), since single runs move
# by tens of percent on a shared host. Every ns/op field is the median of
# the 8 runs, with their spread beside it as <field>_min and <field>_max;
# cache_speedup_per_call and fastpath_speedup are ratios of medians.
#
# When the output file already exists, its previous values are echoed as a
# before/after delta so regressions are visible at a glance.
#
# Part 2 (BENCH_server.json) drives an in-process elpd with elpload's
# mixed concurrent workload and records achieved QPS, latency
# percentiles, and the server's admission counters (rejections, expired
# deadlines, executed ops).
#
# Part 3 (BENCH_shards.json) sweeps elpload's BulkAND workload (-mix
# and=1) over shard counts and records, per point, the wall-clock
# achieved_qps, p99 latency, and modeled_qps — completed ops divided by
# the modeled hardware makespan (MAX over per-shard modeled busy times).
# modeled_qps is the scaling metric: shards model concurrently executing
# ranks, so it scales with the shard count even when the host has fewer
# cores than shards and wall-clock throughput cannot (see EXPERIMENTS.md
# "Reading BENCH_shards.json").
#
# Part 4 (BENCH_wire.json) compares the two serving protocols — HTTP/JSON
# vs elpwire (internal/wire, length-prefixed binary frames over persistent
# multiplexed connections) — two ways: the in-process round-trip
# microbenchmarks (BenchmarkWireOp / BenchmarkJSONOp, ns/op and allocs/op)
# and an elpload sweep running the same mixed workload through each
# protocol at several shard counts, recording achieved_qps and p99 per
# point plus the wire/json throughput ratio and the response coalescer's
# flush stats (wire_flushes, wire_frames_per_flush — frames-per-flush
# above 1 means loaded connections amortize write syscalls via writev).
#
# Every emitted file carries a "host" block (go version, CPU count,
# GOMAXPROCS) so wall-clock numbers are interpretable across machines.
#
# Part 5 (BENCH_eval.json) sweeps BenchmarkEvalDAG: one expression DAG
# per depth (1..6), evaluated over 1 Mbit operands on the fused tier into
# one reused result vector, recording ns/op and the fused passes per
# block at each depth, and the headline depth-4 pass count (see
# EXPERIMENTS.md "Reading BENCH_eval.json").
#
# Part 6 (BENCH_vertical.json) sweeps BenchmarkVerticalArith: the six
# vertical k-bit µPrograms arith_wire serves (add, sub, lt, eq,
# popcount, select) over 1M elements at its widths 8/16/32 on the fused
# tier, each iteration recycling its result as elpd does, with the step
# count, the program's fused passes per block, its modeled DRAM latency,
# B/op and allocs/op, plus the transpose engine's
# slice/unslice ns/elem at widths 1/8/32 (BenchmarkVerticalTranspose) —
# the bit-serial arithmetic cost curve (see EXPERIMENTS.md "Reading
# BENCH_vertical.json"). As in Part 1, each benchmark runs 8 times and
# every measured field is the median with its _min/_max spread.
#
# Part 7 (BENCH_query.json) drives elpload's bitmap-index query workload
# (-query: boolean predicates over per-client namespaces through
# POST /v1/query, Zipfian index popularity, mixed count/positions/bits
# result modes, every response verified against a host oracle) at
# shards {1, 4}, recording achieved_qps, p99, modeled_qps, and the
# server's fusion_hits / fusion_fallbacks counters per point (see
# EXPERIMENTS.md "Reading BENCH_query.json").
#
# Usage: scripts/bench.sh [output.json]
#   BENCHTIME        go test -benchtime value (default 200x)
#   EVAL_BENCHTIME   part-5 -benchtime value (default 1000x — eval
#                    latencies are ~0.1 ms, so long runs stay cheap and
#                    average out allocator/GC phase noise)
#   VERT_BENCHTIME   part-6 -benchtime value (default 100x — 1M-element
#                    operands make single runs ~1-5 ms)
#   SERVER_CLIENTS   elpload concurrent clients (default 64)
#   SERVER_DURATION  elpload load duration (default 2s)
#   SERVER_BITS      elpload operand length in bits (default 65536)
#   SHARD_COUNTS     part-3 sweep points (default "1 2 4")
#   SHARD_CLIENTS    part-3 concurrent clients (default 32)
#   SHARD_DURATION   part-3 load duration per point (default 2s)
#   WIRE_SHARDS      part-4 sweep points (default "1 2 4")
#   WIRE_CLIENTS     part-4 concurrent clients (default 64)
#   WIRE_DURATION    part-4 load duration per point+protocol (default 2s)
#   WIRE_BITS        part-4 operand length in bits (default 4096 — small
#                    operands so serialization/transport cost dominates
#                    over the accelerator compute both protocols share;
#                    that is the quantity part 4 measures)
#   QUERY_SHARDS     part-7 sweep points (default "1 4")
#   QUERY_CLIENTS    part-7 concurrent clients (default 32)
#   QUERY_DURATION   part-7 load duration per point (default 2s)
#   QUERY_BITS       part-7 index universe in bits (default 65536)
set -eu

cd "$(dirname "$0")/.."
out="${1:-BENCH_pipeline.json}"
benchtime="${BENCHTIME:-200x}"

# Host context, embedded in every emitted BENCH_*.json so wall-clock
# numbers stay interpretable across machines (e.g. a flat QPS-vs-shards
# curve on a 1-core runner). elpload embeds the same block itself
# (Report.Host); these values cover the awk-assembled files.
host_go=$(go env GOVERSION)
host_ncpu=$(getconf _NPROCESSORS_ONLN 2>/dev/null || nproc 2>/dev/null || echo 1)
host_maxprocs="${GOMAXPROCS:-$host_ncpu}"
host_json="\"host\": {\"go_version\": \"${host_go}\", \"num_cpu\": ${host_ncpu}, \"gomaxprocs\": ${host_maxprocs}}"

prev=""
if [ -f "$out" ]; then
	prev=$(cat "$out")
fi

raw=$(go test -run '^$' \
	-bench 'BenchmarkOpSched(Uncached|Cached)$|BenchmarkAcceleratorBulkAND(Fallback)?$' \
	-benchtime "$benchtime" -count 8 -benchmem .)
printf '%s\n' "$raw" >&2

# Benchmark names print with a -GOMAXPROCS suffix on multi-core machines
# (e.g. ...BulkAND-8) and bare otherwise, so the AND / ANDFallback pair
# must be anchored through the end of the name to avoid a prefix collision.
printf '%s\n' "$raw" | awk -v out="$out" -v host="$host_json" -v count=8 '
/^BenchmarkOpSchedUncached/                          { v["uncached", ++n["uncached"]] = $3 }
/^BenchmarkOpSchedCached/                            { v["cached", ++n["cached"]] = $3 }
/^BenchmarkAcceleratorBulkAND(-[0-9]+)?[ \t]/         { v["fastpath", ++n["fastpath"]] = $3 }
/^BenchmarkAcceleratorBulkANDFallback(-[0-9]+)?[ \t]/ { v["fallback", ++n["fallback"]] = $3 }
# num renders a value as an integer when it is one.
function num(x) { return x == int(x) ? sprintf("%d", x) : sprintf("%.1f", x) }
# emit writes the median, min and max of key under name, and keeps the
# median.
function emit(name, key,   a, i, j, k, t) {
	k = n[key]
	for (i = 1; i <= k; i++) a[i] = v[key, i] + 0
	for (i = 2; i <= k; i++) {
		t = a[i]
		for (j = i - 1; j >= 1 && a[j] > t; j--) a[j+1] = a[j]
		a[j+1] = t
	}
	med[key] = k % 2 ? a[(k+1)/2] : (a[k/2] + a[k/2+1]) / 2
	printf "  \"%s\": %s,\n", name, num(med[key]) > out
	printf "  \"%s_min\": %s,\n", name, num(a[1]) > out
	printf "  \"%s_max\": %s,\n", name, num(a[k]) > out
}
END {
	if (n["uncached"] != count || n["cached"] != count || n["fastpath"] != count || n["fallback"] != count) {
		print "bench.sh: missing benchmark output" > "/dev/stderr"
		exit 1
	}
	printf "{\n" > out
	printf "  %s,\n", host > out
	printf "  \"benchtime\": \"%s\",\n", ENVIRON["BENCHTIME"] != "" ? ENVIRON["BENCHTIME"] : "200x" > out
	printf "  \"count\": %d,\n", count > out
	emit("single_call_uncached_ns_op", "uncached")
	emit("single_call_cached_ns_op", "cached")
	printf "  \"cache_speedup_per_call\": %.2f,\n", med["uncached"] / med["cached"] > out
	emit("fastpath_ns_op", "fastpath")
	emit("fallback_ns_op", "fallback")
	printf "  \"fastpath_speedup\": %.2f\n", med["fallback"] / med["fastpath"] > out
	printf "}\n" > out
}
'
echo "wrote $out" >&2
cat "$out"

if [ -n "$prev" ]; then
	echo "bench.sh: delta vs previous $out (before -> after):" >&2
	prev_tmp=$(mktemp)
	printf '%s\n' "$prev" >"$prev_tmp"
	awk -F'[:,]' '
		NR == FNR { key = $1; val = $2; gsub(/[ "]/, "", key); gsub(/ /, "", val)
		            if (key != "" && val ~ /^-?[0-9.]+$/) prev[key] = val; next }
		{ key = $1; val = $2; gsub(/[ "]/, "", key); gsub(/ /, "", val)
		  if (key in prev && val ~ /^-?[0-9.]+$/)
		      printf "  %-28s %12s -> %s\n", key, prev[key], val }
	' "$prev_tmp" "$out" >&2
	rm -f "$prev_tmp"
fi

# Part 2: the PIM-as-a-service trajectory point. elpload with no -addr
# spawns an in-process server, drives the mixed op workload, verifies
# every Nth result client-side, and prints the report JSON on stdout.
server_out="BENCH_server.json"
server_clients="${SERVER_CLIENTS:-64}"
server_duration="${SERVER_DURATION:-2s}"
server_bits="${SERVER_BITS:-65536}"
echo "bench.sh: driving in-process elpd (${server_clients} clients, ${server_duration})" >&2
go run ./cmd/elpload \
	-clients "$server_clients" \
	-duration "$server_duration" \
	-bits "$server_bits" \
	>"$server_out"
echo "wrote $server_out" >&2
cat "$server_out"

# Part 3: throughput vs shard count on the BulkAND workload. Each point
# self-spawns a server with -shards n; the JSON keeps wall-clock and
# modeled throughput side by side (only the latter can scale on a host
# with fewer cores than shards).
shards_out="BENCH_shards.json"
shard_counts="${SHARD_COUNTS:-1 2 4}"
shard_clients="${SHARD_CLIENTS:-32}"
shard_duration="${SHARD_DURATION:-2s}"
tmp_dir=$(mktemp -d)
trap 'rm -rf "$tmp_dir"' EXIT
points=""
for n in $shard_counts; do
	echo "bench.sh: elpload BulkAND sweep, $n shard(s) (${shard_clients} clients, ${shard_duration})" >&2
	go run ./cmd/elpload \
		-shards "$n" \
		-mix and=1 \
		-clients "$shard_clients" \
		-duration "$shard_duration" \
		-bits "$server_bits" \
		>"$tmp_dir/shard_$n.json"
	vals=$(awk -F'[:,]' '
		/"achieved_qps"/            { a = $2; gsub(/ /, "", a) }
		/"modeled_qps"/             { m = $2; gsub(/ /, "", m) }
		/"p99"/ && !p99done         { p = $2; gsub(/ /, "", p); p99done = 1 }
		END { print a, p, m }' "$tmp_dir/shard_$n.json")
	points="$points$n $vals
"
done
printf '%s' "$points" | awk -v out="$shards_out" -v host="$host_json" \
	-v clients="$shard_clients" -v duration="$shard_duration" '
{ n[NR] = $1; a[NR] = $2; p[NR] = $3; m[NR] = $4 }
END {
	if (NR < 2 || m[1] == "" || m[NR] == "" || m[1] + 0 <= 0) {
		print "bench.sh: missing shard-sweep output" > "/dev/stderr"
		exit 1
	}
	printf "{\n" > out
	printf "  %s,\n", host > out
	printf "  \"workload\": \"bulk_and\",\n" > out
	printf "  \"clients\": %s,\n", clients > out
	printf "  \"duration\": \"%s\",\n", duration > out
	printf "  \"points\": [\n" > out
	for (i = 1; i <= NR; i++)
		printf "    {\"shards\": %s, \"achieved_qps\": %s, \"p99_ms\": %s, \"modeled_qps\": %s}%s\n",
			n[i], a[i], p[i], m[i], i < NR ? "," : "" > out
	printf "  ],\n" > out
	printf "  \"modeled_speedup_max_vs_1\": %.2f,\n", m[NR] / m[1] > out
	printf "  \"wall_speedup_max_vs_1\": %.2f\n", a[NR] / a[1] > out
	printf "}\n" > out
}
'
echo "wrote $shards_out" >&2
cat "$shards_out"

# Part 4: JSON vs wire. First the in-process round-trip microbenchmarks
# (one op through a real listener per iteration), then the elpload sweep:
# the same mixed workload through each protocol at each shard count.
wire_out="BENCH_wire.json"
wire_shards="${WIRE_SHARDS:-1 2 4}"
wire_clients="${WIRE_CLIENTS:-64}"
wire_duration="${WIRE_DURATION:-2s}"
wire_bits="${WIRE_BITS:-4096}"
echo "bench.sh: protocol microbenchmarks (BenchmarkWireOp vs BenchmarkJSONOp)" >&2
wire_raw=$(go test -run '^$' -bench 'BenchmarkWireOp$|BenchmarkJSONOp$' \
	-benchtime "$benchtime" -benchmem ./internal/server)
printf '%s\n' "$wire_raw" >&2
micro=$(printf '%s\n' "$wire_raw" | awk '
/^BenchmarkWireOp(-[0-9]+)?[ \t]/ { wns = $3; wal = $(NF-1) }
/^BenchmarkJSONOp(-[0-9]+)?[ \t]/ { jns = $3; jal = $(NF-1) }
END {
	if (wns == "" || jns == "") { print "bench.sh: missing protocol benchmark output" > "/dev/stderr"; exit 1 }
	print wns, wal, jns, jal
}')

wpoints=""
for n in $wire_shards; do
	for proto in json wire; do
		wflag=""
		if [ "$proto" = "wire" ]; then wflag="-wire"; fi
		echo "bench.sh: elpload $proto sweep, $n shard(s) (${wire_clients} clients, ${wire_duration})" >&2
		go run ./cmd/elpload \
			-shards "$n" \
			-clients "$wire_clients" \
			-duration "$wire_duration" \
			-bits "$wire_bits" \
			$wflag \
			>"$tmp_dir/wire_${proto}_$n.json"
		vals=$(awk -F'[:,]' '
			/"achieved_qps"/          { a = $2; gsub(/ /, "", a) }
			/"p99"/ && !p99done       { p = $2; gsub(/ /, "", p); p99done = 1 }
			/"wire_flushes"/          { fl = $2; gsub(/ /, "", fl) }
			/"wire_frames_per_flush"/ { ff = $2; gsub(/ /, "", ff) }
			END {
				if (fl == "") fl = 0
				if (ff == "") ff = 0
				print a, p, fl, ff
			}' "$tmp_dir/wire_${proto}_$n.json")
		wpoints="$wpoints$n $proto $vals
"
	done
done
printf '%s' "$wpoints" | awk -v out="$wire_out" -v micro="$micro" -v host="$host_json" \
	-v clients="$wire_clients" -v duration="$wire_duration" -v bits="$wire_bits" '
$2 == "json" { jq[$1] = $3; jp[$1] = $4; if (!($1 in seen)) { order[++np] = $1; seen[$1] = 1 } }
$2 == "wire" { wq[$1] = $3; wp[$1] = $4; wfl[$1] = $5; wff[$1] = $6
               if (!($1 in seen)) { order[++np] = $1; seen[$1] = 1 } }
END {
	split(micro, m, " ")
	if (np < 1 || m[1] == "" || m[3] == "") {
		print "bench.sh: missing wire-sweep output" > "/dev/stderr"
		exit 1
	}
	printf "{\n" > out
	printf "  %s,\n", host > out
	printf "  \"clients\": %s,\n", clients > out
	printf "  \"duration\": \"%s\",\n", duration > out
	printf "  \"bits\": %s,\n", bits > out
	printf "  \"microbench\": {\n" > out
	printf "    \"wire_op_ns_op\": %s,\n", m[1] > out
	printf "    \"wire_op_allocs_op\": %s,\n", m[2] > out
	printf "    \"json_op_ns_op\": %s,\n", m[3] > out
	printf "    \"json_op_allocs_op\": %s,\n", m[4] > out
	printf "    \"wire_speedup\": %.2f\n", m[3] / m[1] > out
	printf "  },\n" > out
	printf "  \"points\": [\n" > out
	for (i = 1; i <= np; i++) {
		n = order[i]
		printf "    {\"shards\": %s, \"json_qps\": %s, \"json_p99_ms\": %s, \"wire_qps\": %s, \"wire_p99_ms\": %s, \"wire_qps_ratio\": %.2f, \"wire_flushes\": %s, \"wire_frames_per_flush\": %s}%s\n",
			n, jq[n], jp[n], wq[n], wp[n], wq[n] / jq[n], wfl[n], wff[n], i < np ? "," : "" > out
	}
	printf "  ]\n" > out
	printf "}\n" > out
}
'
echo "wrote $wire_out" >&2
cat "$wire_out"

# Part 5: the fused eval tier over the DAG depth sweep. Host time tracks
# the passes per block (two-level word loops pack up to three gates into
# one pass), so every point carries its pass count beside its ns/op. The
# result vector is reused across calls, so ns/op holds no allocation.
eval_out="BENCH_eval.json"
eval_benchtime="${EVAL_BENCHTIME:-1000x}"
echo "bench.sh: eval DAG sweep (BenchmarkEvalDAG, ${eval_benchtime})" >&2
eval_raw=$(go test -run '^$' -bench 'BenchmarkEvalDAG' -benchtime "$eval_benchtime" .)
printf '%s\n' "$eval_raw" >&2
printf '%s\n' "$eval_raw" | awk -v out="$eval_out" -v host="$host_json" -v benchtime="$eval_benchtime" '
/^BenchmarkEvalDAG\// {
	split($1, parts, "/")
	depth = substr(parts[2], 6)
	sub(/-[0-9]+$/, "", depth)
	f[depth] = $3
	ps[depth] = field($0, "passes")
	if (!(depth in seen)) { order[++np] = depth; seen[depth] = 1 }
}
function field(line, unit,   a, i, k) {
	k = split(line, a, " ")
	for (i = 1; i < k; i++)
		if (a[i+1] == unit) return a[i]
	return ""
}
END {
	if (np < 1 || f[4] == "" || ps[4] == "") {
		print "bench.sh: missing eval benchmark output" > "/dev/stderr"
		exit 1
	}
	printf "{\n" > out
	printf "  %s,\n", host > out
	printf "  \"benchtime\": \"%s\",\n", benchtime > out
	printf "  \"bits\": 1048576,\n" > out
	printf "  \"points\": [\n" > out
	for (i = 1; i <= np; i++) {
		d = order[i]
		printf "    {\"depth\": %s, \"fused_ns_op\": %s, \"passes\": %s}%s\n",
			d, f[d], ps[d], i < np ? "," : "" > out
	}
	printf "  ],\n" > out
	printf "  \"depth4_passes\": %s\n", ps[4] > out
	printf "}\n" > out
}
'
echo "wrote $eval_out" >&2
cat "$eval_out"

# Part 6: the vertical (bit-serial) arithmetic cost curve. Each of
# arith_wire's six µPrograms per width on the fused tier — the step and
# pass counts grow with width, so ns/elem traces the bit-serial latency
# model — plus the transpose engine's ingest/readback throughput per
# element width. Points are keyed by op and width. Like Part 1, every
# benchmark runs 8 times (-count 8): each host-measured field is the
# median of the 8 runs, with their spread beside it as <field>_min and
# <field>_max. steps, passes and modeled_ns are deterministic, so each is
# recorded once, and a run that disagrees with another fails the part.
vert_out="BENCH_vertical.json"
vert_benchtime="${VERT_BENCHTIME:-100x}"
echo "bench.sh: vertical arith sweep (BenchmarkVerticalArith, ${vert_benchtime}, -count 8)" >&2
vert_raw=$(go test -run '^$' -bench 'BenchmarkVertical(Arith|Transpose)' -benchtime "$vert_benchtime" -count 8 -benchmem .)
printf '%s\n' "$vert_raw" >&2
printf '%s\n' "$vert_raw" | awk -v out="$vert_out" -v host="$host_json" -v benchtime="$vert_benchtime" -v count=8 '
/^BenchmarkVerticalTranspose\// {
	split($1, parts, "/")
	w = substr(parts[3], 2)
	sub(/-[0-9]+$/, "", w)
	key = parts[2] "/" w
	v[key, ++n[key]] = field($0, "ns/elem")
	if (!(w in tseen)) { torder[++nt] = w; tseen[w] = 1 }
}
/^BenchmarkVerticalArith\// {
	split($1, parts, "/")
	op = parts[2]
	w = substr(parts[3], 2)
	sub(/-[0-9]+$/, "", w)
	key = op "/" w
	i = ++n[key]
	v[key "/ns_op", i] = $3; v[key "/ns_elem", i] = field($0, "ns/elem")
	v[key "/bytes", i] = field($0, "B/op"); v[key "/allocs", i] = field($0, "allocs/op")
	fixed(key, "steps", field($0, "steps"))
	fixed(key, "passes", field($0, "passes"))
	fixed(key, "modeled_ns", field($0, "modeled_ns"))
	if (!(key in seen)) { order[++np] = key; kop[key] = op; kw[key] = w; seen[key] = 1 }
}
function field(line, unit,   a, i, k) {
	k = split(line, a, " ")
	for (i = 1; i < k; i++)
		if (a[i+1] == unit) return a[i]
	return ""
}
# fixed records a deterministic field of key, and flags a run whose value
# differs from an earlier run of the same benchmark.
function fixed(key, name, val) {
	if ((key, name) in det && det[key, name] != val) {
		printf "bench.sh: %s %s differs between runs: %s and %s\n", key, name, det[key, name], val > "/dev/stderr"
		bad = 1
	}
	det[key, name] = val
}
# spread writes the median, min and max of the count runs of key as the
# JSON fields name, name_min and name_max.
function spread(name, key,   a, i, j, t) {
	for (i = 1; i <= count; i++) a[i] = v[key, i] + 0
	for (i = 2; i <= count; i++) {
		t = a[i]
		for (j = i - 1; j >= 1 && a[j] > t; j--) a[j+1] = a[j]
		a[j+1] = t
	}
	return sprintf("\"%s\": %s, \"%s_min\": %s, \"%s_max\": %s", name,
		num(count % 2 ? a[(count+1)/2] : (a[count/2] + a[count/2+1]) / 2), name, num(a[1]), name, num(a[count]))
}
# num renders a value as an integer when it is one, else to four
# significant digits (one decimal from 100 up).
function num(x) { return x == int(x) ? sprintf("%d", x) : sprintf(x >= 100 ? "%.1f" : "%.4g", x) }
END {
	if (bad || np < 1 || !("add/8" in seen) || !("popcount/32" in seen) || nt < 1) {
		print "bench.sh: missing or inconsistent vertical benchmark output" > "/dev/stderr"
		exit 1
	}
	for (k in n)
		if (n[k] != count) {
			printf "bench.sh: %s ran %d times, want %d\n", k, n[k], count > "/dev/stderr"
			exit 1
		}
	printf "{\n" > out
	printf "  %s,\n", host > out
	printf "  \"benchtime\": \"%s\",\n", benchtime > out
	printf "  \"count\": %d,\n", count > out
	printf "  \"elems\": 1048576,\n" > out
	printf "  \"transpose\": [\n" > out
	for (i = 1; i <= nt; i++) {
		w = torder[i]
		printf "    {\"width\": %s, %s, %s}%s\n", w, spread("slice_ns_elem", "slice/" w),
			spread("unslice_ns_elem", "unslice/" w), i < nt ? "," : "" > out
	}
	printf "  ],\n" > out
	printf "  \"points\": [\n" > out
	for (i = 1; i <= np; i++) {
		k = order[i]
		printf "    {\"op\": \"%s\", \"width\": %s, \"steps\": %s, \"passes\": %s, \"modeled_ns\": %s, %s, %s, %s, %s}%s\n",
			kop[k], kw[k], num(det[k, "steps"]), num(det[k, "passes"]), det[k, "modeled_ns"],
			spread("fused_ns_op", k "/ns_op"), spread("fused_ns_elem", k "/ns_elem"),
			spread("fused_bytes_op", k "/bytes"), spread("fused_allocs_op", k "/allocs"), i < np ? "," : "" > out
	}
	printf "  ]\n" > out
	printf "}\n" > out
}
'
echo "wrote $vert_out" >&2
cat "$vert_out"

# Part 7: the bitmap-index query workload. Each point self-spawns a
# server with -shards n and runs elpload -query: boolean predicates
# through the plan IR with host-oracle verification. fusion_hits /
# fusion_fallbacks come from the final /v1/stats scrape embedded in the
# report, pinning that the fused tier served the point.
query_out="BENCH_query.json"
query_shards="${QUERY_SHARDS:-1 4}"
query_clients="${QUERY_CLIENTS:-32}"
query_duration="${QUERY_DURATION:-2s}"
query_bits="${QUERY_BITS:-65536}"
qpoints=""
for n in $query_shards; do
	echo "bench.sh: elpload query sweep, $n shard(s) (${query_clients} clients, ${query_duration})" >&2
	go run ./cmd/elpload \
		-query \
		-shards "$n" \
		-clients "$query_clients" \
		-duration "$query_duration" \
		-bits "$query_bits" \
		>"$tmp_dir/query_$n.json"
	vals=$(awk -F'[:,]' '
		/"achieved_qps"/       { a = $2; gsub(/ /, "", a) }
		/"modeled_qps"/        { m = $2; gsub(/ /, "", m) }
		/"p99"/ && !p99done    { p = $2; gsub(/ /, "", p); p99done = 1 }
		/"fusion_hits"/        { fh = $2; gsub(/ /, "", fh) }
		/"fusion_fallbacks"/   { ff = $2; gsub(/ /, "", ff) }
		/"verify_checks"/      { vc = $2; gsub(/ /, "", vc) }
		END { print a, p, m, fh, ff, vc }' "$tmp_dir/query_$n.json")
	qpoints="$qpoints$n $vals
"
done
printf '%s' "$qpoints" | awk -v out="$query_out" -v host="$host_json" \
	-v clients="$query_clients" -v duration="$query_duration" -v bits="$query_bits" '
{ q[$1] = $2; p[$1] = $3; m[$1] = $4; h[$1] = $5; fb[$1] = $6; v[$1] = $7
  if (!($1 in seen)) { order[++np] = $1; seen[$1] = 1 } }
END {
	first = order[1]
	if (np < 1 || m[first] == "" || m[first] + 0 <= 0) {
		print "bench.sh: missing query-sweep output" > "/dev/stderr"
		exit 1
	}
	printf "{\n" > out
	printf "  %s,\n", host > out
	printf "  \"workload\": \"query\",\n" > out
	printf "  \"clients\": %s,\n", clients > out
	printf "  \"duration\": \"%s\",\n", duration > out
	printf "  \"bits\": %s,\n", bits > out
	printf "  \"points\": [\n" > out
	for (i = 1; i <= np; i++) {
		n = order[i]
		printf "    {\"shards\": %s, \"qps\": %s, \"p99_ms\": %s, \"modeled_qps\": %s, \"fusion_hits\": %s, \"fusion_fallbacks\": %s, \"verify_checks\": %s}%s\n",
			n, q[n], p[n], m[n], h[n], fb[n], v[n], i < np ? "," : "" > out
	}
	printf "  ]\n" > out
	printf "}\n" > out
}
'
echo "wrote $query_out" >&2
cat "$query_out"
