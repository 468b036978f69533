#!/usr/bin/env bash
# Static hygiene gate, part of the tier-1 verify (see ROADMAP.md):
#   1. gofmt       — no unformatted files anywhere in the repo
#   2. go vet      — whole-module analysis, then go vet and go test of
#                    the perfbench module, which replaces repro with the
#                    checkout (replace repro => ../) and so is not part of
#                    ./...: a change to the kernel, plan, facade or
#                    scheduler surface the benchmark builds against fails
#                    here instead of failing every benchmark run
#   3. doccheck    — godoc completeness for the packages whose documentation
#                    the project guarantees (root facade, internal/obs,
#                    internal/server, internal/wire, internal/plan,
#                    internal/kernel, internal/vertical, the engine
#                    contract's internal/engine, internal/expr and
#                    internal/fault, the command layer: the device
#                    model internal/dram, the primitives and their one
#                    interpreter in internal/primitive, internal/controller,
#                    and the three designs internal/elpim, internal/ambit
#                    and internal/drisa, and the reproduction: the
#                    experiments' typed results in internal/exp, the case
#                    studies internal/apps/bitmap, internal/apps/tablescan
#                    and internal/apps/cnn, and the models they run on,
#                    internal/analog, internal/sched, internal/timing and
#                    internal/power)
#   4. race tests  — the serving-layer suite (including the wire
#                    listener, the JSON↔wire differential and the
#                    /v1/query differential/pagination suite) plus ten
#                    iterations of its admission-gate, synchronous
#                    op/reduce/PUT stress, vertical torn-read and
#                    blocked-writer GET tests,
#                    the wire codec/conn suite
#                    plus a dedicated multi-iteration run over the
#                    one frame writer both connection ends write
#                    through (flush-on-empty coalescing, write-error
#                    latch, drain-time flushing), the kernel-derivation
#                    cache, the facade's fast-path/fallback concurrency
#                    tests, the shard deployment tests + differential
#                    suites, the vertical-arith suites, and three
#                    iterations each of the multi-block arith
#                    differential and the facade's forking-dispatcher
#                    tests (concurrent ops + totals, lowest-stripe
#                    error) under the race detector (their whole value
#                    is their concurrency envelope)
#   5. fuzz smoke  — both internal/wire fuzz targets, the facade's
#                    eval-DAG and vertical-arith fuzzers, the transpose
#                    fuzzer, the serving layer's /v1/query fuzzer, and the
#                    controller's assembler round trip for a few seconds
#                    each
#                    (go test -fuzz matches one target per run), so codec
#                    regressions and tier/oracle divergences the corpus
#                    can reach fail here
#   6. coverage    — internal/wire and internal/server must each keep
#                    statement coverage >= 80%
#   7. shuffle     — the full suite once with -shuffle=on, so hidden
#                    inter-test ordering dependencies fail here instead of
#                    flaking later; the suite includes internal/exp's
#                    golden files and its EXPERIMENTS.md check, so a moved
#                    figure or a drifted table in EXPERIMENTS.md fails lint
set -u
cd "$(dirname "$0")/.."

fail=0

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "lint: gofmt wants to reformat:" >&2
    echo "$unformatted" >&2
    fail=1
fi

if ! go vet ./...; then
    fail=1
fi

if ! (cd perfbench && GOWORK=off go vet . && GOWORK=off go test -count=1 .); then
    fail=1
fi

if ! go run ./scripts/doccheck . internal/obs internal/server internal/wire internal/plan internal/kernel internal/vertical internal/engine internal/expr internal/fault internal/primitive internal/controller internal/elpim internal/ambit internal/drisa internal/dram internal/exp internal/apps/bitmap internal/apps/tablescan internal/apps/cnn internal/analog internal/sched internal/timing internal/power; then
    fail=1
fi

if ! go test -race -count=1 ./internal/server/...; then
    fail=1
fi

if ! go test -race -count=1 ./internal/wire/...; then
    fail=1
fi

# Requests execute synchronously on their handler goroutines, so the
# serving layer's concurrency envelope is the per-shard admission gate
# (in-flight bound, deadline, drain) and the entry lock sets. Their suites,
# the op/reduce/PUT stress test, the vertical torn-read test (one-pass
# GETs under one hold of the entry read lock) and the blocked-writer test
# (a JSON GET writes its body holding no entry lock) get ten iterations
# under the race detector.
if ! go test -race -count=10 -run 'Deadline|Backpressure|Saturation|Drain|PutAndOp|FailedOp|SyncStress|VerticalPutGetConsistency|GetWriteHoldsNoEntryLock' ./internal/server; then
    fail=1
fi

# The frame writer that both connection ends write through is pure
# concurrency machinery (a cond-parked writer goroutine, a
# double-buffered frame queue, write-error latching, drain-time
# flushing), so its suites get extra iterations under the race detector
# beyond the package-wide pass above.
if ! go test -race -count=3 -run 'Flush|Coalescing|WriteError|DrainDelivers|ServeConnDrains|FrameWriter' ./internal/wire ./internal/server; then
    fail=1
fi

# Fuzz smoke: -fuzz matches exactly one target per invocation, so the two
# targets need two runs. A few seconds each catches shallow regressions;
# the checked-in corpus under internal/wire/testdata seeds both.
if ! go test -run '^$' -fuzz '^FuzzDecodeFrame$' -fuzztime 5s ./internal/wire; then
    fail=1
fi

if ! go test -run '^$' -fuzz '^FuzzRoundTrip$' -fuzztime 5s ./internal/wire; then
    fail=1
fi

# The eval-DAG fuzzer pins the fused tier against the command-accurate
# tier (the reference) and the host oracle on random expression DAGs
# (depth ≤ 6).
if ! go test -run '^$' -fuzz '^FuzzEvalDAG$' -fuzztime 5s .; then
    fail=1
fi

# The vertical-arith fuzzer pins every µProgram (op × width) against the
# host-integer oracle on random element vectors.
if ! go test -run '^$' -fuzz '^FuzzVerticalArith$' -fuzztime 5s .; then
    fail=1
fi

# The transpose fuzzer pins the grouped slice/unslice converters, word and
# byte forms, against a per-bit reference at random widths and lengths.
if ! go test -run '^$' -fuzz '^FuzzTranspose$' -fuzztime 5s ./internal/vertical; then
    fail=1
fi

# The query fuzzer drives arbitrary predicates, modes, cursors and limits
# through POST /v1/query on a live store and checks the structural
# response invariants (400-not-500 on rejects, ordered in-universe
# positions consistent with the bits-mode vector).
if ! go test -run '^$' -fuzz '^FuzzQuery$' -fuzztime 5s ./internal/server; then
    fail=1
fi

# The assembler round-trip fuzzer: whatever controller.Assemble accepts
# must re-assemble from its String() to the same sequence, so pimasm and
# seqopt print only programs they can read back.
if ! go test -run '^$' -fuzz '^FuzzAssembleRoundTrip$' -fuzztime 5s ./internal/controller; then
    fail=1
fi

# Coverage floor: the wire codec and the serving layer carry the
# protocol-equivalence guarantees, so their suites must keep >= 80%
# statement coverage.
cover_out=$(go test -count=1 -cover ./internal/wire ./internal/server) || fail=1
echo "$cover_out"
cover_fail=$(echo "$cover_out" | awk '
    /coverage:/ {
        for (i = 1; i <= NF; i++)
            if ($i ~ /%$/) { pct = $i; sub(/%.*/, "", pct)
                if (pct + 0 < 80.0) print $2, pct "% < 80%" }
    }')
if [ -n "$cover_fail" ]; then
    echo "lint: coverage floor violated:" >&2
    echo "$cover_fail" >&2
    fail=1
fi

if ! go test -race -count=1 ./internal/kernel/... ./internal/plan/...; then
    fail=1
fi

if ! go test -race -count=1 -run 'Fastpath|FaultWrapper' .; then
    fail=1
fi

if ! go test -race -count=1 -run 'Shard|Differential' .; then
    fail=1
fi

# The vertical arithmetic suite under the race detector: ArithProg's
# forked block-major walk runs steps concurrently over disjoint stripe
# shares.
if ! go test -race -count=1 -run 'Arith|Vertical' .; then
    fail=1
fi

# The multi-block differential is the one arith suite large enough for
# the block-major walk to split a call's blocks between workers, and the
# two dispatcher tests size their calls so the stripe dispatcher forks
# (concurrent command-path Op/Reduce against Totals/Snapshot readers, and
# the lowest-stripe error across worker shares), so all three get extra
# iterations under the race detector, like the frame writer.
if ! go test -race -count=3 -run '^(TestArithMatchesReferenceMultiBlock|TestConcurrentOpsAndTotals|TestForEachStripeFirstErrorDeterministic)$' .; then
    fail=1
fi

if ! go test -count=1 -shuffle=on ./...; then
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "lint: FAIL" >&2
    exit 1
fi
echo "lint: ok"
