#!/usr/bin/env bash
# Tier-1 verification, fully offline: release build, workspace tests,
# and a short deterministic stress sweep of the STM runtime.
#
# Usage: scripts/verify.sh [stress-seconds]   (default 10)

set -euo pipefail
cd "$(dirname "$0")/.."

STRESS_SECONDS="${1:-10}"

echo "==> cargo build --release --offline"
cargo build --workspace --release --offline

echo "==> cargo test -q --offline"
cargo test -q --workspace --offline

# mcbench is its own workspace (outside the one above): its reply oracle
# and workload-spec tests run here.
echo "==> mcbench oracle tests"
CARGO_TARGET_DIR=target cargo test --release --offline --manifest-path mcbench/Cargo.toml

echo "==> stress smoke (${STRESS_SECONDS}s, every algorithm/lock/CM combo; mixed, read-mostly, write-heavy and contended-commit schedules per seed)"
cargo run --release --offline -p testkit --bin stress -- --seconds "$STRESS_SECONDS"

# Chaos tier: the same 21-combo matrix with tm's deterministic fault
# injection armed (spurious aborts, delays, panics) and the ticket oracle
# still on. Separate cargo invocations so the `chaos`/`fault` features
# never unify into the plain build or the bench binaries.
echo "==> chaos tests (tm fault layer + chaos schedules + fault-path zero-alloc guard)"
cargo test -q --offline -p tm --features fault
cargo test -q --offline -p testkit --features chaos

echo "==> chaos stress (5s, every combo, deterministic fault plan; all five schedules)"
cargo run --release --offline -p testkit --features chaos --bin stress -- --chaos --seconds 5

# Wire smoke: a real mcached on ephemeral TCP + UDP + Unix transports
# (epoll backend — the default), mcslap workloads on every transport
# plus the two connection-scale scenarios (each asserts every response
# against the workload oracle and frame_errors=0 server-side), then a
# clean pipe-driven shutdown that must exit 0.
echo "==> wire smoke (mcached over loopback TCP/UDP/unix, epoll backend)"
WIRE_LOG="$PWD/target/mcached-smoke.log"
WIRE_CTL="$PWD/target/mcached-smoke.ctl"
WIRE_SOCK="$PWD/target/mcached-smoke.sock"
rm -f "$WIRE_CTL" "$WIRE_SOCK"
mkfifo "$WIRE_CTL"
target/release/mcached --port 0 --udp 0 --unix "$WIRE_SOCK" --threads 2 \
    < "$WIRE_CTL" > "$WIRE_LOG" 2>&1 &
WIRE_PID=$!
exec 9> "$WIRE_CTL" # hold the control pipe open until shutdown
for _ in $(seq 1 300); do grep -q '^LISTENING-UNIX' "$WIRE_LOG" && break; sleep 0.1; done
grep -q '^LISTENING-UNIX' "$WIRE_LOG"
WIRE_ADDR=$(awk '/^LISTENING /{print $2; exit}' "$WIRE_LOG")
WIRE_UDP=$(awk '/^LISTENING-UDP/{print $2; exit}' "$WIRE_LOG")
target/release/mcslap --tcp "$WIRE_ADDR" --execute-number 5000 --concurrency 4 \
    --read-ratio 90 --multiget 8
target/release/mcslap --tcp "$WIRE_ADDR" --execute-number 5000 --concurrency 4 \
    --read-ratio 50 --binary --multiget 4 --setq-pipeline 8
target/release/mcslap --unix "$WIRE_SOCK" --execute-number 3000 --concurrency 2 \
    --read-ratio 80
target/release/mcslap --udp "$WIRE_UDP" --execute-number 2000 --connections 2 \
    --read-ratio 90
target/release/mcslap --udp "$WIRE_UDP" --execute-number 500 --connections 2 \
    --keys 100 --value-size 4000   # multi-datagram responses
echo "==> connection-scale smoke (churn storm + fan-in, epoll backend)"
target/release/mcslap --tcp "$WIRE_ADDR" --churn 4 --execute-number 50 --keys 200
target/release/mcslap --tcp "$WIRE_ADDR" --fanin 200 --concurrency 4 \
    --execute-number 400 --keys 200
echo shutdown >&9
wait "$WIRE_PID"
exec 9>&-
rm -f "$WIRE_CTL"
grep -q 'frame_errors=0' "$WIRE_LOG"
echo "    wire smoke OK: $(tail -n 1 "$WIRE_LOG")"

# The same connection-scale scenarios on the portable polling backend:
# both backends must survive churn and fan-in with zero frame errors
# and shut down cleanly.
echo "==> connection-scale smoke (churn storm + fan-in, poll backend)"
POLL_LOG="$PWD/target/mcached-poll-smoke.log"
POLL_CTL="$PWD/target/mcached-poll-smoke.ctl"
rm -f "$POLL_CTL"
mkfifo "$POLL_CTL"
target/release/mcached --port 0 --threads 2 --event-loop poll \
    < "$POLL_CTL" > "$POLL_LOG" 2>&1 &
POLL_PID=$!
exec 8> "$POLL_CTL"
for _ in $(seq 1 300); do grep -q '^LISTENING' "$POLL_LOG" && break; sleep 0.1; done
grep -q '^LISTENING' "$POLL_LOG"
POLL_ADDR=$(awk '/^LISTENING /{print $2; exit}' "$POLL_LOG")
target/release/mcslap --tcp "$POLL_ADDR" --execute-number 2000 --concurrency 2 \
    --read-ratio 90
target/release/mcslap --tcp "$POLL_ADDR" --churn 2 --execute-number 30 --keys 100
target/release/mcslap --tcp "$POLL_ADDR" --fanin 100 --concurrency 2 \
    --execute-number 200 --keys 100
echo shutdown >&8
wait "$POLL_PID"
exec 8>&-
rm -f "$POLL_CTL"
grep -q 'frame_errors=0' "$POLL_LOG"
echo "    poll-backend smoke OK: $(tail -n 1 "$POLL_LOG")"

# Durability tier: the kill-at-random-commit harness. 36 seeded kill
# points sweep every (fsync policy x kill mode) combination — each child
# is murdered by chaos injection inside the log writer at a seed-chosen
# append, and the parent replays the log against the exact oracle — plus
# one injected-EIO degradation case per policy. Then a warm-restart
# round trip under mcslap verifies and times recovery end to end.
echo "==> crash sweep (mccrash: 36 kill points x {always,every:8,off} x {before,mid,after} + 3 chaos-fail arms)"
target/release/mccrash --sweep 36 --seed 1

echo "==> warm restart smoke (mcslap --restart: load, seal, recover, verify)"
target/release/mcslap --restart --branch it-oncommit --keys 5000 --concurrency 2 \
    --dur-fsync every:32

# Adaptive smoke: the three-phase schedule (read-mostly → write-storm →
# hot-key zipfian) with the controller live. The run must show the
# controller actually working: at least one algorithm switch (the
# read-mostly phase crosses RO_HIGH and lands on NOrec) and a non-zero
# privatized-hit count from the armed hot keys. Throughput comparisons
# against static configs are recorded in EXPERIMENTS.md, not gated here
# (single-run macro numbers drift too much across hosts to assert on).
echo "==> adaptive smoke (mcslap --phase-shift: controller switches + hot-key privatization)"
ADAPT_OUT=$(target/release/mcslap --phase-shift --branch it-oncommit --concurrency 4 \
    --execute-number 30000 --keys 4000 --adapt on --hot-slots 64 --magazine 64 \
    --adapt-epoch-ms 20)
echo "$ADAPT_OUT" | sed 's/^/    /'
echo "$ADAPT_OUT" | grep -q 'switches=[1-9]' || {
    echo "adaptive smoke: controller never switched algorithm"; exit 1; }
echo "$ADAPT_OUT" | grep -Eq 'hits=[1-9][0-9]*' || {
    echo "adaptive smoke: hot-key path never served a privatized hit"; exit 1; }

echo "==> bench smoke (stm_fastpath: word-granularity speedup + zero-alloc counts + contended sharded-clock arms)"
TESTKIT_BENCH_SAMPLES="${TESTKIT_BENCH_SAMPLES:-15}" \
    TESTKIT_BENCH_DIR="$PWD/target/testkit-bench" \
    cargo bench --offline -p bench --bench stm_fastpath

echo "==> bench smoke (stm_getpath: read-only fast lane + multiget batching)"
TESTKIT_BENCH_SAMPLES="${TESTKIT_BENCH_SAMPLES:-15}" \
    TESTKIT_BENCH_DIR="$PWD/target/testkit-bench" \
    cargo bench --offline -p bench --bench stm_getpath

echo "==> bench smoke (stm_setpath: mutation fast lane + store batching + slab magazines)"
TESTKIT_BENCH_SAMPLES="${TESTKIT_BENCH_SAMPLES:-15}" \
    TESTKIT_BENCH_DIR="$PWD/target/testkit-bench" \
    cargo bench --offline -p bench --bench stm_setpath

echo "==> bench smoke (stm_wirepath: in-process vs loopback GET/SET roundtrips)"
TESTKIT_BENCH_SAMPLES="${TESTKIT_BENCH_SAMPLES:-15}" \
    TESTKIT_BENCH_DIR="$PWD/target/testkit-bench" \
    cargo bench --offline -p bench --bench stm_wirepath

echo "==> bench smoke (stm_durpath: redo-log overhead per fsync policy + replay recovery)"
TESTKIT_BENCH_SAMPLES="${TESTKIT_BENCH_SAMPLES:-15}" \
    TESTKIT_BENCH_DIR="$PWD/target/testkit-bench" \
    cargo bench --offline -p bench --bench stm_durpath

echo "==> bench smoke (stm_adaptpath: hot-key privatized GET + controller tick/switch costs)"
TESTKIT_BENCH_SAMPLES="${TESTKIT_BENCH_SAMPLES:-15}" \
    TESTKIT_BENCH_DIR="$PWD/target/testkit-bench" \
    cargo bench --offline -p bench --bench stm_adaptpath

echo "==> bench smoke (stm_netpath: connection lifecycle + fan-in GET, epoll vs poll)"
TESTKIT_BENCH_SAMPLES="${TESTKIT_BENCH_SAMPLES:-15}" \
    TESTKIT_BENCH_DIR="$PWD/target/testkit-bench" \
    cargo bench --offline -p bench --bench stm_netpath

# Offline regression gate, two tiers:
#
# 1. RATIO gates inside the benches themselves (stm_getpath asserts the
#    fast-lane/fulltx ratio floor and the multiget non-inversion). The
#    paired arms run interleaved, so these ratios are stable across host
#    noise epochs — they are the *tight* gate, and a failure above
#    already aborted this script.
# 2. This ABSOLUTE gate: the fresh run's MINIMUM vs the committed
#    BENCH_*.json baselines' MEDIAN (noise only ever adds time, so the
#    fresh min is the stable cost estimate while the baseline median
#    sits a noise margin above its own floor). Both sides are
#    host-normalized: each report records the calibration kernel's
#    time, and fresh times are scaled by baseline over fresh
#    calibration, so a slower host is not a regression. Measured
#    cross-epoch drift on shared hosts reaches ~35% even on minima, so
#    the threshold is 50% — this tier only catches catastrophic (≳1.5x)
#    absolute regressions. Zero-alloc counters must stay exactly zero
#    regardless. Runs BEFORE the cp below so the fresh reports can
#    never gate against themselves.
echo "==> bench regression gate (host-normalized fresh min vs committed baseline median, 50%)"
cargo run --release --offline -p testkit --bin bench_compare -- . target/testkit-bench --threshold 50

cp target/testkit-bench/BENCH_fastpath_*.json target/testkit-bench/BENCH_getpath_*.json \
   target/testkit-bench/BENCH_setpath_*.json target/testkit-bench/BENCH_wirepath_*.json \
   target/testkit-bench/BENCH_durpath_*.json target/testkit-bench/BENCH_adaptpath_*.json \
   target/testkit-bench/BENCH_netpath_*.json .

echo "==> verify OK"
