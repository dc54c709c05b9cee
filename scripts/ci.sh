#!/usr/bin/env bash
# CI gate: build, test, lint. Run from the repo root.
#
# Note the two test invocations: the root package is both a [workspace]
# and a [package], so a bare `cargo test` covers only the root crate's
# integration tests (the tier-1 gate); `--workspace` adds every member
# crate's unit and integration tests.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release

echo "== test (root package / tier-1) =="
cargo test -q

echo "== test (workspace) =="
cargo test --workspace -q

echo "== srm-node (wall-clock transport binary builds) =="
cargo build --release -p srm-transport --bin srm-node

echo "== transport loopback (live-UDP loss recovery) =="
cargo test -q --test transport_loopback

echo "== transport chaos (seeded determinism, wheel churn, blackhole heal) =="
cargo test -q --test transport_chaos

echo "== transport batch equivalence (batched vs portable backends, byte-identical) =="
cargo test -q --test transport_batch

echo "== soak smoke (bounded chaos run, invariant gate; DESIGN.md §9) =="
timeout 60 ./target/release/srm-node soak --nodes 3 --secs 3 --adus 2 --seed 7 \
    --chaos "loss=0.1,dup=0.05,reorder=0.15:30ms,jitter=20ms,burst=0.9@1s+1.5s,blackhole=2@1s+1.5s"

echo "== --drop-data smoke (forced DATA loss repaired; trace drained before kill -9) =="
rm -f target/ci_drop.jsonl target/ci_drop_killed.jsonl
# The source's first DATA frame is dropped on its send path; the joiner
# must learn of it from session messages and receive it as a repair.
timeout 30 ./target/release/srm-node join --id 2 --bind 127.0.0.1:7632 \
    --peers 127.0.0.1:7631 --members 2 --duration 8 > target/ci_drop.out &
DROPRX_PID=$!
timeout 30 ./target/release/srm-node send --id 1 --bind 127.0.0.1:7631 \
    --peers 127.0.0.1:7632 --members 2 --duration 8 --quiet \
    --text drop-smoke --drop-data 0 --trace target/ci_drop.jsonl &
DROP_PID=$!
wait $DROP_PID $DROPRX_PID
grep -q "\[repair\] drop-smoke" target/ci_drop.out \
    || { echo "--drop-data smoke: the dropped ADU never arrived as a repair" >&2; exit 1; }
# A node killed mid-run keeps the reactor's events its trace drains wrote.
./target/release/srm-node send --id 3 --bind 127.0.0.1:7633 \
    --peers 127.0.0.1:7634 --members 2 --duration 30 --quiet \
    --text k1 --text k2 --text k3 --text k4 --text k5 --text k6 --text k7 --text k8 \
    --chaos "loss=0.5" --trace target/ci_drop_killed.jsonl &
KILL_PID=$!
sleep 2
kill -9 $KILL_PID
wait $KILL_PID 2>/dev/null || true
grep -q '"chaos_drop"' target/ci_drop_killed.jsonl \
    || { echo "--drop-data smoke: killed node's trace has no chaos_drop events" >&2; exit 1; }

echo "== metrics + monitor loopback (registry snapshots, passive group health) =="
cargo test -q -p srm-transport --test metrics_monitor

echo "== monitor smoke (stats + monitor JSONL end-to-end, schema-validated) =="
cargo build --release -p srm-experiments
./target/release/srm-node send --id 1 --bind 127.0.0.1:7611 \
    --peers 127.0.0.1:7612,127.0.0.1:7619 --members 2 --duration 4 \
    --text ci-smoke --quiet \
    --stats-file target/ci_stats.jsonl --stats-interval 0.5 &
SEND_PID=$!
./target/release/srm-node join --id 2 --bind 127.0.0.1:7612 \
    --peers 127.0.0.1:7611,127.0.0.1:7619 --members 2 --duration 4 --quiet &
JOIN_PID=$!
timeout 30 ./target/release/srm-node monitor --bind 127.0.0.1:7619 \
    --members 2 --duration 5 --refresh 0.5 --quiet --out target/ci_monitor.jsonl
wait $SEND_PID $JOIN_PID
./target/release/srm-experiments monitor \
    --monitor target/ci_monitor.jsonl --stats target/ci_stats.jsonl --validate

echo "== durable store (WAL unit + property tests) =="
cargo test -q -p srm-store

echo "== durable rejoin smoke (kill -9 -> restart -> repair-from-disk, live UDP) =="
STORE_DIR=$(mktemp -d target/ci_store.XXXXXX)
# Phase 1: a durable sender logs one ADU, then dies hard mid-session.
./target/release/srm-node send --id 1 --bind 127.0.0.1:7621 \
    --peers 127.0.0.1:7622 --members 2 --duration 30 --quiet \
    --text durable-smoke --store "$STORE_DIR" --fsync always &
DUR_PID=$!
sleep 2
kill -9 $DUR_PID
wait $DUR_PID 2>/dev/null || true
# Phase 2: it restarts from the log; a fresh late joiner must recover the
# pre-crash ADU via a repair only the rehydrated store can serve.
timeout 30 ./target/release/srm-node join --id 1 --bind 127.0.0.1:7621 \
    --peers 127.0.0.1:7622 --members 2 --duration 8 --quiet \
    --store "$STORE_DIR" &
REJOIN_PID=$!
timeout 30 ./target/release/srm-node join --id 2 --bind 127.0.0.1:7622 \
    --peers 127.0.0.1:7621 --members 2 --duration 8 > target/ci_durable.out &
LATE_PID=$!
wait $REJOIN_PID $LATE_PID
grep -q "durable-smoke" target/ci_durable.out \
    || { echo "durable rejoin smoke: late joiner never recovered the pre-crash ADU" >&2; exit 1; }
grep -q "repair" target/ci_durable.out \
    || { echo "durable rejoin smoke: ADU arrived but not via repair" >&2; exit 1; }
rm -rf "$STORE_DIR"

# Exact heap bytes of one shortest-path tree and of a G = 200 Fig-4 session.
echo "== simulator footprint gate =="
cargo test -q --test sim_footprint

echo "== golden trace (observability JSONL pins) =="
cargo test -q --test golden_trace

echo "== bench (criterion targets compile) =="
cargo bench --no-run -p srm-bench -q

echo "== bench smoke (scale quick run + report validation) =="
cargo build --release -p srm-bench --bin scale
./target/release/scale run --quick --label ci-smoke --out target/bench_smoke.json
./target/release/scale validate target/bench_smoke.json
./target/release/scale validate BENCH_4.json

echo "== bench regression gate (best-of-5 re-measure vs committed BENCH_4.json) =="
./target/release/scale check --against BENCH_4.json --tolerance 1.25

echo "== live bench smoke (quick run + report validation) =="
cargo build --release -p srm-bench --bin live
./target/release/live run --quick --label ci-smoke --out target/live_smoke.json
./target/release/live validate target/live_smoke.json
./target/release/live validate BENCH_9.json

echo "== live-path regression gate (best-of-5 re-measure vs committed BENCH_9.json) =="
./target/release/live check --against BENCH_9.json --tolerance 1.25

echo "== srm-hub smoke (4 groups via control TCP, delivery + clean drain, hostile line) =="
cargo build --release -p srm-transport --bin srm-hub
# One hub process hosts four groups; each group has a standalone srm-node
# receiver that prints whatever it delivers. The whole drive — create,
# publish, drain, stop — goes through the line-JSON control TCP port.
timeout 60 ./target/release/srm-hub --bind 127.0.0.1:7641 \
    --control 127.0.0.1:7642 --shards 2 --quiet &
HUB_PID=$!
HUBRX_PIDS=()
for g in 1 2 3 4; do
    timeout 60 ./target/release/srm-node join --id 2 --bind 127.0.0.1:$((7650+g)) \
        --peers 127.0.0.1:7641 --group "$g" --members 2 --duration 12 \
        > "target/ci_hub_g$g.out" &
    HUBRX_PIDS+=($!)
done
sleep 1
exec 9<>/dev/tcp/127.0.0.1/7642
for g in 1 2 3 4; do
    printf '{"cmd":"create","group":%d,"peers":["127.0.0.1:%d"],"members":2}\n' \
        "$g" $((7650+g)) >&9
done
for g in 1 2 3 4; do
    printf '{"cmd":"send","group":%d,"text":"hub-smoke-g%d","count":3}\n' "$g" "$g" >&9
done
# A hostile line, 100,000 nested `[`: the bounded parser must answer it
# with one error reply instead of overflowing the stack and aborting.
{ head -c 100000 /dev/zero | tr '\0' '['; echo; } >&9
sleep 3
for g in 1 2 3 4; do printf '{"cmd":"drain","group":%d}\n' "$g" >&9; done
printf '{"cmd":"stop"}\n' >&9
timeout 30 cat <&9 > target/ci_hub_ctrl.out || true
exec 9<&- 9>&-
wait $HUB_PID
wait "${HUBRX_PIDS[@]}"
for g in 1 2 3 4; do
    grep -q "hub-smoke-g$g" "target/ci_hub_g$g.out" \
        || { echo "srm-hub smoke: group $g receiver never delivered its ADUs" >&2; exit 1; }
done
[ "$(grep -c '"ok":true,"cmd":"create"' target/ci_hub_ctrl.out)" -eq 4 ] \
    || { echo "srm-hub smoke: control plane did not ack 4 creates" >&2; exit 1; }
[ "$(grep -c '"ok":true,"cmd":"drain"' target/ci_hub_ctrl.out)" -eq 4 ] \
    || { echo "srm-hub smoke: control plane did not ack 4 clean drains" >&2; exit 1; }
grep -q '"ok":true,"cmd":"stop"' target/ci_hub_ctrl.out \
    || { echo "srm-hub smoke: hub never acked stop" >&2; exit 1; }
[ "$(grep -c '"ok":false' target/ci_hub_ctrl.out)" -eq 1 ] \
    || { echo "srm-hub smoke: hostile control line did not get exactly one error reply" >&2; exit 1; }

echo "== benchmark smoke (each srmbench workload, 1 s traced run, outputs checked) =="
# srmbench builds itself from source; its last stdout line is the JSON
# result, whose `correct` flag checks every workload's outputs.
for w in sim_fig4_mix node_flood node_paced_loss hub_flood; do
    last=$(bash srmbench/run.sh --workload "$w" --seed 1 --seconds 1 --trace 1 | tail -n 1)
    case "$last" in
        *'"correct": true'*) ;;
        *) echo "benchmark smoke: $w did not report correct: $last" >&2; exit 1 ;;
    esac
done

echo "== clippy (workspace, warnings are errors) =="
cargo clippy --workspace -- -D warnings

echo "== rustdoc (no warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "CI OK"
