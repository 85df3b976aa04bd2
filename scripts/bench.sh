#!/usr/bin/env sh
# End-to-end performance gate: runs the full-system criterion bench and
# then writes BENCH_report.json (guest MIPS, host-events/sec, per-mode
# dynamic shares, the `host` block: cores/available parallelism, the
# timing-layer replay block: sink events/sec fast vs oracle,
# per-backend wall seconds, the `analysis` block: guest MIPS with the
# deadflags/rangesimp passes on vs off, dead flag defs killed,
# per-pass wall time, the `code_cache` block: flush vs fifo under a
# constrained capacity — installs, flushes, evictions, unchains,
# retranslations, occupancy and dead-space ratio, the `translation`
# block: synchronous vs background-pool wall seconds, job/stall/discard
# counters and worker utilization, and the `guest_exec` block: raw
# functional-emulation MIPS through the guest-layer fast path vs the
# decode-per-step byte oracle with micro-op/lazy-flag engagement
# counters — each speed switch's two serialized reports asserted
# byte-identical) from repeated timed runs of the same configuration.
#
# Every report is also appended as a timestamped copy under
# bench_history/, so regressions can be traced across commits.
#
#   scripts/bench.sh [--scale S] [--reps N]
#   scripts/bench.sh --smoke       # CI: bench_report only, tiny scale,
#                                  # then assert the report is sane
set -eu

cd "$(dirname "$0")/.."

# Appends the freshly written report to the local bench history as a
# timestamped copy (bench_history/ is append-only evidence; the current
# report stays at BENCH_report.json).
archive_report() {
    mkdir -p bench_history
    cp BENCH_report.json "bench_history/BENCH_report.$(date -u +%Y%m%dT%H%M%SZ).json"
}

if [ "${1:-}" = "--smoke" ]; then
    shift
    echo "== bench smoke: bench_report at quicktest scale"
    cargo run --release -p darco-bench --bin bench_report -- \
        BENCH_report.json --scale 0.02 --reps 1 "$@"
    python3 - <<'EOF'
import json, sys

with open("BENCH_report.json") as f:
    r = json.load(f)
assert r["guest_mips"] > 0, f"guest_mips {r['guest_mips']} must be positive"
t = r["translation"]
assert t["workers"] >= 1, "pool must have spawned workers"
assert t["sync_wall_seconds"] > 0 and t["pool_wall_seconds"] > 0
assert t["comparison"] in ("overlap", "channel-overhead-only")
g = r["guest_exec"]
assert g["guest_insts"] > 0, "guest_exec must retire instructions"
assert g["speedup"] > 0, "guest_exec speedup must be recorded"
assert g["uop_hits"] > 0, "fast path must execute from cached micro-op buffers"
assert g["blocks_built"] > 0, "fast path must pre-decode blocks"
assert g["flag_forces"] < g["flag_defs"], \
    f"lazy flags must elide materializations ({g['flag_forces']}/{g['flag_defs']})"
assert r["timing"]["comparison"] in ("overlap", "channel-overhead-only")
print(
    f"bench smoke OK: {r['guest_mips']:.2f} guest MIPS, "
    f"translation {t['workers']} worker(s) [{t['comparison']}], "
    f"sync {t['sync_wall_seconds']:.3f}s vs pool {t['pool_wall_seconds']:.3f}s, "
    f"guest exec {g['fast_mips']:.2f} vs {g['oracle_mips']:.2f} MIPS "
    f"({g['speedup']:.2f}x, {g['uop_hits']} uop hits)"
)
EOF
    archive_report
    exit 0
fi

echo "== cargo bench --bench bench_system (full System::run_to_completion)"
cargo bench -p darco-bench --bench bench_system

echo "== cargo bench --bench retire_throughput (retirement-path ablation)"
cargo bench -p darco-bench --bench retire_throughput

echo "== cargo bench --bench timing_throughput (timing-layer replay)"
cargo bench -p darco-bench --bench timing_throughput

echo "== cargo bench --bench guest_exec (functional-emulation fast path)"
cargo bench -p darco-bench --bench guest_exec

echo "== bench_report -> BENCH_report.json"
cargo run --release -p darco-bench --bin bench_report -- BENCH_report.json "$@"
archive_report
