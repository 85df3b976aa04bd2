//! End-to-end throughput report: runs one small profile through the full
//! system a few times, keeps the best wall-clock, and writes a
//! machine-readable JSON summary (`scripts/bench.sh` drives this).
//!
//! ```text
//! bench_report [OUT.json] [--scale S] [--reps N]
//! ```
//!
//! Reported metrics:
//!
//! * `guest_mips`            — emulated guest instructions per second,
//! * `host_events_per_sec`   — retired host events through the bus,
//! * `mode_shares`           — dynamic guest-instruction share per
//!   execution mode `[IM, BBM, SBM]` (they describe the workload, and
//!   pin that a speed change did not alter what was simulated),
//! * `timing`                — the timing layer in isolation: a
//!   prerecorded host-event stream replayed through the `TimingSink`
//!   (1 vs 3 pipelines, shipping memory model vs the legacy full-probe
//!   oracle) and through each full backend (inline/threaded/fanout);
//!   events/sec, per-backend wall seconds, and the sink-level speedup
//!   of the shipping model over the oracle,
//! * `analysis`              — the IR analysis framework: guest MIPS
//!   with `deadflags`/`rangesimp` on vs off, dead flag defs killed,
//!   branches folded, host-insts-per-guest-inst both ways, and per-pass
//!   wall time,
//! * `code_cache`            — the translation lifecycle under a
//!   deliberately constrained capacity: whole-cache flush vs partial
//!   FIFO eviction (retranslations, evictions, unchains, occupancy,
//!   dead-space ratio), with identical guest-architectural results
//!   asserted across the two policies,
//! * `host`                  — the machine the numbers were taken on
//!   (core count, available parallelism), so wall-clock rows can be
//!   compared across runs,
//! * `translation`           — the background translation pool
//!   (DESIGN.md §15): wall seconds with `translate_workers = 0` (the
//!   synchronous oracle) vs the pool, job/install/stall/discard
//!   counters, and worker utilization — with the two serialized
//!   reports asserted byte-identical. On a single-CPU host the
//!   comparison is labeled `channel-overhead-only`: the pool cannot
//!   overlap anything there, so a speedup at or below 1.0 is the
//!   expected cost of the channels, not a regression,
//! * `guest_exec`            — the guest-layer fast path (DESIGN.md
//!   §17): raw functional-emulation MIPS with the pre-decoded micro-op
//!   buffers, lazy flags and width-native memory access on vs the
//!   decode-per-step byte oracle (final architectural state and guest
//!   memory asserted identical), engagement counters, plus full-system
//!   wall seconds both ways with the two serialized reports asserted
//!   byte-identical.

use darco_bench::replay::{record_stream, replay_backend, replay_sink};
use darco_core::{Report, System, SystemConfig, TimingBackendKind};
use darco_host::Owner;
use darco_workloads::{generate, suites};
use serde::Serialize;

#[derive(Serialize)]
struct ModeShares {
    im: f64,
    bbm: f64,
    sbm: f64,
}

#[derive(Serialize)]
struct SinkRates {
    one_pipeline: f64,
    three_pipeline: f64,
}

#[derive(Serialize)]
struct BackendWall {
    inline: f64,
    threaded: f64,
    fanout: f64,
}

#[derive(Serialize)]
struct TimingBlock {
    /// What the threaded/fanout backend wall numbers (and by extension
    /// `sink_speedup_3p` read against them) measure on this host:
    /// `"overlap"` on a multi-core machine, or
    /// `"channel-overhead-only"` when only one CPU is available — the
    /// spawned timing workers cannot run alongside the producer there,
    /// so their walls carry the broadcast-channel cost with none of the
    /// overlap benefit and must not be read as a regression.
    comparison: &'static str,
    /// Events in the replayed stream.
    replay_events: u64,
    /// `TimingSink::consume` events/sec, shipping memory model.
    sink_events_per_sec: SinkRates,
    /// Same replay, legacy layout + shortcuts off (PR 3 configuration).
    oracle_events_per_sec: SinkRates,
    /// Shipping model over oracle, 3-pipeline sink replay.
    sink_speedup_3p: f64,
    /// Full-backend wall seconds (spawn + broadcast + join), 3 pipelines.
    backend_wall_seconds: BackendWall,
}

#[derive(Serialize)]
struct PassRow {
    pass: String,
    runs: u64,
    insts_removed: i64,
    flags_killed: u64,
    branches_folded: u64,
    wall_ms: f64,
}

#[derive(Serialize)]
struct AnalysisBlock {
    /// Guest MIPS with the analysis passes on (shipping) vs off (the
    /// intrinsic-elision oracle) — the simulator-throughput cost of
    /// running the dataflow analyses on every translation.
    guest_mips_on: f64,
    guest_mips_off: f64,
    /// Dead `FlagsArith` definitions deleted across the run.
    flags_killed: u64,
    /// Statically folded `BrFlags`.
    branches_folded: u64,
    /// Average dead flag defs per translated region.
    flags_killed_per_translation: f64,
    /// Host instructions per guest instruction, both configurations
    /// (equal when `deadflags` fully converges and nothing folds).
    host_insts_per_guest_on: f64,
    host_insts_per_guest_off: f64,
    /// The same ratio split by owner: App-owned instructions are the
    /// translated guest code (quality of emitted code), Tol-owned are
    /// the software layer's own modeled execution (where the cost of
    /// eager flag emission plus the analysis passes shows up).
    app_insts_per_guest_on: f64,
    app_insts_per_guest_off: f64,
    tol_insts_per_guest_on: f64,
    tol_insts_per_guest_off: f64,
    /// Wall-clock milliseconds in `deadflags` + `rangesimp` (on-run).
    analysis_wall_ms: f64,
    /// Per-pass accounting with wall time, pipeline order.
    passes: Vec<PassRow>,
}

#[derive(Serialize)]
struct PolicyRow {
    installed: u64,
    flushes: u64,
    evictions: u64,
    unchains: u64,
    retranslations: u64,
    /// End-of-run fraction of the capacity allocated (live + dead).
    occupancy: f64,
    /// End-of-run fraction of allocated space that is dead (replaced
    /// blocks the flush policy cannot reclaim until the next flush).
    dead_space_ratio: f64,
    resident: u32,
    wall_seconds: f64,
}

#[derive(Serialize)]
struct CodeCacheBlock {
    /// Constrained capacity (host instructions) used for the
    /// flush-vs-fifo comparison; small enough that the quicktest
    /// working set does not fit.
    capacity: u32,
    flush: PolicyRow,
    fifo: PolicyRow,
}

#[derive(Serialize)]
struct HostBlock {
    /// Logical processors listed in `/proc/cpuinfo` (0 when the file is
    /// unavailable, e.g. off Linux).
    cpus: usize,
    /// `std::thread::available_parallelism()` — what the translation
    /// pool and `run-set` default to.
    available_parallelism: usize,
}

fn host_block() -> HostBlock {
    let cpus = std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    HostBlock {
        cpus,
        available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

#[derive(Serialize)]
struct TranslationBlock {
    /// What the sync-vs-pool wall-clock comparison measures on this
    /// host: `"overlap"` on a multi-core machine, or
    /// `"channel-overhead-only"` when only one CPU is available — the
    /// pool cannot overlap compile work with emulation there, so
    /// `speedup` hovers at or below 1.0 by construction and must not
    /// be read as a regression.
    comparison: &'static str,
    /// Pool size used for the overlapped runs.
    workers: usize,
    /// Best wall seconds with `translate_workers = 0` (synchronous).
    sync_wall_seconds: f64,
    /// Best wall seconds with the pool enabled.
    pool_wall_seconds: f64,
    /// `sync_wall_seconds / pool_wall_seconds`; on a single-core host
    /// this hovers around 1.0 (the overlap buys nothing, the channel
    /// overhead costs almost nothing).
    speedup: f64,
    /// Compile jobs handed to the pool.
    jobs_enqueued: u64,
    /// Installs that consumed a pool result instead of recompiling.
    installed_from_pool: u64,
    /// Pool results that were already finished at the install point.
    ready_at_install: u64,
    /// Install points that had to block on an in-flight job.
    stalls_at_install: u64,
    /// Pending jobs discarded because guest code pages were written
    /// between enqueue and install (SMC safety).
    discarded_smc: u64,
    /// Pending jobs discarded because the re-formed region differed
    /// from the snapshot (profile drift between enqueue and install).
    discarded_stale: u64,
    /// High-water mark of concurrently pending jobs.
    max_in_flight: u64,
    /// Total seconds workers spent compiling (summed across workers).
    worker_busy_seconds: f64,
    /// `worker_busy_seconds / (workers * pool_wall_seconds)`.
    worker_utilization: f64,
}

fn run_translation(scale: f64, workers: usize) -> (Report, darco_tol::TranslationPoolStats, f64) {
    let mut cfg = SystemConfig {
        cosim: false,
        app_only_pipeline: true,
        tol_only_pipeline: true,
        ..SystemConfig::default()
    };
    cfg.tol.translate_workers = workers;
    let w = generate(&suites::quicktest_profile(), scale);
    let mut sys = System::new(w, cfg);
    let t0 = std::time::Instant::now();
    let report = sys.run_to_completion();
    let secs = t0.elapsed().as_secs_f64();
    (report, sys.tol().pool_stats(), secs)
}

fn translation_block(scale: f64, reps: usize, workers: usize, cpus: usize) -> TranslationBlock {
    // Warm-up + best-of per configuration; counters come from the first
    // timed pool run (the wall-clock-dependent ready/stall split is the
    // only nondeterministic part).
    let (sync_report, _, _) = run_translation(scale, 0);
    let mut sync_wall = f64::MAX;
    for _ in 0..reps.max(1) {
        sync_wall = sync_wall.min(run_translation(scale, 0).2);
    }
    let (pool_report, stats, first_wall) = run_translation(scale, workers);
    let mut pool_wall = first_wall;
    for _ in 1..reps.max(1) {
        pool_wall = pool_wall.min(run_translation(scale, workers).2);
    }
    // The tentpole guarantee: the pool changes wall-clock only.
    let sync_json = serde_json::to_string(&sync_report).expect("serialize");
    let pool_json = serde_json::to_string(&pool_report).expect("serialize");
    assert_eq!(sync_json, pool_json, "translation pool changed the serialized report");
    TranslationBlock {
        comparison: if cpus <= 1 { "channel-overhead-only" } else { "overlap" },
        workers: stats.workers,
        sync_wall_seconds: sync_wall,
        pool_wall_seconds: pool_wall,
        speedup: sync_wall / pool_wall,
        jobs_enqueued: stats.jobs_enqueued,
        installed_from_pool: stats.installed_from_pool,
        ready_at_install: stats.ready_at_install,
        stalls_at_install: stats.stalls_at_install,
        discarded_smc: stats.discarded_smc,
        discarded_stale: stats.discarded_stale,
        max_in_flight: stats.max_in_flight,
        worker_busy_seconds: stats.worker_busy_ns as f64 / 1e9,
        worker_utilization: stats.worker_busy_ns as f64
            / 1e9
            / (stats.workers.max(1) as f64 * pool_wall),
    }
}

#[derive(Serialize)]
struct GuestExecBlock {
    /// Guest instructions retired to `Halt` (identical on both paths by
    /// construction — asserted).
    guest_insts: u64,
    /// Best wall seconds of the raw functional-emulation loop through
    /// the decode-per-step byte oracle (`exec::step`, width-native
    /// memory access off).
    oracle_wall_seconds: f64,
    /// Best wall seconds through the micro-op fast path (`ExecCtx` on
    /// fast-path memory).
    fast_wall_seconds: f64,
    /// Guest MIPS, byte oracle.
    oracle_mips: f64,
    /// Guest MIPS, fast path.
    fast_mips: f64,
    /// `oracle_wall_seconds / fast_wall_seconds`.
    speedup: f64,
    /// Steps served from cached micro-op buffers.
    uop_hits: u64,
    /// Blocks pre-decoded.
    blocks_built: u64,
    /// Cached blocks dropped after a generation-stamp mismatch (SMC).
    invalidations: u64,
    /// Lazy flag definitions recorded.
    flag_defs: u64,
    /// Definitions actually materialized (the gap is the win).
    flag_forces: u64,
    /// Full-system wall seconds with `guest_fast_path` off / on — the
    /// end-to-end view, where translated execution dilutes the
    /// interpreter-side gain.
    system_oracle_wall_seconds: f64,
    system_fast_wall_seconds: f64,
    /// `system_oracle_wall_seconds / system_fast_wall_seconds`.
    system_speedup: f64,
}

/// Raw functional-emulation run to `Halt` on the byte oracle.
fn run_guest_oracle(w: &darco_workloads::Workload) -> (darco_guest::CpuState, u64) {
    let mut mem = w.mem.clone();
    mem.set_fast_path(false);
    let mut cpu = w.initial.clone();
    let mut n = 0u64;
    while !cpu.halted {
        darco_guest::exec::step(&mut cpu, &mut mem).expect("oracle decode");
        n += 1;
        assert!(n < 2_000_000_000, "oracle runaway");
    }
    (cpu, n)
}

/// Raw functional-emulation run to `Halt` through the micro-op fast
/// path; lazy flags are forced at the end so the state is comparable.
fn run_guest_fast(
    w: &darco_workloads::Workload,
) -> (darco_guest::CpuState, darco_guest::GuestMem, darco_guest::FastStats) {
    let mut mem = w.mem.clone();
    let mut cpu = w.initial.clone();
    let mut ctx = darco_guest::ExecCtx::new();
    let mut n = 0u64;
    while !cpu.halted {
        ctx.step(&mut cpu, &mut mem).expect("fast decode");
        n += 1;
        assert!(n < 2_000_000_000, "fast runaway");
    }
    ctx.force_flags(&mut cpu);
    (cpu, mem, ctx.stats)
}

/// One full-system run with the guest fast path switched.
fn run_system_guest(scale: f64, fast: bool) -> (Report, f64) {
    let mut cfg = SystemConfig {
        cosim: false,
        app_only_pipeline: true,
        tol_only_pipeline: true,
        ..SystemConfig::default()
    };
    cfg.tol.guest_fast_path = fast;
    let w = generate(&suites::quicktest_profile(), scale);
    let mut sys = System::new(w, cfg);
    let t0 = std::time::Instant::now();
    let report = sys.run_to_completion();
    (report, t0.elapsed().as_secs_f64())
}

fn guest_exec_block(scale: f64, reps: usize) -> GuestExecBlock {
    let w = generate(&suites::quicktest_profile(), scale);

    // Correctness pin before the timed runs: identical final register
    // state (flags forced) and identical guest memory.
    let (oracle_cpu, guest_insts) = run_guest_oracle(&w);
    let (fast_cpu, fast_mem, stats) = run_guest_fast(&w);
    assert!(
        oracle_cpu.arch_eq(&fast_cpu),
        "guest fast path diverged from the byte oracle:\noracle: {oracle_cpu}\nfast:   {fast_cpu}"
    );
    let mut oracle_mem = w.mem.clone();
    oracle_mem.set_fast_path(false);
    let mut cpu = w.initial.clone();
    while !cpu.halted {
        darco_guest::exec::step(&mut cpu, &mut oracle_mem).expect("oracle decode");
    }
    assert_eq!(oracle_mem.first_difference(&fast_mem), None, "guest fast path diverged in memory");
    assert!(stats.uop_hits > 0, "fast path never engaged on the bench workload");

    let oracle_wall = best_of(reps, || run_guest_oracle(&w));
    let fast_wall = best_of(reps, || run_guest_fast(&w));

    let (fast_report, first_fast) = run_system_guest(scale, true);
    let mut system_fast = first_fast;
    for _ in 1..reps.max(1) {
        system_fast = system_fast.min(run_system_guest(scale, true).1);
    }
    let (oracle_report, first_oracle) = run_system_guest(scale, false);
    let mut system_oracle = first_oracle;
    for _ in 1..reps.max(1) {
        system_oracle = system_oracle.min(run_system_guest(scale, false).1);
    }
    // The tentpole guarantee: the fast path changes wall-clock only.
    let fast_json = serde_json::to_string(&fast_report).expect("serialize");
    let oracle_json = serde_json::to_string(&oracle_report).expect("serialize");
    assert_eq!(fast_json, oracle_json, "guest fast path changed the serialized report");

    GuestExecBlock {
        guest_insts,
        oracle_wall_seconds: oracle_wall,
        fast_wall_seconds: fast_wall,
        oracle_mips: guest_insts as f64 / oracle_wall / 1e6,
        fast_mips: guest_insts as f64 / fast_wall / 1e6,
        speedup: oracle_wall / fast_wall,
        uop_hits: stats.uop_hits,
        blocks_built: stats.blocks_built,
        invalidations: stats.invalidations,
        flag_defs: stats.flag_defs,
        flag_forces: stats.flag_forces,
        system_oracle_wall_seconds: system_oracle,
        system_fast_wall_seconds: system_fast,
        system_speedup: system_oracle / system_fast,
    }
}

#[derive(Serialize)]
struct BenchReport {
    benchmark: String,
    scale: f64,
    reps: usize,
    best_wall_seconds: f64,
    guest_insts: u64,
    host_events: u64,
    guest_mips: f64,
    host_events_per_sec: f64,
    mode_shares: ModeShares,
    host: HostBlock,
    timing: TimingBlock,
    analysis: AnalysisBlock,
    code_cache: CodeCacheBlock,
    translation: TranslationBlock,
    guest_exec: GuestExecBlock,
}

fn run_once(scale: f64) -> (Report, f64) {
    let cfg = SystemConfig {
        cosim: false,
        app_only_pipeline: true,
        tol_only_pipeline: true,
        ..SystemConfig::default()
    };
    let w = generate(&suites::quicktest_profile(), scale);
    let mut sys = System::new(w, cfg);
    let t0 = std::time::Instant::now();
    let report = sys.run_to_completion();
    (report, t0.elapsed().as_secs_f64())
}

/// Best-of-`reps` wall seconds of `f` (one warm-up pass first).
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let _ = f();
    let mut best = f64::MAX;
    for _ in 0..reps.max(1) {
        let t0 = std::time::Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn timing_block(reps: usize, cpus: usize) -> TimingBlock {
    let batches = record_stream();
    let events: u64 = batches.iter().map(|b| b.len() as u64).sum();
    let rate = |secs: f64| events as f64 / secs;

    let fast_1p = best_of(reps, || replay_sink(&batches, 1, true));
    let oracle_1p = best_of(reps, || replay_sink(&batches, 1, false));
    let fast_3p = best_of(reps, || replay_sink(&batches, 3, true));
    let oracle_3p = best_of(reps, || replay_sink(&batches, 3, false));
    TimingBlock {
        comparison: if cpus <= 1 { "channel-overhead-only" } else { "overlap" },
        replay_events: events,
        sink_events_per_sec: SinkRates {
            one_pipeline: rate(fast_1p),
            three_pipeline: rate(fast_3p),
        },
        oracle_events_per_sec: SinkRates {
            one_pipeline: rate(oracle_1p),
            three_pipeline: rate(oracle_3p),
        },
        sink_speedup_3p: oracle_3p / fast_3p,
        backend_wall_seconds: BackendWall {
            inline: best_of(reps, || replay_backend(&batches, TimingBackendKind::Inline)),
            threaded: best_of(reps, || replay_backend(&batches, TimingBackendKind::Threaded)),
            fanout: best_of(reps, || replay_backend(&batches, TimingBackendKind::Fanout)),
        },
    }
}

/// One run with the analysis passes toggled; returns the report, the
/// per-pass wall-clock samples, the analysis-pass total, and wall secs.
fn run_analysis(scale: f64, analysis_on: bool) -> (Report, Vec<(String, u64)>, u64, f64) {
    let mut cfg = SystemConfig {
        cosim: false,
        app_only_pipeline: true,
        tol_only_pipeline: true,
        ..SystemConfig::default()
    };
    cfg.tol.opt_deadflags = analysis_on;
    cfg.tol.opt_rangesimp = analysis_on;
    let w = generate(&suites::quicktest_profile(), scale);
    let mut sys = System::new(w, cfg);
    let t0 = std::time::Instant::now();
    let report = sys.run_to_completion();
    let secs = t0.elapsed().as_secs_f64();
    (report, sys.tol().pass_nanos().to_vec(), sys.tol().analysis_ns(), secs)
}

fn analysis_block(scale: f64, reps: usize) -> AnalysisBlock {
    // Warm-up, then best-of-reps per configuration; results are
    // deterministic, so any rep's report serves.
    let (report, nanos, analysis_ns, _) = run_analysis(scale, true);
    let mut best_on = f64::MAX;
    for _ in 0..reps.max(1) {
        best_on = best_on.min(run_analysis(scale, true).3);
    }
    let (report_off, _, _, _) = run_analysis(scale, false);
    let mut best_off = f64::MAX;
    for _ in 0..reps.max(1) {
        best_off = best_off.min(run_analysis(scale, false).3);
    }

    let c = &report.tol.counters;
    let translations = report.tol.installed.max(1);
    let passes = report
        .tol
        .pass_deltas
        .iter()
        .map(|d| PassRow {
            pass: d.pass.clone(),
            runs: d.runs,
            insts_removed: d.insts_removed,
            flags_killed: d.flags_killed,
            branches_folded: d.branches_folded,
            wall_ms: nanos.iter().find(|(p, _)| *p == d.pass).map_or(0.0, |(_, n)| *n as f64 / 1e6),
        })
        .collect();
    AnalysisBlock {
        guest_mips_on: report.guest_insts as f64 / best_on / 1e6,
        guest_mips_off: report_off.guest_insts as f64 / best_off / 1e6,
        flags_killed: c.flags_killed,
        branches_folded: c.branches_folded,
        flags_killed_per_translation: c.flags_killed as f64 / translations as f64,
        host_insts_per_guest_on: report.timing.total_insts() as f64
            / report.guest_insts.max(1) as f64,
        host_insts_per_guest_off: report_off.timing.total_insts() as f64
            / report_off.guest_insts.max(1) as f64,
        app_insts_per_guest_on: report.timing.owner_insts(Owner::App) as f64
            / report.guest_insts.max(1) as f64,
        app_insts_per_guest_off: report_off.timing.owner_insts(Owner::App) as f64
            / report_off.guest_insts.max(1) as f64,
        tol_insts_per_guest_on: report.timing.owner_insts(Owner::Tol) as f64
            / report.guest_insts.max(1) as f64,
        tol_insts_per_guest_off: report_off.timing.owner_insts(Owner::Tol) as f64
            / report_off.guest_insts.max(1) as f64,
        analysis_wall_ms: analysis_ns as f64 / 1e6,
        passes,
    }
}

/// Capacity (host instructions) for the lifecycle comparison: small
/// enough that the quicktest working set churns the cache even at the
/// default `--scale 0.05` (whose hot translations occupy ~1.6k host
/// instructions), so flush actually flushes and fifo actually evicts.
const CACHE_COMPARE_CAPACITY: u32 = 1_200;

fn run_policy(scale: f64, policy: darco_tol::codecache::CachePolicy) -> (Report, f64) {
    let mut cfg = SystemConfig { cosim: false, ..SystemConfig::default() };
    cfg.tol.code_cache_capacity = CACHE_COMPARE_CAPACITY;
    cfg.tol.cache_policy = policy;
    let w = generate(&suites::quicktest_profile(), scale);
    let mut sys = System::new(w, cfg);
    let t0 = std::time::Instant::now();
    let report = sys.run_to_completion();
    (report, t0.elapsed().as_secs_f64())
}

fn policy_row(report: &Report, wall: f64) -> PolicyRow {
    let c = &report.tol.cache;
    PolicyRow {
        installed: report.tol.installed,
        flushes: report.tol.flushes,
        evictions: c.evictions,
        unchains: c.unchains,
        retranslations: c.retranslations,
        occupancy: c.occupancy(),
        dead_space_ratio: c.dead_space_ratio(),
        resident: c.resident,
        wall_seconds: wall,
    }
}

fn code_cache_block(scale: f64, reps: usize) -> CodeCacheBlock {
    use darco_tol::codecache::CachePolicy;
    let (flush_report, _) = run_policy(scale, CachePolicy::Flush);
    let mut flush_wall = f64::MAX;
    for _ in 0..reps.max(1) {
        flush_wall = flush_wall.min(run_policy(scale, CachePolicy::Flush).1);
    }
    let (fifo_report, _) = run_policy(scale, CachePolicy::Fifo);
    let mut fifo_wall = f64::MAX;
    for _ in 0..reps.max(1) {
        fifo_wall = fifo_wall.min(run_policy(scale, CachePolicy::Fifo).1);
    }
    // The policies trade cache behavior, never guest-visible results.
    assert_eq!(
        flush_report.guest_insts, fifo_report.guest_insts,
        "cache policy changed guest-architectural execution"
    );
    CodeCacheBlock {
        capacity: CACHE_COMPARE_CAPACITY,
        flush: policy_row(&flush_report, flush_wall),
        fifo: policy_row(&fifo_report, fifo_wall),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = String::from("BENCH_report.json");
    let mut scale = 0.05;
    let mut reps = 3usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                scale = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("error: --scale needs a number");
                    std::process::exit(2)
                });
            }
            "--reps" => {
                reps = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("error: --reps needs a count");
                    std::process::exit(2)
                });
            }
            path if !path.starts_with('-') => out = path.to_owned(),
            other => {
                eprintln!("error: unknown flag {other}");
                std::process::exit(2)
            }
        }
    }

    // One warm-up run, then keep the fastest of `reps` timed runs.
    let (report, _) = run_once(scale);
    let mut best = f64::MAX;
    for _ in 0..reps.max(1) {
        let (_, secs) = run_once(scale);
        best = best.min(secs);
    }

    let dyn_dist = report.tol.dyn_dist;
    let dyn_total: u64 = dyn_dist.iter().sum();
    let share = |n: u64| n as f64 / dyn_total.max(1) as f64;
    let host = host_block();
    let cpus = host.cpus.max(host.available_parallelism);
    let summary = BenchReport {
        benchmark: report.name.clone(),
        scale,
        reps,
        best_wall_seconds: best,
        guest_insts: report.guest_insts,
        host_events: report.trace.retired,
        guest_mips: report.guest_insts as f64 / best / 1e6,
        host_events_per_sec: report.trace.retired as f64 / best,
        mode_shares: ModeShares {
            im: share(dyn_dist[0]),
            bbm: share(dyn_dist[1]),
            sbm: share(dyn_dist[2]),
        },
        host,
        timing: timing_block(reps, cpus),
        analysis: analysis_block(scale, reps),
        code_cache: code_cache_block(scale, reps),
        translation: translation_block(
            scale,
            reps,
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpus,
        ),
        guest_exec: guest_exec_block(scale, reps),
    };
    let json = serde_json::to_string_pretty(&summary).expect("serialize report");
    std::fs::write(&out, &json).unwrap_or_else(|e| {
        eprintln!("error: write {out}: {e}");
        std::process::exit(1)
    });
    println!("{json}");
    eprintln!("wrote {out}");
}
