//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--scale <x>] [--trace-out <dir>]
//! ```
//!
//! Runs one workload through the simulator's public entry points for
//! `--seconds` and prints, as the last line of standard output, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones (guest MIPS of
//! `System::run_to_completion`, CPU seconds per run, set-up seconds,
//! peak memory); with `--trace 1` they are the per-layer ones, taken
//! from a traced runner that times every call into a layer from here
//! (see `traced.rs`), beside untraced runs that give the tracing
//! overhead.
//!
//! The seed replaces the workload profile's `BenchProfile::seed`; the
//! simulator sees only the generated program. Every run's serialized
//! `Report` is hashed: all runs of a process, traced or not, must give
//! the same `report_digest`, and a run that panics, diverges under
//! co-simulation or gives another digest counts as failed. A traced run
//! also fails when its layer spans leave more than 3% of its wall time
//! unattributed, or when a standalone pass of the authoritative emulator
//! retires another instruction count or ends in another state. Results
//! recorded per seed (`pinned.rs`) fail every run on a mismatch.

mod host;
mod pinned;
mod trace;
mod traced;

use darco_core::{run_bench, Report, RunConfig, System, SystemConfig};
use darco_workloads::{generate, suites, BenchProfile};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{Layer, Tracer};

/// One benchmark workload. Each stresses a different layer of the
/// simulator, so a change to one layer moves one workload and leaves
/// another as its control.
struct Spec {
    name: &'static str,
    /// `darco_workloads::suites` profile.
    profile: &'static str,
    /// Why the workload is in the benchmark.
    why: &'static str,
    /// Dynamic-length scale of the generated program.
    scale: f64,
    /// The system configuration the run uses.
    config: fn() -> SystemConfig,
    /// Warm up through `darco_core::run_bench`, the entry point the
    /// `figures` binary uses, instead of `System::new` directly.
    via_run_bench: bool,
}

/// `BENCHMARK.json` times `perlbench-cosim` and `lbm-figures`; the time
/// budget of its runs leaves no room for a third workload at a length
/// that keeps the figures steady on a noisy 2-vCPU host, so
/// `gcc-startup`, the translation-heaviest case, is runnable by name only.
const SPECS: [Spec; 3] = [
    Spec {
        name: "gcc-startup",
        profile: "403.gcc",
        why: "start-up and translation heavy: 48k static instructions, thousands of \
              translations; interpreter, translator and code-cache lookup do most of the \
              work, timing runs on the fan-out worker off the critical path",
        scale: 1.0,
        config: || SystemConfig { cosim: false, ..SystemConfig::default() },
        via_run_bench: false,
    },
    Spec {
        name: "perlbench-cosim",
        profile: "400.perlbench",
        why: "co-simulation on: the authoritative emulator steps every guest instruction \
              again and checks state at every step boundary; the indirect-branch (IBTC) \
              heavy profile",
        scale: 1.0,
        config: || SystemConfig { cosim: true, ..SystemConfig::default() },
        via_run_bench: false,
    },
    Spec {
        name: "lbm-figures",
        profile: "470.lbm",
        why: "what the figures binary runs: run_bench defaults, three timing pipelines \
              inline on the emulation thread; steady state in superblocks, so timing is \
              on the critical path",
        scale: 2.0,
        config: run_bench_config,
        via_run_bench: true,
    },
];

/// The `SystemConfig` that `run_bench` builds from `RunConfig::default()`.
fn run_bench_config() -> SystemConfig {
    let rc = RunConfig::default();
    SystemConfig {
        tol: rc.tol,
        timing: rc.timing,
        cosim: rc.cosim,
        app_only_pipeline: true,
        tol_only_pipeline: true,
        timing_backend: rc.timing_backend,
        ..SystemConfig::default()
    }
}

/// The per-layer metrics a traced process prints, with their units; the
/// same list as `per_layer` in `BENCHMARK.json`.
const PER_LAYER: &[(&str, &str)] = &[
    ("traced_wall_s", "s"),
    ("layer_coverage", "ratio"),
    ("trace_overhead", "ratio"),
    ("workloads.generate_s", "s"),
    ("core.system_new_s", "s"),
    ("tol.im_self_s", "s"),
    ("tol.bbm_self_s", "s"),
    ("tol.sbm_self_s", "s"),
    ("tol.passes_s", "s"),
    ("tol.analysis_s", "s"),
    ("tol.pool_busy_s", "s"),
    ("tol.pool_stalls", "count"),
    ("tol.pool_discard_ratio", "ratio"),
    ("tol.translations", "count"),
    ("tol.superblocks", "count"),
    ("tol.chains", "count"),
    ("tol.ibtc_hit_ratio", "ratio"),
    ("tol.retranslations", "count"),
    ("tol.dyn_share_im", "ratio"),
    ("tol.dyn_share_bbm", "ratio"),
    ("tol.dyn_share_sbm", "ratio"),
    ("tol.host_insts_per_guest", "ratio"),
    ("guest.exec_mips", "MIPS"),
    ("guest.uop_hits", "count"),
    ("guest.blocks_built", "count"),
    ("guest.flag_force_ratio", "ratio"),
    ("core.checker_s", "s"),
    ("core.step_boundary_s", "s"),
    ("core.memory_check_s", "s"),
    ("core.checker_checks", "count"),
    ("core.timing_send_s", "s"),
    ("core.timing_drain_s", "s"),
    ("core.timing_worker_cpu_s", "s"),
    ("host.trace_stats_s", "s"),
    ("host.events", "count"),
    ("host.batches", "count"),
    ("host.events_per_batch", "ratio"),
    ("timing.memo_hit_ratio", "ratio"),
    ("timing.insts_replayed_share", "ratio"),
    ("timing.sim_cycles", "cycles"),
    ("timing.ipc", "ratio"),
    ("timing.tol_overhead_share", "ratio"),
];

/// Fewest measured runs per process, whatever `--seconds` says.
const MIN_RUNS: usize = 3;
/// Set-ups timed per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Measuring stops starting new runs after this long, so that a process
/// ends well inside the 180 s a benchmark run may take.
const HARD_STOP: Duration = Duration::from_secs(120);
/// Traced runs must attribute at least this share of their wall time to
/// layer spans; the rest is the benchmark's own loop.
const MIN_LAYER_COVERAGE: f64 = 0.97;
/// Spans written to the Chrome trace file of one traced run.
const TRACE_FILE_SPANS: usize = 400_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Option<f64>,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut scale, mut trace_out) = (None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {v}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(v),
            "--seed" => seed = Some(v.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(v.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--scale" => scale = Some(v.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace-out" => trace_out = Some(v),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let required = |f: &str| format!("{f} is required");
    let a = Args {
        workload: workload.ok_or(required("--workload"))?,
        seed: seed.ok_or(required("--seed"))?,
        seconds: seconds.ok_or(required("--seconds"))?,
        trace: trace.ok_or(required("--trace"))?,
        scale,
        trace_out,
    };
    if !(a.seconds > 0.0 && a.seconds <= 60.0) {
        return Err(format!("--seconds {} outside (0, 60]", a.seconds));
    }
    if let Some(s) = a.scale {
        if !(s > 0.0 && s <= 4.0) {
            return Err(format!("--scale {s} outside (0, 4]"));
        }
    }
    Ok(a)
}

/// FNV-1a over the serialized report: a digest that is stable across
/// builds and toolchains, unlike `std`'s default hasher.
fn report_digest(r: &Report) -> u64 {
    let json = serde_json::to_string(r).expect("serialize report");
    json.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One untraced run: `SETUP_REPS` timed set-ups, then the last system's
/// run call alone under the clocks.
struct Sample {
    setup_s: Vec<f64>,
    wall_s: f64,
    cpu_s: f64,
    report: Report,
    threads: BTreeMap<String, usize>,
}

fn untraced(profile: &BenchProfile, scale: f64, cfg: &SystemConfig) -> Sample {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut sys = None;
    for _ in 0..SETUP_REPS {
        drop(sys.take());
        let t0 = Instant::now();
        let w = generate(profile, scale);
        sys = Some(System::new(w, cfg.clone()));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut sys = sys.expect("at least one set-up");
    let cpu0 = host::process_cpu_s();
    let t1 = Instant::now();
    let report = sys.run_to_completion();
    let wall_s = t1.elapsed().as_secs_f64();
    let cpu_s = host::process_cpu_s() - cpu0;
    let threads = host::thread_census(&host::tasks());
    Sample { setup_s, wall_s, cpu_s, report, threads }
}

/// Runs `f`, turning a panic into an error message.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into())
    })
}

/// Attempt and failure counts plus the digest every run must match.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    digest: Option<u64>,
    /// Guest instructions and simulated cycles of the first report.
    reference: Option<(u64, u64)>,
}

impl Tally {
    /// Whether `rep` carries the digest every run must share; the first
    /// report checked sets it.
    fn same_digest(&mut self, label: &str, rep: &Report) -> bool {
        let d = report_digest(rep);
        let want = *self.digest.get_or_insert(d);
        self.reference.get_or_insert((rep.guest_insts, rep.timing.total_cycles));
        if want != d {
            eprintln!("perfbench: {label} run report_digest {d:016x} != {want:016x}");
        }
        want == d
    }

    /// Counts one attempted run.
    fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Counts one run that panicked.
    fn panicked(&mut self, label: &str, msg: &str) {
        eprintln!("perfbench: {label} run failed: {msg}");
        self.count(false);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = SPECS.iter().find(|s| s.name == args.workload) else {
        let names: Vec<_> = SPECS.iter().map(|s| s.name).collect();
        eprintln!("perfbench: unknown workload {:?}; one of {names:?}", args.workload);
        return ExitCode::from(2);
    };
    let mut profile = suites::by_name(spec.profile).expect("profile in the suite roster");
    profile.seed = args.seed;
    let scale = args.scale.unwrap_or(spec.scale);
    let cfg = (spec.config)();
    println!(
        "perfbench: workload={} profile={} seed={} scale={scale} trace={}",
        spec.name,
        spec.profile,
        args.seed,
        u8::from(args.trace)
    );
    println!("perfbench: why: {}", spec.why);

    let mut tally = Tally::default();

    // Warm-up, not timed: fills the allocator and page cache and, for
    // the figures workload, runs the real `run_bench` entry point, whose
    // digest every later run must then match.
    let warm = guarded(|| {
        if spec.via_run_bench {
            run_bench(&profile, &RunConfig { scale, ..RunConfig::default() }).report
        } else {
            untraced(&profile, scale, &cfg).report
        }
    });
    match &warm {
        Ok(rep) => {
            let ok = tally.same_digest("warm-up", rep);
            tally.count(ok);
        }
        Err(msg) => tally.panicked("warm-up", msg),
    }
    // Peak memory of a fresh process that has set up and run the
    // workload once; later runs would add allocator growth from the
    // worker threads each run starts and stops.
    let peak_rss_mb = host::peak_rss_mb();

    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut samples: Vec<Sample> = Vec::new();
    let mut traced: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut threads = BTreeMap::new();
    let mut tracer = Tracer::new();
    let mut host_events = None;
    let mut last_round = Duration::ZERO;
    let mut rounds = 0;
    loop {
        // Start no round that would end past the budget.
        let elapsed = start.elapsed();
        if (rounds >= MIN_RUNS && elapsed + last_round > budget) || elapsed >= HARD_STOP {
            break;
        }
        rounds += 1;
        let round = Instant::now();
        match guarded(|| untraced(&profile, scale, &cfg)) {
            Ok(s) => {
                let ok = tally.same_digest("untraced", &s.report);
                tally.count(ok);
                if !args.trace {
                    threads.clone_from(&s.threads);
                }
                samples.push(s);
            }
            Err(msg) => tally.panicked("untraced", &msg),
        }
        if args.trace {
            tracer.set_run(rounds as u32);
            match guarded(|| traced::run(&profile, scale, &cfg, &mut tracer)) {
                Ok(t) => {
                    let selfs = tracer.self_seconds();
                    let covered = 1.0 - selfs[Layer::Run as usize] / t.run_wall_s;
                    let mut ok = tally.same_digest("traced", &t.report);
                    if covered < MIN_LAYER_COVERAGE {
                        eprintln!("perfbench: layer spans cover {covered:.4} of the traced wall");
                        ok = false;
                    }
                    if t.exec_retired != t.report.guest_insts {
                        eprintln!(
                            "perfbench: standalone guest pass retired {} != {}",
                            t.exec_retired, t.report.guest_insts
                        );
                        ok = false;
                    }
                    tally.count(ok);
                    if traced.is_empty() {
                        if let Some(dir) = &args.trace_out {
                            write_trace(&tracer, dir, spec.name, args.seed);
                        }
                        threads.clone_from(&t.threads);
                    }
                    host_events = Some(t.events);
                    traced.push(layer_metrics(&t, &selfs, covered));
                }
                Err(msg) => tally.panicked("traced", &msg),
            }
            tracer.clear();
        }
        last_round = round.elapsed();
    }

    let pinned = tally.reference.and_then(|(insts, cycles)| {
        pinned::check(spec.name, args.seed, scale == spec.scale, insts, cycles, host_events)
    });
    let pin_ok = !matches!(pinned, Some(pinned::Verdict::Mismatch(_)));
    if !pin_ok {
        tally.failed = tally.attempted;
    }

    let resolved = cfg.timing_backend.resolve();
    println!(
        "perfbench: host {{\"nproc\":{},\"available_parallelism\":{},\"timing_backend\":\"{resolved:?}\",\
         \"translate_workers\":{},\"threads_{}\":{}}}",
        host::nproc(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        cfg.tol.translate_workers,
        if args.trace { "before_timing_drain" } else { "after_run" },
        census_json(&threads),
    );
    if let Some(d) = tally.digest {
        println!("perfbench: report_digest {d:016x}");
    }
    if let Some((insts, cycles)) = tally.reference {
        println!(
            "perfbench: guest_insts {insts} timing.sim_cycles {cycles} host.events {}",
            host_events.map_or("-".into(), |e| e.to_string())
        );
    }
    if let Some(v) = &pinned {
        println!("perfbench: pinned {}", v.describe());
    }

    let good = tally.failed == 0 && pin_ok;
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if !samples.is_empty() && (!args.trace || !traced.is_empty()) {
        if args.trace {
            let untraced_wall = median(&samples.iter().map(|s| s.wall_s).collect::<Vec<_>>());
            for (name, unit) in PER_LAYER {
                let v = if *name == "trace_overhead" {
                    median(&traced.iter().map(|m| m["traced_wall_s"]).collect::<Vec<_>>())
                        / untraced_wall
                        - 1.0
                } else {
                    median(&traced.iter().map(|m| m[name]).collect::<Vec<_>>())
                };
                metrics.push((name.to_string(), v, unit));
            }
        } else {
            let col = |f: fn(&Sample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
            metrics.push((
                "guest_mips".into(),
                col(|s| s.report.guest_insts as f64 / s.wall_s / 1e6),
                "MIPS",
            ));
            metrics.push(("cpu_s".into(), col(|s| s.cpu_s), "s"));
            let setups: Vec<f64> = samples.iter().flat_map(|s| s.setup_s.iter().copied()).collect();
            metrics.push(("setup_s".into(), median(&setups), "s"));
            metrics.push(("peak_rss_mb".into(), peak_rss_mb, "MB"));
        }
    }
    if metrics.is_empty() {
        eprintln!("perfbench: no successful run to measure");
        return ExitCode::FAILURE;
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", json_num(*v)))
        .collect();
    println!(
        "{{\"correct\":{good},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(",")
    );
    ExitCode::SUCCESS
}

/// A finite JSON number with all its digits.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn census_json(m: &BTreeMap<String, usize>) -> String {
    let parts: Vec<String> = m.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", parts.join(","))
}

/// The per-layer metrics of one traced run, keyed like `BENCHMARK.json`.
fn layer_metrics(
    t: &traced::Traced,
    selfs: &[f64; Layer::COUNT],
    covered: f64,
) -> BTreeMap<&'static str, f64> {
    let r = &t.report;
    let sf = |l: Layer| selfs[l as usize];
    let dyn_total: u64 = r.tol.dyn_dist.iter().sum();
    let mut m = BTreeMap::new();
    m.insert("traced_wall_s", t.run_wall_s);
    m.insert("layer_coverage", covered);
    m.insert("workloads.generate_s", sf(Layer::Generate));
    m.insert("core.system_new_s", sf(Layer::SystemNew));
    m.insert("tol.im_self_s", sf(Layer::TolIm));
    m.insert("tol.bbm_self_s", sf(Layer::TolBbm));
    m.insert("tol.sbm_self_s", sf(Layer::TolSbm));
    m.insert("tol.passes_s", t.passes_s);
    m.insert("tol.analysis_s", t.analysis_s);
    m.insert("tol.pool_busy_s", t.pool.worker_busy_ns as f64 * 1e-9);
    m.insert("tol.pool_stalls", t.pool.stalls_at_install as f64);
    m.insert(
        "tol.pool_discard_ratio",
        ratio(t.pool.discarded_smc + t.pool.discarded_stale, t.pool.jobs_enqueued),
    );
    m.insert("tol.translations", r.tol.installed as f64);
    m.insert("tol.superblocks", r.tol.counters.sbm_invocations as f64);
    m.insert("tol.chains", r.tol.chains as f64);
    m.insert("tol.ibtc_hit_ratio", ratio(r.tol.ibtc_hits, r.tol.ibtc_hits + r.tol.ibtc_misses));
    m.insert("tol.retranslations", r.tol.cache.retranslations as f64);
    m.insert("tol.dyn_share_im", ratio(r.tol.dyn_dist[0], dyn_total));
    m.insert("tol.dyn_share_bbm", ratio(r.tol.dyn_dist[1], dyn_total));
    m.insert("tol.dyn_share_sbm", ratio(r.tol.dyn_dist[2], dyn_total));
    m.insert("tol.host_insts_per_guest", ratio(r.timing.total_insts(), r.guest_insts));
    m.insert("guest.exec_mips", t.exec_retired as f64 / t.exec_wall_s / 1e6);
    m.insert("guest.uop_hits", t.fast.uop_hits as f64);
    m.insert("guest.blocks_built", t.fast.blocks_built as f64);
    m.insert("guest.flag_force_ratio", ratio(t.fast.flag_forces, t.fast.flag_defs));
    m.insert("core.checker_s", sf(Layer::Checker));
    m.insert("core.step_boundary_s", sf(Layer::StepBoundary));
    m.insert("core.memory_check_s", sf(Layer::MemoryCheck));
    m.insert("core.checker_checks", r.cosim_checks as f64);
    m.insert("core.timing_send_s", sf(Layer::TimingSend));
    m.insert("core.timing_drain_s", sf(Layer::TimingDrain));
    m.insert("core.timing_worker_cpu_s", t.timing_worker_cpu_s);
    m.insert("host.trace_stats_s", sf(Layer::TraceStats));
    m.insert("host.events", t.events as f64);
    m.insert("host.batches", t.batches as f64);
    m.insert("host.events_per_batch", ratio(t.events, t.batches));
    m.insert("timing.memo_hit_ratio", ratio(t.memo.hits, t.memo.hits + t.memo.precondition_misses));
    let pipeline_insts = r.timing.total_insts()
        + r.app_only.as_ref().map_or(0, |s| s.total_insts())
        + r.tol_only.as_ref().map_or(0, |s| s.total_insts());
    m.insert("timing.insts_replayed_share", ratio(t.memo.insts_replayed, pipeline_insts));
    m.insert("timing.sim_cycles", r.timing.total_cycles as f64);
    m.insert("timing.ipc", r.timing.ipc());
    m.insert("timing.tol_overhead_share", r.timing.tol_overhead_share());
    m
}

/// Writes the kept spans of one traced run as Chrome trace-event JSON.
fn write_trace(tr: &Tracer, dir: &str, workload: &str, seed: u64) {
    let path = std::path::Path::new(dir).join(format!("{workload}-seed{seed}.trace.json"));
    let meta = format!("\"workload\":\"{workload}\",\"seed\":{seed}");
    let res = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, tr.chrome_json(TRACE_FILE_SPANS, &meta)));
    match res {
        Ok(()) => println!("perfbench: trace {} ({} spans kept)", path.display(), tr.len()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}
