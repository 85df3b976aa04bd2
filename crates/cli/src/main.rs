//! `darco` — the controller CLI (the paper's Fig. 2 *Controller*:
//! "the main interface of DARCO with the user. It provides full control
//! over the execution of the application, as well as debugging
//! utilities").
//!
//! ```text
//! darco list                         # the 48-benchmark roster
//! darco run <benchmark> [opts]      # full system run + report
//! darco run-set [benchmark ...]     # batch of runs across worker
//!                                    # threads (default: whole roster)
//! darco verify <benchmark> [opts]   # run with the IR verifier forced on
//! darco analyze <benchmark> [opts]  # dataflow facts + analysis-pass report
//! darco trace <benchmark> [opts]    # guest instruction trace
//! darco disasm <benchmark> [opts]   # hottest translations, disassembled
//! darco timeline <benchmark> [opts] # start-up/steady-state windows
//! darco export-profile <benchmark> <file.json>
//!                                    # dump a profile for editing
//! darco run --profile <file.json>   # run a custom edited profile
//!
//! options: --scale S            dynamic-length scale (default 0.5)
//!          --cache-policy P     code-cache overflow policy: flush
//!                               (default, whole-cache flush) or fifo
//!                               (partial eviction with space reuse and
//!                               selective unchaining)
//!          --cosim              enable co-simulation checking (run)
//!          --timing-backend B   schedule the timing simulator: auto
//!                               (default: inline on a single-CPU host,
//!                               fanout otherwise), inline, threaded
//!                               (one overlapped worker) or fanout (one
//!                               worker per pipeline); results are
//!                               bit-identical
//!          --threaded-timing    alias for --timing-backend threaded
//!          --guest-fast-path on|off
//!                               guest-layer fast path: pre-decoded
//!                               micro-op buffers with lazy flag
//!                               materialization plus width-native
//!                               memory access (default on); off runs
//!                               the decode-per-step byte oracle —
//!                               reports are byte-identical either way
//!          --translate-workers N
//!                               background translation pool size: the
//!                               Rust-side BBM/SBM compile work overlaps
//!                               with emulation on N threads, joined at
//!                               the deterministic install point so
//!                               reports are byte-identical; 0 =
//!                               synchronous oracle (default: all
//!                               available cores)
//!          --jobs N             worker threads for run-set (default:
//!                               all available cores)
//!          --n N                rows/instructions to print (trace/disasm)
//!          --json               machine-readable output (run, run-set)
//! ```

use darco_core::{Report, System, SystemConfig, TimingBackendKind};
use darco_host::{Component, HInst, Owner};
use darco_tol::codecache::{BlockKind, CachePolicy};
use darco_tol::{Tol, TolConfig};
use darco_workloads::{generate, suites, BenchProfile};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        usage();
        return;
    };
    let rest = &args[1..];
    match command.as_str() {
        "list" => list(),
        "run" => run(rest),
        "run-set" => run_set(rest),
        "verify" => verify(rest),
        "analyze" => analyze(rest),
        "trace" => trace(rest),
        "disasm" => disasm(rest),
        "timeline" => timeline(rest),
        "export-profile" => export_profile(rest),
        "--help" | "-h" | "help" => usage(),
        other => {
            eprintln!("unknown command: {other}");
            usage();
            std::process::exit(2);
        }
    }
}

fn usage() {
    eprintln!(
        "darco <list|run|run-set|verify|analyze|trace|disasm|timeline|export-profile> [benchmark ...] \
         [--profile FILE] [--scale S] [--cache-policy flush|fifo] [--cosim] \
         [--timing-backend auto|inline|threaded|fanout] [--threaded-timing] \
         [--guest-fast-path on|off] [--translate-workers N] [--jobs N] [--n N] [--json]"
    );
}

struct Opts {
    profile: BenchProfile,
    scale: f64,
    cosim: bool,
    timing_backend: TimingBackendKind,
    cache_policy: CachePolicy,
    /// `None` keeps [`TolConfig`]'s default (available parallelism).
    translate_workers: Option<usize>,
    /// `None` keeps [`TolConfig`]'s default (on).
    guest_fast_path: Option<bool>,
    n: usize,
    json: bool,
}

impl Opts {
    /// Applies the optional flags onto a TOL config.
    fn apply_tol(&self, tol: &mut TolConfig) {
        tol.cache_policy = self.cache_policy;
        if let Some(w) = self.translate_workers {
            tol.translate_workers = w;
        }
        if let Some(on) = self.guest_fast_path {
            tol.guest_fast_path = on;
        }
    }
}

fn parse_cache_policy(v: &str) -> CachePolicy {
    v.parse().unwrap_or_else(|e: String| bail(&e))
}

fn parse_backend(v: &str) -> TimingBackendKind {
    match v {
        "auto" => TimingBackendKind::Auto,
        "inline" => TimingBackendKind::Inline,
        "threaded" => TimingBackendKind::Threaded,
        "fanout" => TimingBackendKind::Fanout,
        other => bail(&format!("unknown timing backend {other} (auto|inline|threaded|fanout)")),
    }
}

fn parse_on_off(flag: &str, v: &str) -> bool {
    match v {
        "on" => true,
        "off" => false,
        other => bail(&format!("{flag} needs on|off, got {other}")),
    }
}

fn parse(rest: &[String]) -> Opts {
    let mut profile = None;
    let mut scale = 0.5;
    let mut cosim = false;
    let mut timing_backend = TimingBackendKind::Auto;
    let mut cache_policy = CachePolicy::Flush;
    let mut translate_workers = None;
    let mut guest_fast_path = None;
    let mut n = 20;
    let mut json = false;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--profile" => {
                let path = it.next().unwrap_or_else(|| bail("--profile needs a path"));
                let text = std::fs::read_to_string(path)
                    .unwrap_or_else(|e| bail(&format!("read {path}: {e}")));
                let p: BenchProfile = serde_json::from_str(&text)
                    .unwrap_or_else(|e| bail(&format!("parse {path}: {e}")));
                p.validate().unwrap_or_else(|e| bail(&format!("invalid profile: {e}")));
                profile = Some(p);
            }
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| bail("--scale needs a number"));
            }
            "--cosim" => cosim = true,
            "--timing-backend" => {
                let v = it.next().unwrap_or_else(|| bail("--timing-backend needs a mode"));
                timing_backend = parse_backend(v);
            }
            "--threaded-timing" => timing_backend = TimingBackendKind::Threaded,
            "--cache-policy" => {
                let v = it.next().unwrap_or_else(|| bail("--cache-policy needs flush|fifo"));
                cache_policy = parse_cache_policy(v);
            }
            "--translate-workers" => {
                translate_workers = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| bail("--translate-workers needs a count")),
                );
            }
            "--guest-fast-path" => {
                let v = it.next().unwrap_or_else(|| bail("--guest-fast-path needs on|off"));
                guest_fast_path = Some(parse_on_off("--guest-fast-path", v));
            }
            "--json" => json = true,
            "--n" => {
                n = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| bail("--n needs a count"));
            }
            name if !name.starts_with('-') => {
                profile = Some(suites::by_name(name).unwrap_or_else(|| {
                    if name == "quicktest" {
                        suites::quicktest_profile()
                    } else {
                        bail(&format!("unknown benchmark {name}; try `darco list`"))
                    }
                }))
            }
            other => bail(&format!("unknown flag {other}")),
        }
    }
    Opts {
        profile: profile.unwrap_or_else(suites::quicktest_profile),
        scale,
        cosim,
        timing_backend,
        cache_policy,
        translate_workers,
        guest_fast_path,
        n,
        json,
    }
}

fn bail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

// ----------------------------------------------------------------- list

fn list() {
    println!(
        "{:22} {:18} {:>8} {:>12} {:>6} {:>9}",
        "benchmark", "suite", "static", "dyn (base)", "fp%", "indirect"
    );
    for p in suites::all_profiles() {
        println!(
            "{:22} {:18} {:>8} {:>12} {:>5.0}% {:>9.5}",
            p.name,
            p.suite.label(),
            p.static_insts,
            p.dyn_base,
            p.fp_fraction * 100.0,
            p.indirect_freq,
        );
    }
    println!("\nplus `quicktest`, a small profile for experiments");
}

// ------------------------------------------------------------------ run

fn run(rest: &[String]) {
    let o = parse(rest);
    eprintln!("running {} at scale {} ...", o.profile.name, o.scale);
    let mut cfg = SystemConfig {
        cosim: o.cosim,
        timing_backend: o.timing_backend,
        ..SystemConfig::default()
    };
    o.apply_tol(&mut cfg.tol);
    let mut sys = System::new(generate(&o.profile, o.scale), cfg);
    let report = sys.run_to_completion();
    if o.json {
        println!("{}", serde_json::to_string_pretty(&report).expect("serialize"));
        return;
    }
    print_report(&report);
}

// -------------------------------------------------------------- run-set

/// `darco run-set`: runs a batch of benchmarks (the whole roster when
/// none are named) across `--jobs` worker threads. Each benchmark is an
/// independent system, so results are identical at any thread count;
/// only the wall-clock changes.
fn run_set(rest: &[String]) {
    let mut names: Vec<String> = Vec::new();
    let mut scale = 0.5;
    let mut jobs: Option<usize> = None;
    let mut cosim = false;
    let mut timing_backend = TimingBackendKind::Auto;
    let mut cache_policy = CachePolicy::Flush;
    let mut translate_workers: Option<usize> = None;
    let mut guest_fast_path: Option<bool> = None;
    let mut json = false;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| bail("--scale needs a number"));
            }
            "--jobs" => {
                let n: usize = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| bail("--jobs needs a thread count"));
                if n == 0 {
                    bail("--jobs must be at least 1");
                }
                jobs = Some(n);
            }
            "--cosim" => cosim = true,
            "--timing-backend" => {
                let v = it.next().unwrap_or_else(|| bail("--timing-backend needs a mode"));
                timing_backend = parse_backend(v);
            }
            "--threaded-timing" => timing_backend = TimingBackendKind::Threaded,
            "--cache-policy" => {
                let v = it.next().unwrap_or_else(|| bail("--cache-policy needs flush|fifo"));
                cache_policy = parse_cache_policy(v);
            }
            "--translate-workers" => {
                translate_workers = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| bail("--translate-workers needs a count")),
                );
            }
            "--guest-fast-path" => {
                let v = it.next().unwrap_or_else(|| bail("--guest-fast-path needs on|off"));
                guest_fast_path = Some(parse_on_off("--guest-fast-path", v));
            }
            "--json" => json = true,
            name if !name.starts_with('-') => names.push(name.to_owned()),
            other => bail(&format!("unknown flag {other}")),
        }
    }
    let profiles: Vec<BenchProfile> = if names.is_empty() {
        suites::all_profiles()
    } else {
        names
            .iter()
            .map(|n| {
                suites::by_name(n).unwrap_or_else(|| {
                    if n == "quicktest" {
                        suites::quicktest_profile()
                    } else {
                        bail(&format!("unknown benchmark {n}; try `darco list`"))
                    }
                })
            })
            .collect()
    };
    let jobs = jobs.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    let mut cfg = darco_core::RunConfig { scale, cosim, timing_backend, ..Default::default() };
    cfg.tol.cache_policy = cache_policy;
    if let Some(w) = translate_workers {
        cfg.tol.translate_workers = w;
    }
    if let Some(on) = guest_fast_path {
        cfg.tol.guest_fast_path = on;
    }
    eprintln!("running {} benchmark(s) at scale {scale} on {jobs} thread(s) ...", profiles.len());
    let t0 = std::time::Instant::now();
    let runs = darco_core::experiments::run_set_parallel(&profiles, &cfg, jobs);
    let elapsed = t0.elapsed();
    if json {
        println!("{}", serde_json::to_string_pretty(&runs).expect("serialize"));
    } else {
        println!(
            "{:22} {:>14} {:>14} {:>7} {:>9}",
            "benchmark", "guest insts", "host cycles", "IPC", "TOL ovh"
        );
        for r in &runs {
            println!(
                "{:22} {:>14} {:>14} {:>7.3} {:>8.1}%",
                r.name,
                r.report.guest_insts,
                r.report.timing.total_cycles,
                r.report.timing.ipc(),
                r.report.timing.tol_overhead_share() * 100.0,
            );
        }
    }
    eprintln!("run-set: {} benchmark(s) in {:.2?} with --jobs {jobs}", runs.len(), elapsed);
}

// --------------------------------------------------------------- verify

/// `darco verify`: a full run with co-simulation on and the IR verifier
/// forced on (structural invariants plus translation validation after
/// every optimization pass), even in release builds. Exits nonzero if
/// any superblock failed verification.
fn verify(rest: &[String]) {
    let o = parse(rest);
    eprintln!("verifying {} at scale {} ...", o.profile.name, o.scale);
    let mut cfg = SystemConfig { cosim: true, ..SystemConfig::default() };
    o.apply_tol(&mut cfg.tol);
    cfg.tol.verify = true;
    let mut sys = System::new(generate(&o.profile, o.scale), cfg);
    let report = sys.run_to_completion();
    if o.json {
        println!("{}", serde_json::to_string_pretty(&report).expect("serialize"));
    } else {
        print_report(&report);
    }
    let c = &report.tol.counters;
    if c.verify_failures > 0 {
        eprintln!(
            "verify: FAIL — {} superblock(s) rejected by the verifier \
             (miscompiling pass reported above)",
            c.verify_failures
        );
        std::process::exit(1);
    }
    eprintln!(
        "verify: OK — {} superblock(s) verified, {} co-sim checks passed",
        c.verified_blocks, report.cosim_checks
    );
}

// -------------------------------------------------------------- analyze

/// `darco analyze`: a full run followed by the static-analysis report —
/// per-region known-bits/liveness facts for the hottest translations
/// (what `deadflags`/`rangesimp` saw), the per-pass instruction deltas,
/// and the aggregate analysis counters. `--n` bounds how many regions
/// are dumped.
fn analyze(rest: &[String]) {
    let o = parse(rest);
    eprintln!("analyzing {} at scale {} ...", o.profile.name, o.scale);
    let w = generate(&o.profile, o.scale);
    // Pre-execution snapshot of guest memory, for re-decoding the
    // regions the layer translated (workload code is not self-modifying).
    let analysis_mem = w.mem.clone();
    let mut cfg = SystemConfig {
        cosim: o.cosim,
        timing_backend: o.timing_backend,
        ..SystemConfig::default()
    };
    o.apply_tol(&mut cfg.tol);
    let mut sys = System::new(w, cfg);
    let report = sys.run_to_completion();
    if o.json {
        println!("{}", serde_json::to_string_pretty(&report).expect("serialize"));
        return;
    }
    let tol = sys.tol();

    // Hottest translated regions, deduplicated by guest entry.
    let mut blocks: Vec<(u32, u64)> =
        tol.cc.blocks().map(|(_, b)| (b.guest_entry, b.exec_count)).collect();
    blocks.sort_by_key(|&(entry, execs)| (std::cmp::Reverse(execs), entry));
    let mut seen = std::collections::HashSet::new();
    let mut dumped = 0usize;
    for &(entry, _) in &blocks {
        if dumped >= o.n {
            break;
        }
        if !seen.insert(entry) {
            continue;
        }
        match darco_tol::analyze_region_text(&analysis_mem, entry) {
            Ok(text) => {
                println!("{text}");
                dumped += 1;
            }
            Err(e) => eprintln!("region {entry:#x}: decode fault: {e}"),
        }
    }

    // Per-pass deltas with the wall-clock timing the serialized report
    // deliberately omits.
    let nanos = tol.pass_nanos();
    println!(
        "{:18} {:>7} {:>14} {:>13} {:>16} {:>10}",
        "pass", "runs", "insts removed", "flags killed", "branches folded", "time"
    );
    for d in &report.tol.pass_deltas {
        let ns = nanos.iter().find(|(p, _)| *p == d.pass).map_or(0, |(_, n)| *n);
        println!(
            "{:18} {:>7} {:>14} {:>13} {:>16} {:>9.2}ms",
            d.pass,
            d.runs,
            d.insts_removed,
            d.flags_killed,
            d.branches_folded,
            ns as f64 / 1e6,
        );
    }
    let c = &report.tol.counters;
    println!(
        "\nanalysis: {} dead FlagsArith killed, {} branches folded, {:.2}ms in analysis passes",
        c.flags_killed,
        c.branches_folded,
        tol.analysis_ns() as f64 / 1e6,
    );
    println!(
        "host insts {} over {} guest insts ({:.3} host/guest)",
        report.timing.total_insts(),
        report.guest_insts,
        report.timing.total_insts() as f64 / report.guest_insts.max(1) as f64,
    );
    // The owner split separates translated-code quality (App) from the
    // software layer's own modeled execution (Tol).
    let guests = report.guest_insts.max(1) as f64;
    println!(
        "  app-owned {:.3} host/guest, tol-owned {:.3} host/guest",
        report.timing.owner_insts(Owner::App) as f64 / guests,
        report.timing.owner_insts(Owner::Tol) as f64 / guests,
    );
}

fn print_report(r: &Report) {
    println!("benchmark          : {}", r.name);
    println!("guest instructions : {}", r.guest_insts);
    println!("host instructions  : {}", r.timing.total_insts());
    println!("host cycles        : {}", r.timing.total_cycles);
    println!("IPC                : {:.3}", r.timing.ipc());
    println!("TOL overhead       : {:.1}%", r.timing.tol_overhead_share() * 100.0);
    if r.cosim_checks > 0 {
        println!("co-sim checks      : {} (all passed)", r.cosim_checks);
    }
    println!(
        "event stream       : {} events in {} batches (largest {})",
        r.trace.retired, r.trace.batches, r.trace.max_batch
    );
    println!("\ntime by component:");
    for c in Component::ALL {
        println!("  {:14} {:6.2}%", c.label(), r.timing.component_share(c) * 100.0);
    }
    println!("\nsoftware layer:");
    let s = &r.tol;
    println!("  static  [IM,BBM,SBM]: {:?}", s.static_dist);
    println!("  dynamic [IM,BBM,SBM]: {:?}", s.dyn_dist);
    println!(
        "  translations {} / superblocks {} / chains {} / flushes {}",
        s.installed, s.counters.sbm_invocations, s.chains, s.flushes
    );
    println!(
        "  cache: {:.1}% occupied ({:.1}% dead) / {} evictions ({} smc) / {} unchains / {} retranslations",
        s.cache.occupancy() * 100.0,
        s.cache.dead_space_ratio() * 100.0,
        s.cache.evictions,
        s.cache.smc_evictions,
        s.cache.unchains,
        s.cache.retranslations
    );
    println!(
        "  indirect branches {} / IBTC {} hits {} misses",
        s.counters.indirect_branches, s.ibtc_hits, s.ibtc_misses
    );
    if s.counters.verified_blocks > 0 || s.counters.verify_failures > 0 {
        println!(
            "  verifier: {} blocks verified / {} differential fallbacks / {} failures",
            s.counters.verified_blocks, s.counters.tv_differential, s.counters.verify_failures
        );
    }
    println!(
        "\ncaches: APP D$ miss {:.2}%  APP I$ miss {:.2}%  TOL D$ miss {:.2}%  BP miss {:.2}%",
        r.timing.d_miss_rate(Owner::App) * 100.0,
        r.timing.i_miss_rate(Owner::App) * 100.0,
        r.timing.d_miss_rate(Owner::Tol) * 100.0,
        r.timing.mispredict_rate(Owner::App) * 100.0,
    );
}

// ---------------------------------------------------------------- trace

fn trace(rest: &[String]) {
    let o = parse(rest);
    let w = generate(&o.profile, o.scale);
    let mut mem = w.mem.clone();
    let mut cpu = w.initial.clone();
    println!("first {} guest instructions of {}:", o.n, w.name);
    for i in 0..o.n {
        if cpu.halted {
            println!("[halted]");
            break;
        }
        let pc = cpu.eip;
        match darco_guest::exec::step(&mut cpu, &mut mem) {
            Ok(info) => println!("{i:6}  {pc:#010x}  {}", info.inst),
            Err(e) => {
                println!("{i:6}  {pc:#010x}  <decode fault: {e}>");
                break;
            }
        }
    }
}

// --------------------------------------------------------------- disasm

fn disasm(rest: &[String]) {
    let o = parse(rest);
    let w = generate(&o.profile, o.scale);
    let mut mem = w.mem.clone();
    let mut tol_cfg = TolConfig { bb_sb_threshold: 50, ..TolConfig::default() };
    o.apply_tol(&mut tol_cfg);
    let mut tol = Tol::new(tol_cfg, w.entry);
    tol.set_state(&w.initial);
    let mut sink = darco_host::NullSink;
    tol.run(&mut mem, &mut sink, u64::MAX).expect("run");

    // Rank resident translations by execution count.
    let mut blocks: Vec<darco_host::BlockId> = tol.cc.blocks().map(|(id, _)| id).collect();
    blocks.sort_by_key(|&b| {
        let blk = tol.cc.block(b).expect("resident block");
        (std::cmp::Reverse(blk.exec_count), blk.guest_entry)
    });
    println!(
        "hottest {} of {} resident translations in {}:",
        o.n.min(blocks.len()),
        tol.cc.resident(),
        w.name
    );
    for &b in blocks.iter().take(o.n) {
        let blk = tol.cc.block(b).expect("resident block");
        let kind = match blk.kind {
            BlockKind::Bb => "BBM",
            BlockKind::Sb => "SBM",
        };
        println!(
            "\nblock {b} [{kind}] guest {:#x} ({} guest insts, {} host insts, {} executions)",
            blk.guest_entry,
            blk.guest_len,
            blk.insts.len(),
            blk.exec_count
        );
        for (i, inst) in blk.insts.iter().enumerate() {
            let marker = if i as u32 == blk.body_len { "  --- exits ---\n" } else { "" };
            print!("{marker}");
            println!("  {:#010x}  {}", blk.host_base + 4 * i as u64, inst);
            if matches!(inst, HInst::Exit(_)) && i as u32 > blk.body_len + blk.stubs_len() {
                break;
            }
        }
    }
}

// ------------------------------------------------------------- timeline

fn timeline(rest: &[String]) {
    let o = parse(rest);
    let mut cfg =
        SystemConfig { cosim: false, window_guest_insts: 50_000, ..SystemConfig::default() };
    o.apply_tol(&mut cfg.tol);
    let mut sys = System::new(generate(&o.profile, o.scale), cfg);
    let r = sys.run_to_completion();
    println!(
        "{}: per-window (50K guest insts) cycles and TOL share — the start-up transient:",
        r.name
    );
    println!("{:>12} {:>12} {:>10}", "guest insts", "cycles", "TOL share");
    for w in r.timeline.iter().take(o.n) {
        println!("{:>12} {:>12} {:>9.1}%", w.guest_insts, w.cycles, w.overhead_share() * 100.0);
    }
}

// A tiny extension trait so disasm can know where stubs end.
trait StubsLen {
    fn stubs_len(&self) -> u32;
}

impl StubsLen for darco_tol::codecache::TranslatedBlock {
    fn stubs_len(&self) -> u32 {
        self.stub_guest_counts.len() as u32
    }
}

// -------------------------------------------------------- export-profile

fn export_profile(rest: &[String]) {
    let (Some(name), Some(path)) = (rest.first(), rest.get(1)) else {
        bail("usage: darco export-profile <benchmark> <file.json>")
    };
    let profile = suites::by_name(name).unwrap_or_else(|| {
        if name == "quicktest" {
            suites::quicktest_profile()
        } else {
            bail(&format!("unknown benchmark {name}"))
        }
    });
    let json = serde_json::to_string_pretty(&profile).expect("serialize profile");
    std::fs::write(path, json).unwrap_or_else(|e| bail(&format!("write {path}: {e}")));
    eprintln!("wrote {path}; edit it and run `darco run --profile {path}`");
}
