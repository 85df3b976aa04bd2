//! Determinism of the host-event stream across timing-sink schedules.
//!
//! The contract of the event bus (DESIGN.md §9) is that consumers see
//! the exact retire-order stream in the exact same batches regardless of
//! where they run. These tests pin the strongest observable consequence:
//! a run with the timing pipelines overlapped on one worker thread
//! (`Threaded`) or fanned out one worker per pipeline (`Fanout`)
//! produces a byte-identical [`Report`] to the inline run — at any
//! event-batch size.
//!
//! [`Report`]: darco::core::Report

use darco::core::{Report, System, SystemConfig, TimingBackendKind};
use darco::workloads::{generate, suites};

const BACKENDS: [TimingBackendKind; 3] =
    [TimingBackendKind::Inline, TimingBackendKind::Threaded, TimingBackendKind::Fanout];

fn run_with(
    profile_idx: usize,
    scale: f64,
    backend: TimingBackendKind,
    cosim: bool,
    event_batch: usize,
) -> Report {
    let profiles = suites::all_profiles();
    let mut cfg = SystemConfig {
        cosim,
        app_only_pipeline: true,
        tol_only_pipeline: true,
        window_guest_insts: 20_000,
        timing_backend: backend,
        ..SystemConfig::default()
    };
    if event_batch > 0 {
        cfg.tol.event_batch = event_batch;
    }
    let mut sys = System::new(generate(&profiles[profile_idx], scale), cfg);
    sys.run_to_completion()
}

fn run(profile_idx: usize, scale: f64, backend: TimingBackendKind, cosim: bool) -> Report {
    run_with(profile_idx, scale, backend, cosim, 0)
}

/// Like [`run`], but with an explicit background-translation pool size
/// (DESIGN.md §15). `0` is the synchronous oracle.
fn run_pool(profile_idx: usize, scale: f64, backend: TimingBackendKind, workers: usize) -> Report {
    let profiles = suites::all_profiles();
    let mut cfg = SystemConfig {
        cosim: false,
        app_only_pipeline: true,
        tol_only_pipeline: true,
        window_guest_insts: 20_000,
        timing_backend: backend,
        ..SystemConfig::default()
    };
    cfg.tol.translate_workers = workers;
    let mut sys = System::new(generate(&profiles[profile_idx], scale), cfg);
    sys.run_to_completion()
}

/// Like [`run`], but with the retirement-template and decode-cache fast
/// paths switched together (both on = shipping config, both off = the
/// per-retire re-derivation oracle kept for exactly this comparison).
fn run_fast_paths(profile_idx: usize, scale: f64, cosim: bool, fast: bool) -> Report {
    let profiles = suites::all_profiles();
    let mut cfg = SystemConfig {
        cosim,
        app_only_pipeline: true,
        tol_only_pipeline: true,
        window_guest_insts: 20_000,
        ..SystemConfig::default()
    };
    cfg.tol.retire_templates = fast;
    cfg.tol.interp_decode_cache = fast;
    let mut sys = System::new(generate(&profiles[profile_idx], scale), cfg);
    sys.run_to_completion()
}

/// Like [`run`], but with the memory-model fast paths (flat tag layout
/// and last-line/last-page shortcuts) switched together — both off is
/// the full-probe legacy-layout oracle.
fn run_mem_paths(profile_idx: usize, scale: f64, cosim: bool, fast: bool) -> Report {
    let profiles = suites::all_profiles();
    let mut cfg = SystemConfig {
        cosim,
        app_only_pipeline: true,
        tol_only_pipeline: true,
        window_guest_insts: 20_000,
        ..SystemConfig::default()
    };
    cfg.timing.flat_mem = fast;
    cfg.timing.mem_shortcuts = fast;
    let mut sys = System::new(generate(&profiles[profile_idx], scale), cfg);
    sys.run_to_completion()
}

/// Like [`run_with`], but with the guest-layer fast path (DESIGN.md
/// §17) switched: pre-decoded micro-op buffers with lazy flag
/// materialization plus the width-native memory access path, versus the
/// decode-per-step byte-oracle interpreter. The switch spans the engine
/// and the cosim checker's private authoritative emulator.
fn run_guest_fast(
    profile_idx: usize,
    scale: f64,
    backend: TimingBackendKind,
    cosim: bool,
    event_batch: usize,
    fast: bool,
) -> Report {
    let profiles = suites::all_profiles();
    let mut cfg = SystemConfig {
        cosim,
        app_only_pipeline: true,
        tol_only_pipeline: true,
        window_guest_insts: 20_000,
        timing_backend: backend,
        ..SystemConfig::default()
    };
    if event_batch > 0 {
        cfg.tol.event_batch = event_batch;
    }
    cfg.tol.guest_fast_path = fast;
    let mut sys = System::new(generate(&profiles[profile_idx], scale), cfg);
    sys.run_to_completion()
}

/// Serializes a value (for a whole [`Report`]: timing stats, filtered
/// pipelines, timeline windows, TOL summary, trace statistics) so any
/// divergence anywhere fails the comparison.
fn fingerprint<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("serialize")
}

#[test]
fn threaded_timing_is_bit_identical_across_profiles() {
    for idx in 0..3 {
        let inline = run(idx, 0.05, TimingBackendKind::Inline, false);
        let threaded = run(idx, 0.05, TimingBackendKind::Threaded, false);
        assert!(inline.timing.total_cycles > 0);
        assert!(inline.trace.batches > 0, "event stream must be batched");
        assert_eq!(
            fingerprint(&inline),
            fingerprint(&threaded),
            "profile {} diverged between inline and threaded timing",
            inline.name
        );
    }
}

#[test]
fn fanout_timing_is_bit_identical_across_profiles() {
    for idx in 0..3 {
        let inline = run(idx, 0.05, TimingBackendKind::Inline, false);
        let fanout = run(idx, 0.05, TimingBackendKind::Fanout, false);
        assert!(inline.app_only.is_some() && inline.tol_only.is_some());
        assert_eq!(
            fingerprint(&inline),
            fingerprint(&fanout),
            "profile {} diverged between inline and fan-out timing",
            inline.name
        );
    }
}

#[test]
fn all_backends_agree_at_extreme_batch_sizes() {
    // The acceptance matrix: every backend, at per-instruction delivery
    // (batch 1), a mid batch and the default-sized 4096 batch, produces
    // the same report byte for byte. Only trace batch *accounting*
    // (batches/max_batch) legitimately differs across batch sizes, so
    // compare fingerprints within one batch size across backends.
    for &batch in &[1usize, 64, 4096] {
        let reference = run_with(0, 0.04, TimingBackendKind::Inline, false, batch);
        for &backend in &BACKENDS[1..] {
            let other = run_with(0, 0.04, backend, false, batch);
            assert_eq!(
                fingerprint(&reference),
                fingerprint(&other),
                "backend {backend:?} diverged at event_batch {batch}"
            );
        }
    }
}

#[test]
fn threaded_timing_is_bit_identical_with_cosim() {
    let inline = run(0, 0.03, TimingBackendKind::Inline, true);
    let threaded = run(0, 0.03, TimingBackendKind::Threaded, true);
    assert!(inline.cosim_checks > 0, "checker must run as a sink");
    assert_eq!(fingerprint(&inline), fingerprint(&threaded));
}

#[test]
fn fanout_timing_is_bit_identical_with_cosim() {
    let inline = run(0, 0.03, TimingBackendKind::Inline, true);
    let fanout = run(0, 0.03, TimingBackendKind::Fanout, true);
    assert!(fanout.cosim_checks > 0, "checker stays inline under fan-out");
    assert_eq!(fingerprint(&inline), fingerprint(&fanout));
}

#[test]
fn threaded_and_fanout_timing_with_translation_pool() {
    // The two thread-spawning timing backends with the background
    // translation pool on top (four compile workers): the maximum
    // cross-thread configuration. Byte-identical to the fully
    // synchronous inline run. Named "threaded"/"fanout" so the
    // ThreadSanitizer gate (scripts/check.sh --tsan) picks it up.
    let reference = run_pool(0, 0.04, TimingBackendKind::Inline, 0);
    for backend in [TimingBackendKind::Threaded, TimingBackendKind::Fanout] {
        let pooled = run_pool(0, 0.04, backend, 4);
        assert_eq!(
            fingerprint(&reference),
            fingerprint(&pooled),
            "backend {backend:?} with translate_workers 4 diverged from the synchronous run"
        );
    }
}

#[test]
fn retirement_templates_are_bit_identical_across_profiles() {
    // The precomputed-template exec path and the interpreter decode
    // cache are pure simulator-speed optimizations: the whole Report
    // (timing, filtered pipelines, timeline, TOL summary, trace) must
    // match the re-derivation oracle byte for byte.
    for idx in 0..3 {
        let fast = run_fast_paths(idx, 0.05, false, true);
        let oracle = run_fast_paths(idx, 0.05, false, false);
        assert!(fast.timing.total_cycles > 0);
        assert_eq!(
            fingerprint(&fast),
            fingerprint(&oracle),
            "profile {} diverged between template and re-derivation paths",
            fast.name
        );
    }
}

#[test]
fn retirement_templates_are_bit_identical_with_cosim() {
    let fast = run_fast_paths(0, 0.03, true, true);
    let oracle = run_fast_paths(0, 0.03, true, false);
    assert!(fast.cosim_checks > 0, "checker must run as a sink");
    assert_eq!(fast.cosim_checks, oracle.cosim_checks);
    assert_eq!(fingerprint(&fast), fingerprint(&oracle));
}

#[test]
fn memory_fast_paths_are_bit_identical_across_profiles() {
    // The flattened cache/TLB layout and the last-line/last-page hit
    // shortcuts are pure simulator-speed optimizations: same hits, same
    // victims, same counters, same cycles — the whole Report must match
    // the full-probe legacy-layout oracle byte for byte.
    for idx in 0..3 {
        let fast = run_mem_paths(idx, 0.05, false, true);
        let oracle = run_mem_paths(idx, 0.05, false, false);
        assert!(fast.timing.total_cycles > 0);
        assert_eq!(
            fingerprint(&fast),
            fingerprint(&oracle),
            "profile {} diverged between flat/shortcut and legacy memory paths",
            fast.name
        );
    }
}

#[test]
fn guest_fast_path_is_bit_identical_across_backends_and_batches() {
    // The acceptance matrix for the guest-layer fast path: against the
    // decode-per-step byte oracle, every timing backend at
    // per-instruction delivery (batch 1), a mid batch and the
    // default-sized 4096 batch produces a byte-identical report with
    // the micro-op buffers and lazy flags on.
    for &batch in &[1usize, 64, 4096] {
        let oracle = run_guest_fast(0, 0.04, TimingBackendKind::Inline, false, batch, false);
        for &backend in &BACKENDS {
            let fast = run_guest_fast(0, 0.04, backend, false, batch, true);
            assert_eq!(
                fingerprint(&oracle),
                fingerprint(&fast),
                "guest fast path diverged on backend {backend:?} at event_batch {batch}"
            );
        }
    }
}

#[test]
fn guest_fast_path_is_bit_identical_across_profiles() {
    // Cross-profile sweep (different instruction mixes stress different
    // micro-op handlers and flag producers/consumers).
    for idx in 0..3 {
        let fast = run_guest_fast(idx, 0.05, TimingBackendKind::Inline, false, 0, true);
        let oracle = run_guest_fast(idx, 0.05, TimingBackendKind::Inline, false, 0, false);
        assert!(fast.timing.total_cycles > 0);
        assert_eq!(
            fingerprint(&fast),
            fingerprint(&oracle),
            "profile {} diverged between micro-op and byte-oracle guest paths",
            fast.name
        );
    }
}

#[test]
fn guest_fast_path_threaded_and_fanout_with_cosim() {
    // The cosim checker runs its own ExecCtx on its private memory copy,
    // so this exercises two independent fast paths against one oracle
    // run, under both thread-spawning backends. Named
    // "threaded"/"fanout" so the ThreadSanitizer gate picks it up.
    let oracle = run_guest_fast(0, 0.03, TimingBackendKind::Inline, true, 0, false);
    for backend in [TimingBackendKind::Threaded, TimingBackendKind::Fanout] {
        let fast = run_guest_fast(0, 0.03, backend, true, 0, true);
        assert!(fast.cosim_checks > 0, "checker must run as a sink");
        assert_eq!(fast.cosim_checks, oracle.cosim_checks);
        assert_eq!(
            fingerprint(&oracle),
            fingerprint(&fast),
            "guest fast path diverged under cosim on backend {backend:?}"
        );
    }
}

#[test]
fn guest_fast_path_actually_engages() {
    // Guard that the equalities above are not vacuous: under the
    // default (fast-path-on) configuration the interpreter must hit the
    // pre-decoded micro-op buffers and elide flag materializations.
    let profiles = suites::all_profiles();
    let cfg = SystemConfig {
        cosim: false,
        app_only_pipeline: true,
        tol_only_pipeline: true,
        window_guest_insts: 20_000,
        ..SystemConfig::default()
    };
    let mut sys = System::new(generate(&profiles[0], 0.05), cfg);
    sys.run_to_completion();
    let stats = sys.tol().fast_stats();
    assert!(stats.uop_hits > 0, "interpreter must execute from cached micro-op buffers");
    assert!(stats.blocks_built > 0);
    assert!(
        stats.flag_forces < stats.flag_defs,
        "lazy flags must elide some materializations ({} forces / {} defs)",
        stats.flag_forces,
        stats.flag_defs
    );
}

#[test]
fn per_instruction_batching_matches_default() {
    // `event_batch = 1` degenerates to per-instruction delivery; the
    // stream contents (and thus the report) must not depend on the
    // batch size, only the batch structure does.
    let mut cfg = SystemConfig {
        cosim: false,
        app_only_pipeline: true,
        tol_only_pipeline: true,
        window_guest_insts: 20_000,
        ..SystemConfig::default()
    };
    let profiles = suites::all_profiles();
    let batched = {
        let mut sys = System::new(generate(&profiles[0], 0.05), cfg.clone());
        sys.run_to_completion()
    };
    cfg.tol.event_batch = 1;
    let per_inst = {
        let mut sys = System::new(generate(&profiles[0], 0.05), cfg);
        sys.run_to_completion()
    };
    assert!(batched.trace.max_batch > 1);
    assert_eq!(per_inst.trace.max_batch, 1);
    // Everything except the batch accounting is identical.
    assert_eq!(batched.timing.total_cycles, per_inst.timing.total_cycles);
    assert_eq!(batched.guest_insts, per_inst.guest_insts);
    assert_eq!(batched.trace.retired, per_inst.trace.retired);
    assert_eq!(batched.trace.component_insts, per_inst.trace.component_insts);
    assert_eq!(fingerprint(&batched.timeline), fingerprint(&per_inst.timeline));
}
