//! Configuration files written by older builds keep loading.
//!
//! The vendored `serde_derive` shim ignores unknown keys and honours
//! `#[serde(default = "path")]` for missing ones, so a `SystemConfig`
//! saved before a switch was removed (extra keys) or before one was
//! added (missing keys) still deserializes — and runs to the same
//! report as the equivalent configuration built in code.

use darco::core::{Report, System, SystemConfig, TimingBackendKind};
use darco::tol::TolConfig;
use darco::workloads::{generate, suites};

/// The TOL block of a config as saved before `translate_workers` and
/// `guest_fast_path` existed.
const TOL_WITHOUT_NEWER_FIELDS: &str = r#"{
    "im_bb_threshold": 5,
    "bb_sb_threshold": 50,
    "sb_max_bbs": 8,
    "sb_max_insts": 128,
    "sb_edge_bias": 0.6,
    "code_cache_capacity": 1048576,
    "cache_policy": "Flush",
    "ibtc_entries": 512,
    "chaining": true,
    "bbm_peephole": true,
    "opt_const_prop": true,
    "opt_const_fold": true,
    "opt_cse": true,
    "opt_dce": true,
    "opt_schedule": true,
    "opt_deadflags": true,
    "opt_rangesimp": true,
    "opt_sw_prefetch": false,
    "speculate_indirect": false,
    "codecache_scattered": false,
    "verify": false,
    "event_batch": 4096,
    "retire_templates": true,
    "interp_decode_cache": true
}"#;

/// A full `SystemConfig` as saved while the block-timing memo existed:
/// `block_memo` appears under both `tol` and `timing`.
const SYSTEM_WITH_BLOCK_MEMO: &str = r#"{
  "tol": {
    "im_bb_threshold": 5,
    "bb_sb_threshold": 50,
    "sb_max_bbs": 8,
    "sb_max_insts": 128,
    "sb_edge_bias": 0.6,
    "code_cache_capacity": 1048576,
    "cache_policy": "Flush",
    "ibtc_entries": 512,
    "chaining": true,
    "bbm_peephole": true,
    "opt_const_prop": true,
    "opt_const_fold": true,
    "opt_cse": true,
    "opt_dce": true,
    "opt_schedule": true,
    "opt_deadflags": true,
    "opt_rangesimp": true,
    "opt_sw_prefetch": false,
    "speculate_indirect": false,
    "codecache_scattered": false,
    "verify": false,
    "event_batch": 4096,
    "retire_templates": true,
    "interp_decode_cache": true,
    "translate_workers": 2,
    "block_memo": true,
    "guest_fast_path": true
  },
  "timing": {
    "issue_width": 2,
    "iq_size": 16,
    "bp_history_bits": 12,
    "btb_entries": 1024,
    "mispredict_penalty": 6,
    "frontend_depth": 3,
    "l1i": { "size": 32768, "block": 64, "ways": 4, "hit_latency": 1 },
    "l1d": { "size": 32768, "block": 64, "ways": 4, "hit_latency": 1 },
    "l2": { "size": 524288, "block": 128, "ways": 8, "hit_latency": 16 },
    "mem_latency": 128,
    "tlb1": { "entries": 64, "ways": 8, "hit_latency": 1 },
    "tlb2": { "entries": 256, "ways": 8, "hit_latency": 16 },
    "tlb_walk_latency": 128,
    "prefetcher_entries": 256,
    "lat_simple_int": 1,
    "lat_complex_int": 2,
    "lat_simple_fp": 2,
    "lat_complex_fp": 5,
    "interaction": "Shared",
    "flat_mem": true,
    "mem_shortcuts": true,
    "block_memo": true
  },
  "cosim": true,
  "app_only_pipeline": true,
  "tol_only_pipeline": true,
  "step_budget": 20000,
  "max_guest_insts": 0,
  "window_guest_insts": 20000,
  "timing_backend": "Inline"
}"#;

fn run(cfg: SystemConfig) -> Report {
    let mut sys = System::new(generate(&suites::quicktest_profile(), 0.03), cfg);
    sys.run_to_completion()
}

#[test]
fn missing_fields_take_their_serde_defaults() {
    let cfg: TolConfig =
        serde_json::from_str(TOL_WITHOUT_NEWER_FIELDS).expect("config without newer fields");
    let default = TolConfig::default();
    assert!(cfg.guest_fast_path, "guest_fast_path defaults to on");
    assert_eq!(cfg.translate_workers, default.translate_workers);
    assert_eq!(cfg, TolConfig { bb_sb_threshold: 50, ..default });
}

#[test]
fn config_saved_with_block_memo_still_loads_and_runs() {
    let old: SystemConfig =
        serde_json::from_str(SYSTEM_WITH_BLOCK_MEMO).expect("config with removed keys");
    let mut tol = darco::core::scaled_tol_config();
    tol.translate_workers = 2;
    let built = SystemConfig {
        tol,
        cosim: true,
        app_only_pipeline: true,
        tol_only_pipeline: true,
        window_guest_insts: 20_000,
        timing_backend: TimingBackendKind::Inline,
        ..SystemConfig::default()
    };
    assert_eq!(old.tol, built.tol);
    assert_eq!(old.timing, built.timing);
    let (a, b) = (run(old), run(built));
    assert!(a.cosim_checks > 0, "the loaded config must run with co-simulation");
    assert_eq!(
        serde_json::to_string(&a).expect("serialize"),
        serde_json::to_string(&b).expect("serialize"),
        "the loaded config must run exactly like the one built in code"
    );
}
