//! Cross-commit pin on the paper figures, in tier-1: runs every DES
//! experiment module's `emit(true)` — the quick mode of `all_figures`,
//! in its order — in a temporary working directory and compares a
//! 64-bit FNV-1a digest of every CSV written against the pins below. A
//! simulator change that moves a simulated cycle anywhere a figure looks
//! fails here, and the message names each CSV that changed.
//!
//! The figures run without a telemetry hub, as `all_figures` runs them;
//! `crates/des/tests/telemetry_observation.rs` is what lets
//! these digests speak for traced runs too.
//!
//! The `memcpy` module (figs 7 and 13) times real hardware and is
//! skipped. The full-mode comparison of `ci.sh` against the committed
//! `results/*.csv` stays: it covers the paper-scale parameters these
//! quick runs shrink. A deliberate model change re-pins the affected
//! digests here: the test prints the ones it measured.
//!
//! One test in its own binary: it changes the process working
//! directory.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use zc_bench::experiments::{ablations, kissdb, lmbench, openssl, synthetic};

/// `(csv, FNV-1a 64 of its bytes)` of a quick run, sorted by name.
const PINS: &[(&str, u64)] = &[
    ("ablation_chaos.csv", 0x823405d01c113a69),
    ("ablation_fallback.csv", 0xa4a2bba2a5217104),
    ("ablation_mechanisms.csv", 0xfe0b467bfb2166e2),
    ("ablation_quantum.csv", 0x25ebb052860e5328),
    ("ablation_rbf.csv", 0xaf1b598f6858a17b),
    ("ablation_tes.csv", 0x4da950426959aee6),
    ("ablation_weight.csv", 0x8f32e9ddfc11b788),
    ("fig10_openssl_2w.csv", 0xed668037bddafbd1),
    ("fig10_openssl_4w.csv", 0xbc0f3f74a5bb1240),
    ("fig10_zc_residency.csv", 0x2dba95127595d8e2),
    ("fig11_lmbench_tput_2w.csv", 0x5e53883cdae7512e),
    ("fig11_lmbench_tput_4w.csv", 0x9ea653ca512a26a4),
    ("fig11_series_i-all-2.csv", 0xf1eed4dc00c1b1e8),
    ("fig11_series_i-all-4.csv", 0x14cfabdf4bf600b3),
    ("fig11_series_i-read-2.csv", 0x9859583b78834973),
    ("fig11_series_i-read-4.csv", 0xb31e7d460d6ab6d8),
    ("fig11_series_i-write-2.csv", 0xaddacfb311597291),
    ("fig11_series_i-write-4.csv", 0x752d58c1ee2bf4cf),
    ("fig11_series_no_sl.csv", 0x4590f354ea84c9ef),
    ("fig11_series_zc.csv", 0xf61961a081a213b5),
    ("fig12_lmbench_cpu_2w.csv", 0x5f6930a49427c7ca),
    ("fig12_lmbench_cpu_4w.csv", 0x8139d3caf2ace34a),
    ("fig2_selection.csv", 0x059e0790cf4209fd),
    ("fig3_duration.csv", 0xca6ee3a82dddc06f),
    ("fig8_kissdb_latency_2w.csv", 0xf098fc5c27b6d4c8),
    ("fig8_kissdb_latency_4w.csv", 0x763c7ff703f7af6a),
    ("fig9_kissdb_cpu_2w.csv", 0x7c72db7ba71c884e),
    ("fig9_kissdb_cpu_4w.csv", 0x9412dfb602d2b2d2),
    ("sec3a_inline.csv", 0x6c17da58325a5725),
];

/// 64-bit FNV-1a: dependency-free and stable across hosts and toolchains.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Removes the temporary directory however the test ends.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn quick_figures_match_their_pinned_digests() {
    let dir =
        TempDir(std::env::temp_dir().join(format!("zc-figure-digests-{}", std::process::id())));
    std::fs::create_dir_all(&dir.0).unwrap();
    std::env::set_current_dir(&dir.0).unwrap();
    // The order of `all_figures`, minus memcpy.
    let modules: [fn(bool); 5] = [
        synthetic::emit,
        kissdb::emit,
        openssl::emit,
        lmbench::emit,
        ablations::emit,
    ];
    for emit in modules {
        emit(true);
    }

    let mut measured = BTreeMap::new();
    for entry in std::fs::read_dir(dir.0.join("results")).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "csv") {
            let name = path.file_name().unwrap().to_str().unwrap().to_string();
            measured.insert(name, fnv1a(&std::fs::read(&path).unwrap()));
        }
    }
    let pinned: BTreeMap<String, u64> = PINS.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    let mut wrong = Vec::new();
    let names: BTreeSet<&String> = pinned.keys().chain(measured.keys()).collect();
    for name in names {
        match (pinned.get(name), measured.get(name)) {
            (Some(p), Some(m)) if p == m => {}
            (Some(_), Some(m)) => wrong.push(format!("{name}: digest is now {m:#018x}")),
            (Some(_), None) => wrong.push(format!("{name}: no longer written")),
            (None, Some(m)) => wrong.push(format!("{name}: written but not pinned ({m:#018x})")),
            (None, None) => unreachable!(),
        }
    }
    for (name, d) in &measured {
        eprintln!("    (\"{name}\", {d:#018x}),");
    }
    assert!(
        wrong.is_empty(),
        "quick-mode figures moved:\n  {}",
        wrong.join("\n  ")
    );
}
