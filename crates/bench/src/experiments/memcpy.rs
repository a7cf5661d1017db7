//! Fig. 7 / Fig. 13: boundary `memcpy` throughput on *real hardware*.
//!
//! These two experiments are the only ones that run on the host CPU
//! rather than the simulator: the vanilla-vs-optimised `memcpy` contrast
//! is a single-threaded micro-architectural effect that the 1-core
//! container measures faithfully. Each measurement issues `write`
//! ocalls to `/dev/null` through [`RegularOcall`] with the chosen copy
//! implementation and staging alignment, exactly like the paper's
//! benchmark (§IV-F).

use crate::table::{f2, f3, Table};
use sgx_sim::{Alignment, Enclave, HostFs, MemcpyKind, RegularOcall};
use std::sync::Arc;
use std::time::Instant;
use switchless_core::{CpuSpec, OcallDispatcher, OcallRequest, OcallTable};
use zc_workloads::efile::EnclaveIo;

/// Buffer sizes of the paper's sweep: 512 B – 32 kB.
pub const PAPER_SIZES: [usize; 7] = [512, 1024, 2048, 4096, 8192, 16384, 32768];

/// One measured point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemcpyPoint {
    /// Buffer size in bytes.
    pub size: usize,
    /// Staging alignment relative to the source.
    pub aligned: bool,
    /// Copy implementation.
    pub kind: MemcpyKind,
    /// Measured throughput in GB/s.
    pub gbps: f64,
}

/// Measure the `write`-ocall throughput for one configuration.
///
/// `inject_transition` enables the `T_es` spin (the paper's setup); tests
/// disable it to isolate the copy path.
#[must_use]
pub fn measure(
    kind: MemcpyKind,
    alignment: Alignment,
    size: usize,
    ops: usize,
    inject_transition: bool,
) -> MemcpyPoint {
    let fs = HostFs::new();
    let mut table = OcallTable::new();
    let funcs = sgx_sim::hostfs::FsFuncs::register(&mut table, &fs);
    let enclave = Enclave::new(CpuSpec::paper_machine());
    let mut disp = RegularOcall::new(Arc::new(table), enclave)
        .with_memcpy(kind)
        .with_alignment(alignment);
    if !inject_transition {
        disp = disp.without_cost_injection();
    }
    let io = EnclaveIo::new(&disp, funcs);
    let fd = io
        .open("/dev/null", sgx_sim::hostfs::OpenMode::Write)
        .expect("open /dev/null");

    // Source buffer at a fixed phase so alignment control is stable.
    let payload = vec![0xA5u8; size];
    let req = OcallRequest::new(funcs.fwrite, &[fd]);
    let mut out = Vec::new();
    // Warm-up.
    for _ in 0..64 {
        disp.dispatch(&req, &payload, &mut out)
            .expect("warmup write");
    }
    let start = Instant::now();
    for _ in 0..ops {
        let (ret, _) = disp.dispatch(&req, &payload, &mut out).expect("write");
        debug_assert_eq!(ret as usize, size);
    }
    let secs = start.elapsed().as_secs_f64();
    let gbps = (size as f64 * ops as f64) / secs / 1e9;
    MemcpyPoint {
        size,
        aligned: alignment == Alignment::Aligned,
        kind,
        gbps,
    }
}

/// Fig. 7: vanilla-memcpy write throughput, aligned vs unaligned.
#[must_use]
pub fn fig7(ops: usize, sizes: &[usize]) -> Table {
    let mut table = Table::new(
        format!("Fig 7: write-ocall throughput with vanilla (tlibc) memcpy, {ops} ops/point"),
        &["size (B)", "aligned (GB/s)", "unaligned (GB/s)", "ratio"],
    );
    for &size in sizes {
        let a = measure(MemcpyKind::Vanilla, Alignment::Aligned, size, ops, true);
        let u = measure(MemcpyKind::Vanilla, Alignment::Unaligned, size, ops, true);
        table.row(vec![
            size.to_string(),
            f3(a.gbps),
            f3(u.gbps),
            f2(a.gbps / u.gbps.max(1e-12)),
        ]);
    }
    table
}

/// Fig. 13: vanilla vs zc memcpy, both alignments, with speedups.
#[must_use]
pub fn fig13(ops: usize, sizes: &[usize]) -> Table {
    let mut table = Table::new(
        format!("Fig 13: write-ocall throughput, vanilla vs zc memcpy, {ops} ops/point"),
        &[
            "size (B)",
            "van-al (GB/s)",
            "zc-al (GB/s)",
            "speedup-al",
            "van-un (GB/s)",
            "zc-un (GB/s)",
            "speedup-un",
        ],
    );
    for &size in sizes {
        let va = measure(MemcpyKind::Vanilla, Alignment::Aligned, size, ops, true);
        let za = measure(MemcpyKind::Zc, Alignment::Aligned, size, ops, true);
        let vu = measure(MemcpyKind::Vanilla, Alignment::Unaligned, size, ops, true);
        let zu = measure(MemcpyKind::Zc, Alignment::Unaligned, size, ops, true);
        table.row(vec![
            size.to_string(),
            f3(va.gbps),
            f3(za.gbps),
            f2(za.gbps / va.gbps.max(1e-12)),
            f3(vu.gbps),
            f3(zu.gbps),
            f2(zu.gbps / vu.gbps.max(1e-12)),
        ]);
    }
    table
}

/// Emit Fig. 7 and Fig. 13 over the paper's buffer sizes
/// (`results/fig{7_memcpy_vanilla,13_memcpy_zc}.csv`): 20 000 `write`
/// ocalls per point (paper: 100 000), 2 000 when `quick`.
pub fn emit(quick: bool) {
    let ops = if quick { 2_000 } else { 20_000 };
    fig7(ops, &PAPER_SIZES).emit("fig7_memcpy_vanilla");
    fig13(ops, &PAPER_SIZES).emit("fig13_memcpy_zc");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zc_memcpy_beats_vanilla_unaligned_at_large_sizes() {
        // The headline effect, isolated from the transition spin. Small
        // op counts keep the test fast; the margin is enormous (paper:
        // 15×), so noise is not a concern.
        let v = measure(
            MemcpyKind::Vanilla,
            Alignment::Unaligned,
            32_768,
            300,
            false,
        );
        let z = measure(MemcpyKind::Zc, Alignment::Unaligned, 32_768, 300, false);
        assert!(
            z.gbps > v.gbps * 2.0,
            "zc ({:.2} GB/s) must be >2x vanilla-unaligned ({:.2} GB/s)",
            z.gbps,
            v.gbps
        );
    }

    #[test]
    fn vanilla_aligned_beats_vanilla_unaligned() {
        let a = measure(MemcpyKind::Vanilla, Alignment::Aligned, 32_768, 300, false);
        let u = measure(
            MemcpyKind::Vanilla,
            Alignment::Unaligned,
            32_768,
            300,
            false,
        );
        assert!(
            a.gbps > u.gbps * 1.5,
            "word copy ({:.2}) must beat byte copy ({:.2})",
            a.gbps,
            u.gbps
        );
    }

    #[test]
    fn measure_reports_sane_numbers() {
        let p = measure(MemcpyKind::Zc, Alignment::Aligned, 4096, 100, false);
        assert!(p.gbps > 0.01, "throughput must be positive: {}", p.gbps);
        assert!(p.aligned);
        assert_eq!(p.size, 4096);
    }
}
