//! The timed window of a real-thread workload: every op timed with an
//! `Instant` pair, latency and CPU metrics computed per 100 ms segment,
//! throughput per 2 ms slice, and each reported as a robust statistic
//! over the segments (slices) of all the run's instances.
//!
//! Two things the program does not control move these numbers on a
//! shared two-core host. The hypervisor takes a vCPU away for
//! milliseconds at a time (steal): the other thread spins against an
//! absent partner, the runtime falls back, and with a tenth of the time
//! stolen the whole-window mean loses a third. Statistics over short
//! stretches step over that; the shorter the stretch, the likelier the
//! host left it alone. And every freshly started runtime lands on its
//! own latency level (1.0 to 1.6 us for the same nop hand-off, wherever
//! its threads and their pages happen to sit), so a run measures several
//! instances and pools them.

use crate::hist::LatencyHist;
use crate::host::{self, CpuTimes};
use crate::report::{Findings, Metric};
use crate::spans::{SpanKind, SpanLog};
use crate::spec::Better;
use crate::stats::Summary;
use std::time::{Duration, Instant};
use switchless_core::SplitMix64;

/// Length of one timed segment: short enough that a stolen time slice
/// spoils one segment, not a tenth of the run.
pub const SEGMENT: Duration = Duration::from_millis(100);

/// Segments a second of `--seconds` buys.
pub const SEGMENTS_PER_SECOND: usize = 10;

/// Length of the slices throughput is taken over. A time slice the
/// hypervisor steals from either spinning thread lasts milliseconds; with
/// 15% of the time stolen next to no 100 ms segment escapes, most 2 ms
/// slices do.
pub const SLICE: Duration = Duration::from_millis(2);

/// A segment (or DES repeat) the host kept from the program for more
/// than this share of its time is counted in `host.disturbed_segments`.
pub const DISTURBED_SHARE: f64 = 0.02;

/// Latency classes an op can fall into (call path, or get/put).
pub const CLASSES: usize = 3;

/// Fewer samples than this in a segment and the class p50 is omitted.
const MIN_CLASS_SAMPLES: u64 = 10;

/// What one op did.
#[derive(Debug, Clone, Copy)]
pub struct OpResult {
    /// Taken just before the call into the program.
    pub start: Instant,
    /// Taken just after it returned (before the output check).
    pub end: Instant,
    /// Latency class, `< CLASSES`.
    pub class: u8,
    /// The call succeeded and its output was right.
    pub ok: bool,
}

/// Totals of one instance's timed window, handed to the instance so it
/// can turn its own counters into per-layer metrics.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Ops issued before the window on this instance (warm-up).
    pub warmup_ops: u64,
    /// Ops issued in the window.
    pub ops: u64,
    /// Ops that failed.
    pub failed: u64,
    /// Summed segment time, pauses excluded.
    pub wall_ns: u64,
    /// CPU time of every thread over the segments.
    pub cpu_all_ns: u64,
    /// CPU time of the caller thread over the segments.
    pub cpu_main_ns: u64,
    /// Ops per latency class.
    pub class_ops: [u64; CLASSES],
    /// Median over segments of each class's p50 (segments with too few
    /// samples of the class left out).
    pub class_p50_ns: [Option<f64>; CLASSES],
}

/// A started system under test, warmed up and measured through `op`.
pub trait Instance {
    /// Generate one op's inputs from `rng`, issue it, check its output.
    fn op(&mut self, rng: &mut SplitMix64) -> OpResult;

    /// Ops between two calls of [`paused_work`](Instance::paused_work).
    fn pause_every(&self) -> u64 {
        u64::MAX
    }

    /// Housekeeping done with the segment clock stopped (draining the
    /// telemetry ring).
    fn paused_work(&mut self) {}

    /// The timed window is about to start: snapshot counters.
    fn begin_window(&mut self) {}

    /// The timed window ended: report per-layer metrics and checks.
    fn end_window(&mut self, window: &Window, out: &mut Findings);
}

/// One segment's numbers.
#[derive(Debug, Clone, Default)]
pub struct Segment {
    /// Ops per second over each whole [`SLICE`] of the segment.
    slice_ops_per_s: Vec<f64>,
    ops: u64,
    failed: u64,
    wall_ns: u64,
    cpu: CpuTimes,
    steal_share: f64,
    p50: f64,
    p99: f64,
    p999: f64,
    beyond_p99: usize,
    class_ops: [u64; CLASSES],
    class_p50: [Option<f64>; CLASSES],
}

impl Segment {
    /// Median op latency of the segment in ns.
    #[must_use]
    pub fn p50_ns(&self) -> f64 {
        self.p50
    }

    /// Share of the segment the host kept from the program: machine-wide
    /// steal plus the time the caller sat runnable but not running.
    fn disturbance(&self) -> f64 {
        self.steal_share + self.cpu.main_wait_ns as f64 / self.wall_ns as f64
    }
}

/// Issue `count` untimed ops; returns how many failed.
pub fn warm_up(inst: &mut dyn Instance, rng: &mut SplitMix64, count: u64) -> u64 {
    let every = inst.pause_every();
    let mut failed = 0;
    for i in 1..=count {
        if !inst.op(rng).ok {
            failed += 1;
        }
        if i % every == 0 {
            inst.paused_work();
        }
    }
    inst.paused_work();
    failed
}

/// Run `segments` timed segments on a warmed-up instance; returns the
/// instance's totals and the segments.
pub fn measure(
    inst: &mut dyn Instance,
    rng: &mut SplitMix64,
    segments: usize,
    warmup_ops: u64,
    spans: Option<&SpanLog>,
) -> (Window, Vec<Segment>) {
    let mut all = LatencyHist::new();
    let mut classes: [LatencyHist; CLASSES] = std::array::from_fn(|_| LatencyHist::new());
    let mut done: Vec<Segment> = Vec::with_capacity(segments);
    let pause_every = inst.pause_every();
    let mut since_pause = 0u64;

    inst.begin_window();
    if let Some(log) = spans {
        log.enable();
    }
    for _ in 0..segments {
        all.clear();
        classes.iter_mut().for_each(LatencyHist::clear);
        let mut seg = Segment::default();
        let mut paused = Duration::ZERO;
        let mut paused_cpu = CpuTimes::default();
        let steal0 = host::steal_jiffies();
        let cpu0 = CpuTimes::now();
        let seg_start = Instant::now();
        let (mut slice_start, mut slice_ops) = (seg_start, 0u64);
        let seg_end = loop {
            let open = spans.map(SpanLog::begin);
            let r = inst.op(rng);
            if let (Some(log), Some(open)) = (spans, open) {
                log.end(open, SpanKind::Op, r.start, r.end);
            }
            let ns = r.end.duration_since(r.start).as_nanos() as u64;
            all.record(ns);
            classes[usize::from(r.class)].record(ns);
            seg.ops += 1;
            seg.failed += u64::from(!r.ok);
            slice_ops += 1;
            let slice = r.end.duration_since(slice_start);
            if slice >= SLICE {
                seg.slice_ops_per_s
                    .push(slice_ops as f64 * 1e9 / slice.as_nanos() as f64);
                (slice_start, slice_ops) = (r.end, 0);
            }
            since_pause += 1;
            // The op's own end stamp doubles as "now": a third clock
            // read per op would be harness cost inside the window.
            let mut now = r.end;
            if since_pause >= pause_every {
                since_pause = 0;
                let c0 = CpuTimes::now();
                inst.paused_work();
                paused_cpu = paused_cpu.plus(&CpuTimes::now().since(&c0));
                now = Instant::now();
                paused += now.duration_since(r.end);
                // The slice the pause fell into is dropped.
                (slice_start, slice_ops) = (now, 0);
            }
            if now.duration_since(seg_start).saturating_sub(paused) >= SEGMENT {
                break now;
            }
        };
        seg.cpu = CpuTimes::now().since(&cpu0).since(&paused_cpu);
        seg.steal_share = host::steal_share(steal0, host::steal_jiffies());
        seg.wall_ns = seg_end
            .duration_since(seg_start)
            .saturating_sub(paused)
            .as_nanos() as u64;
        seg.p50 = all.percentile(0.50).unwrap_or(0.0);
        seg.p99 = all.percentile(0.99).unwrap_or(0.0);
        seg.p999 = all.percentile(0.999).unwrap_or(0.0);
        seg.beyond_p99 = all.beyond(0.99);
        for (i, h) in classes.iter_mut().enumerate() {
            seg.class_ops[i] = h.count();
            seg.class_p50[i] = (h.count() >= MIN_CLASS_SAMPLES)
                .then(|| h.percentile(0.50))
                .flatten();
        }
        done.push(seg);
    }
    if let Some(log) = spans {
        log.disable();
    }
    let mut window = Window {
        warmup_ops,
        ..Window::default()
    };
    for s in &done {
        window.ops += s.ops;
        window.failed += s.failed;
        window.wall_ns += s.wall_ns;
        window.cpu_all_ns += s.cpu.all_ns;
        window.cpu_main_ns += s.cpu.main_ns;
        for i in 0..CLASSES {
            window.class_ops[i] += s.class_ops[i];
        }
    }
    for i in 0..CLASSES {
        let p50s: Vec<f64> = done.iter().filter_map(|s| s.class_p50[i]).collect();
        window.class_p50_ns[i] = crate::stats::median(&p50s);
    }
    (window, done)
}

/// `ops_per_s`, `op_ns_p50`, `op_ns_p99` and `cpu_ns_per_op` of a run
/// over the segments of all its instances, with the spread behind each.
/// Throughput is the upper quartile over [`SLICE`]s and median latency the
/// lower quartile over segments: what the host, or a recovery phase it
/// provokes in the runtime, does to a stretch of time only ever slows it.
/// CPU cost is the CPU share of an undisturbed segment over that
/// throughput; the p99 is a tail already, so it is the median segment's.
/// Harness and host diagnostics go to `out`.
///
/// # Panics
///
/// Without a segment.
pub fn summarise(done: &[Segment], out: &mut Findings) -> Vec<(String, Metric)> {
    let metric = |f: &dyn Fn(&Segment) -> f64, unit| {
        let values: Vec<f64> = done.iter().map(f).collect();
        Metric::median_of(&values, unit).expect("at least one segment")
    };
    let slices: Vec<f64> = done
        .iter()
        .flat_map(|s| s.slice_ops_per_s.iter().copied())
        .collect();
    let ops_per_s = Metric::better_quartile_of(&slices, "1/s", Better::Higher)
        .expect("at least one whole slice");
    let per_segment = metric(&|s| s.ops as f64 * 1e9 / s.wall_ns as f64, "1/s");
    let p50s: Vec<f64> = done.iter().map(|s| s.p50).collect();
    let p50 = Metric::better_quartile_of(&p50s, "ns", Better::Lower).expect("at least one segment");
    let (ops, wall_ns) = done
        .iter()
        .fold((0, 0), |(o, w), s| (o + s.ops, w + s.wall_ns));
    out.layer(
        "benchmark.ops_per_s_mean",
        ops as f64 * 1e9 / wall_ns as f64,
    );
    out.layer(
        "benchmark.segment_iqr_ratio",
        per_segment.summary.map_or(0.0, |s| s.iqr_ratio()),
    );
    out.layer("benchmark.op_ns_p999", metric(&|s| s.p999, "ns").value);
    out.layer(
        "host.disturbed_segments",
        done.iter()
            .filter(|s| s.disturbance() > DISTURBED_SHARE)
            .count() as f64,
    );
    out.layer(
        "host.steal_share",
        done.iter().map(|s| s.steal_share).sum::<f64>() / done.len() as f64,
    );
    let mut p99 = metric(&|s| s.p99, "ns");
    // A segment the host stalled may hold a handful of ops; what the
    // reported p99 rests on is the typical segment.
    let beyond = metric(&|s| s.beyond_p99 as f64, "count").value as usize;
    p99.samples_beyond = Some(beyond);
    out.check(
        "p99_has_ten_samples_beyond_it",
        beyond >= 10,
        format!("{beyond} samples beyond the p99 of the median segment"),
    );
    // What an op costs in CPU time where the host left the run alone:
    // the CPU share of an undisturbed segment (the upper quartile; steal
    // and preemption only ever take CPU time away from the two spinning
    // threads) over the throughput of an undisturbed slice.
    let shares: Vec<f64> = done
        .iter()
        .map(|s| s.cpu.all_ns as f64 / s.wall_ns as f64)
        .collect();
    let share = Summary::of(&shares).expect("at least one segment").q3;
    let per_op: Vec<f64> = done
        .iter()
        .map(|s| s.cpu.all_ns as f64 / s.ops as f64)
        .collect();
    let cpu = Metric {
        value: share * 1e9 / ops_per_s.value,
        unit: "ns",
        summary: Summary::of(&per_op),
        samples_beyond: None,
    };
    vec![
        ("ops_per_s".to_string(), ops_per_s),
        ("op_ns_p50".to_string(), p50),
        ("op_ns_p99".to_string(), p99),
        ("cpu_ns_per_op".to_string(), cpu),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(ops: u64, p50: f64) -> Segment {
        let wall_ns = SEGMENT.as_nanos() as u64;
        Segment {
            slice_ops_per_s: vec![ops as f64 * 1e9 / wall_ns as f64; 50],
            ops,
            wall_ns,
            cpu: CpuTimes {
                all_ns: 2 * wall_ns,
                main_ns: wall_ns,
                main_wait_ns: 0,
            },
            p50,
            p99: p50 * 3.0,
            p999: p50 * 9.0,
            beyond_p99: (ops / 100) as usize,
            ..Segment::default()
        }
    }

    #[test]
    fn reported_values_step_over_a_disturbed_segment() {
        // Four quiet segments and one the host disturbed (a third of the
        // ops, the caller kept off the CPU for 10% of it).
        let mut segs = vec![seg(60_000, 1200.0); 4];
        let mut bad = seg(20_000, 3600.0);
        bad.cpu.main_wait_ns = bad.wall_ns / 10;
        segs.push(bad);
        let mut out = Findings::default();
        let m = summarise(&segs, &mut out);
        let get = |name: &str| m.iter().find(|(n, _)| n == name).unwrap().1.clone();
        assert_eq!(get("ops_per_s").value, 600_000.0);
        assert_eq!(get("op_ns_p50").value, 1200.0);
        assert_eq!(get("op_ns_p99").value, 3600.0);
        assert_eq!(get("op_ns_p99").samples_beyond, Some(600));
        // Two threads busy all the time, at the quiet slices' rate.
        assert_eq!(get("cpu_ns_per_op").value, 2.0 * 1e9 / 600_000.0);
        assert_eq!(get("cpu_ns_per_op").summary.unwrap().max, 10_000.0);
        let layer = |name: &str| {
            out.per_layer
                .iter()
                .find(|(n, _)| n == name)
                .unwrap()
                .1
                .value
        };
        assert_eq!(layer("host.disturbed_segments"), 1.0);
        assert_eq!(layer("benchmark.op_ns_p999"), 10_800.0);
        assert_eq!(layer("benchmark.ops_per_s_mean"), 520_000.0);
        assert!(out.checks.iter().all(|c| c.ok));
        // Segments too short of samples for a p99 fail the run.
        let mut out = Findings::default();
        summarise(&[seg(500, 1200.0)], &mut out);
        assert!(out.checks.iter().any(|c| !c.ok));
    }
}
