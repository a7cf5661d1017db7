//! Text Gantt rendering of a kernel occupancy trace.
//!
//! Enable tracing ([`Kernel::enable_tracing`]) before a run, then render
//! the core timeline to see who held which core when — invaluable when a
//! protocol model misbehaves:
//!
//! ```text
//! core 0 |000000111100002222----0000|
//! core 1 |3333333333--33333333333333|
//! ```
//!
//! Each column is one time bucket; the glyph is the last thread id (mod
//! 36, `0-9a-z`) that occupied the core in that bucket, `-` for idle.

use crate::kernel::{Kernel, OccupancyEvent, Tid};

/// Render `trace` over `[t0, t1)` with `buckets` columns for a machine
/// with `cores` cores.
#[must_use]
pub fn render(trace: &[OccupancyEvent], cores: usize, t0: u64, t1: u64, buckets: usize) -> String {
    let buckets = buckets.max(1);
    let span = (t1.saturating_sub(t0)).max(1);
    // grid[core][bucket] = Some(tid) if occupied at any point in it.
    let mut grid: Vec<Vec<Option<Tid>>> = vec![vec![None; buckets]; cores];
    // Track each core's occupant across bucket boundaries.
    let mut current: Vec<Option<Tid>> = vec![None; cores];
    let mut cursor = 0usize; // next event index
    #[allow(clippy::needless_range_loop)] // bucket index drives both the
    // time boundary and the grid column
    for b in 0..buckets {
        let bucket_end = t0 + span * (b as u64 + 1) / buckets as u64;
        // Apply events that happen inside this bucket.
        while cursor < trace.len() && trace[cursor].t < bucket_end {
            let ev = trace[cursor];
            cursor += 1;
            if ev.t < t0 {
                if ev.core < cores {
                    current[ev.core] = ev.tid;
                }
                continue;
            }
            if ev.core < cores {
                current[ev.core] = ev.tid;
                if ev.tid.is_some() {
                    grid[ev.core][b] = ev.tid;
                }
            }
        }
        // Carry over occupancy that spans the whole bucket.
        for c in 0..cores {
            if grid[c][b].is_none() {
                grid[c][b] = current[c];
            }
        }
    }
    let glyph = |t: Option<Tid>| match t {
        None => '-',
        Some(Tid(id)) => {
            let v = id % 36;
            if v < 10 {
                (b'0' + v as u8) as char
            } else {
                (b'a' + (v - 10) as u8) as char
            }
        }
    };
    let mut out = String::new();
    for (c, row) in grid.iter().enumerate() {
        out.push_str(&format!("core {c:>2} |"));
        out.extend(row.iter().map(|&t| glyph(t)));
        out.push_str("|\n");
    }
    out
}

/// Convenience: render a finished kernel's whole trace.
#[must_use]
pub fn render_kernel(kernel: &Kernel, buckets: usize) -> String {
    render(
        kernel.trace(),
        kernel.cores(),
        0,
        kernel.now().max(1),
        buckets,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Actor, Kernel, StepCx, Syscall, SyscallResult};

    struct Busy(u64);
    impl Actor for Busy {
        fn step(&mut self, res: SyscallResult, _now: u64, _cx: &mut StepCx) -> Syscall {
            if res == SyscallResult::Init {
                Syscall::Compute(self.0)
            } else {
                Syscall::Done
            }
        }
    }

    #[test]
    fn gantt_shows_occupancy_and_idle() {
        let mut k = Kernel::new(2, 1_000_000, 140);
        k.enable_tracing();
        k.spawn(Box::new(Busy(1_000)));
        k.spawn(Box::new(Busy(2_000)));
        k.run();
        let g = render_kernel(&k, 10);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].contains('0'),
            "thread 0 must appear on core 0: {g}"
        );
        assert!(
            lines[1].contains('1'),
            "thread 1 must appear on core 1: {g}"
        );
        // Core 0 goes idle halfway (thread 0 finishes at 1000 of 2000).
        assert!(lines[0].contains('-'), "core 0 must show idle time: {g}");
    }

    #[test]
    fn untraced_kernel_renders_empty_grid() {
        let mut k = Kernel::new(1, 1_000_000, 140);
        k.spawn(Box::new(Busy(100)));
        k.run();
        let g = render_kernel(&k, 5);
        assert_eq!(g.trim(), "core  0 |-----|");
    }

    #[test]
    fn serialized_threads_alternate_on_one_core() {
        let mut k = Kernel::new(1, 500, 140);
        k.enable_tracing();
        k.spawn(Box::new(Busy(2_000)));
        k.spawn(Box::new(Busy(2_000)));
        k.run();
        let g = render_kernel(&k, 8);
        // Both threads must show up on the single core.
        assert!(g.contains('0') && g.contains('1'), "{g}");
    }

    #[test]
    fn glyphs_wrap_past_36_threads() {
        let ev = [OccupancyEvent {
            t: 0,
            core: 0,
            tid: Some(Tid(37)),
        }];
        let g = render(&ev, 1, 0, 10, 2);
        assert!(g.contains('1'), "37 % 36 = 1: {g}");
    }
}
