//! Dense per-instance thread numbering.
//!
//! A [`ThreadIds`] numbers the threads that ask it `0, 1, 2, …` in
//! first-use order and answers the same thread with the same number
//! from then on. The tracer uses one for caller identities, the phase
//! profiler one for its shard index. Numbering restarts at 0 for every
//! instance — required for run-to-run deterministic traces — so a
//! thread remembers its number *per instance*, in a small thread-local
//! table keyed by the instance's epoch.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Monotonic id distinguishing [`ThreadIds`] instances.
static EPOCH: AtomicU64 = AtomicU64::new(1);

/// Instances one thread can alternate between and keep its number in
/// each (a hub costs two: tracer and profiler). A thread juggling more
/// is renumbered by the instance whose entry was overwritten.
const HELD: usize = 16;

/// The `(instance epoch, number)` pairs a thread holds, and the entry
/// its next new pair overwrites.
struct Held {
    pairs: [Cell<(u64, u32)>; HELD],
    next: Cell<usize>,
}

thread_local! {
    static THREAD: Held = const {
        Held {
            pairs: [const { Cell::new((0, 0)) }; HELD],
            next: Cell::new(0),
        }
    };
}

/// One numbering of threads (see the module docs).
#[derive(Debug)]
pub(crate) struct ThreadIds {
    epoch: u64,
    next: AtomicU32,
}

impl ThreadIds {
    pub(crate) fn new() -> Self {
        ThreadIds {
            epoch: EPOCH.fetch_add(1, Ordering::Relaxed),
            next: AtomicU32::new(0),
        }
    }

    /// The calling thread's number in this numbering.
    #[inline]
    pub(crate) fn current(&self) -> u32 {
        THREAD.with(|held| {
            for pair in &held.pairs {
                let (epoch, id) = pair.get();
                if epoch == self.epoch {
                    return id;
                }
            }
            let id = self.next.fetch_add(1, Ordering::Relaxed);
            let at = held.next.get();
            held.pairs[at].set((self.epoch, id));
            held.next.set((at + 1) % HELD);
            id
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_thread_keeps_its_number_in_as_many_instances_as_the_table_holds() {
        let all: Vec<ThreadIds> = (0..HELD).map(|_| ThreadIds::new()).collect();
        for _ in 0..2 {
            for ids in &all {
                assert_eq!(ids.current(), 0);
            }
        }
        // One instance more overwrites the oldest entry; only that
        // instance renumbers this thread.
        assert_eq!(ThreadIds::new().current(), 0);
        assert_eq!(all[1].current(), 0);
        assert_eq!(all[0].current(), 1);
    }
}
