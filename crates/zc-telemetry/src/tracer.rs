//! The event tracer: ring buffer plus per-thread caller identities.

use crate::event::{Event, Origin, RecordedEvent};
use crate::ring::Ring;
use crate::thread_ids::ThreadIds;
use std::sync::Mutex;

/// Lock-free bounded event tracer (MPSC).
///
/// Any thread may [`record`](Tracer::record); draining
/// ([`drain`](Tracer::drain)) is serialised internally and meant for
/// the cold export path.
#[derive(Debug)]
pub struct Tracer {
    ring: Ring,
    callers: ThreadIds,
    /// Serialises the single-consumer side of the ring.
    consumer: Mutex<()>,
}

impl std::fmt::Debug for Ring {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ring")
            .field("capacity", &self.capacity())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl Tracer {
    /// New tracer whose ring holds `capacity` events (rounded up to a
    /// power of two, minimum 2).
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            ring: Ring::with_capacity(capacity),
            callers: ThreadIds::new(),
            consumer: Mutex::new(()),
        }
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Record one event; returns `false` if the ring was full and the
    /// event was dropped (counted in [`dropped`](Tracer::dropped)).
    #[inline]
    pub fn record(&self, t_cycles: u64, origin: Origin, event: Event) -> bool {
        self.ring.push(RecordedEvent {
            t_cycles,
            origin,
            event,
        })
    }

    /// The calling thread's [`Origin::Caller`] identity for this
    /// tracer. Ids are dense, assigned in first-use order per tracer,
    /// and remembered per thread and tracer, so a run that spawns
    /// callers in a fixed order sees the same numbering every run and a
    /// thread recording into several hubs in turn keeps one id in each.
    #[inline]
    pub fn caller_origin(&self) -> Origin {
        Origin::Caller(self.callers.current())
    }

    /// Number of events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Drain all currently buffered events in ring (admission) order.
    pub fn drain(&self) -> Vec<RecordedEvent> {
        let _guard = self.consumer.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = Vec::new();
        // SAFETY: the consumer mutex guarantees single-consumer access.
        while let Some(ev) = unsafe { self.ring.pop() } {
            out.push(ev);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caller_ids_are_per_tracer_and_cached() {
        let t1 = Tracer::with_capacity(8);
        assert_eq!(t1.caller_origin(), Origin::Caller(0));
        assert_eq!(t1.caller_origin(), Origin::Caller(0), "cached");
        let t2 = Tracer::with_capacity(8);
        assert_eq!(
            t2.caller_origin(),
            Origin::Caller(0),
            "fresh tracer restarts"
        );
        let from_thread = std::thread::spawn(move || t2.caller_origin())
            .join()
            .unwrap();
        assert_eq!(from_thread, Origin::Caller(1), "second thread gets next id");
    }

    /// One application thread driving a fleet with per-tenant hubs
    /// alternates tracers call by call; it used to be handed a fresh id
    /// on every switch.
    #[test]
    fn caller_ids_do_not_churn_when_a_thread_alternates_tracers() {
        let (a, b) = (Tracer::with_capacity(8), Tracer::with_capacity(8));
        for _ in 0..2 {
            assert_eq!(a.caller_origin(), Origin::Caller(0));
            assert_eq!(b.caller_origin(), Origin::Caller(0));
        }
        std::thread::scope(|s| {
            s.spawn(|| {
                assert_eq!(a.caller_origin(), Origin::Caller(1));
                assert_eq!(b.caller_origin(), Origin::Caller(1));
            });
        });
    }

    #[test]
    fn drain_returns_admission_order() {
        let t = Tracer::with_capacity(8);
        for i in 0..5 {
            assert!(t.record(i, Origin::Scheduler, Event::Marker { label: "x" }));
        }
        let evs = t.drain();
        assert_eq!(evs.len(), 5);
        assert!(evs.windows(2).all(|w| w[0].t_cycles < w[1].t_cycles));
        assert!(t.drain().is_empty());
        assert_eq!(t.dropped(), 0);
    }
}
