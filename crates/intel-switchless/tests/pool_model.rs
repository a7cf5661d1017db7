//! Model-based testing of the Intel task pool: a reference model of slot
//! states must agree with the real pool under arbitrary operation
//! sequences, and the pool must be exactly-once under thread stress.

use intel_switchless::pool::TaskPool;
use proptest::prelude::*;
use switchless_core::{FuncId, OcallRequest};

fn req(tag: u64) -> OcallRequest {
    OcallRequest::new(FuncId(1), &[tag])
}

/// Reference model: each slot's state plus the tag it carries.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ModelSlot {
    Free,
    Claimed,
    Submitted(u64),
    Accepted(u64),
    Done(u64),
}

proptest! {
    /// Random single-threaded op sequences: pool behaviour matches the
    /// model exactly (claims fill free slots in order, accepts take the
    /// first submitted, cancels only win before acceptance, …).
    #[test]
    fn pool_matches_reference_model(ops in prop::collection::vec(0u8..5, 1..80)) {
        let capacity = 3;
        let pool = TaskPool::new(capacity);
        let mut model = vec![ModelSlot::Free; capacity];
        // Claimed-slot tickets from the pool, keyed by slot index.
        let mut claims: Vec<(usize, intel_switchless::pool::SlotIdx)> = Vec::new();
        let mut accepted: Vec<(usize, intel_switchless::pool::SlotIdx)> = Vec::new();
        let mut tag = 0u64;

        for op in ops {
            match op {
                // claim
                0 => {
                    let got = pool.claim();
                    let model_free = model.iter().position(|s| *s == ModelSlot::Free);
                    match (got, model_free) {
                        (Some(idx), Some(mi)) => {
                            model[mi] = ModelSlot::Claimed;
                            claims.push((mi, idx));
                        }
                        (None, None) => {}
                        (got, model_free) => prop_assert!(
                            false,
                            "claim mismatch: pool {got:?} vs model {model_free:?}"
                        ),
                    }
                }
                // submit the oldest claim
                1 => {
                    if let Some((mi, idx)) = claims.pop() {
                        tag += 1;
                        pool.submit(idx, &req(tag), &[]).unwrap();
                        model[mi] = ModelSlot::Submitted(tag);
                    }
                }
                // worker accept
                2 => {
                    let got = pool.accept();
                    let submitted: Vec<usize> = model
                        .iter()
                        .enumerate()
                        .filter(|(_, s)| matches!(s, ModelSlot::Submitted(_)))
                        .map(|(i, _)| i)
                        .collect();
                    match (got, submitted.is_empty()) {
                        (Some(idx), false) => {
                            // Any submitted slot may be returned; find a
                            // matching model slot.
                            let mi = submitted[0];
                            let ModelSlot::Submitted(t) = model[mi] else { unreachable!() };
                            model[mi] = ModelSlot::Accepted(t);
                            accepted.push((mi, idx));
                        }
                        (None, true) => {}
                        (got, empty) => prop_assert!(
                            false,
                            "accept mismatch: pool {got:?} vs model empty={empty}"
                        ),
                    }
                }
                // worker complete + caller collect
                3 => {
                    if let Some((mi, idx)) = accepted.pop() {
                        let ModelSlot::Accepted(t) = model[mi] else { unreachable!() };
                        pool.complete(idx, |d| d.serve(|got, _, _| {
                            assert_eq!(got.args[0], t, "slot carries the submitted tag");
                            t as i64
                        })).unwrap();
                        model[mi] = ModelSlot::Done(t);
                        let (ret, _) = pool.collect(idx, |d| d.reply(&mut Vec::new())).unwrap();
                        prop_assert_eq!(ret, t as i64);
                        model[mi] = ModelSlot::Free;
                    }
                }
                // cancel the oldest submitted
                _ => {
                    if let Some(mi) = model
                        .iter()
                        .position(|s| matches!(s, ModelSlot::Submitted(_)))
                    {
                        // Find its ticket: it's not in claims (submitted) —
                        // reconstruct from the model index (slot idx == mi
                        // because the pool scans in order and our model
                        // mirrors that order).
                        let idx = intel_switchless::pool::SlotIdx::from_raw(mi);
                        if pool.cancel(idx) {
                            model[mi] = ModelSlot::Free;
                        } else {
                            prop_assert!(false, "cancel of submitted slot must win");
                        }
                    }
                }
            }
            // Invariant: pool pending flag agrees with the model.
            let model_pending = model.iter().any(|s| matches!(s, ModelSlot::Submitted(_)));
            prop_assert_eq!(pool.has_pending(), model_pending);
        }
    }
}

/// Multi-threaded stress: every submitted task is executed exactly once
/// with its own payload.
#[test]
fn exactly_once_under_thread_stress() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    let pool = Arc::new(TaskPool::new(4));
    let served = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    // Two worker threads accept and complete.
    let mut workers = Vec::new();
    for _ in 0..2 {
        let pool = Arc::clone(&pool);
        let served = Arc::clone(&served);
        let stop = Arc::clone(&stop);
        workers.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                if let Some(idx) = pool.accept() {
                    pool.complete(idx, |d| d.serve(|r, _, _| r.args[0] as i64))
                        .unwrap();
                    served.fetch_add(1, Ordering::Relaxed);
                } else {
                    std::thread::yield_now();
                }
            }
        }));
    }

    // Three caller threads submit, wait and validate.
    let mut callers = Vec::new();
    for c in 0..3u64 {
        let pool = Arc::clone(&pool);
        callers.push(std::thread::spawn(move || {
            for i in 0..200u64 {
                let tag = c * 1_000 + i;
                let idx = loop {
                    if let Some(idx) = pool.claim() {
                        break idx;
                    }
                    std::thread::yield_now();
                };
                pool.submit(idx, &req(tag), &[]).unwrap();
                while !pool.is_done(idx) {
                    std::thread::yield_now();
                }
                let (ret, _) = pool.collect(idx, |d| d.reply(&mut Vec::new())).unwrap();
                assert_eq!(ret, tag as i64, "caller {c} got someone else's reply");
            }
        }));
    }
    for h in callers {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Release);
    for h in workers {
        h.join().unwrap();
    }
    assert_eq!(
        served.load(Ordering::Relaxed),
        600,
        "each task served exactly once"
    );
}
