//! Pure supervision policy: self-healing for switchless worker pools.
//!
//! The paper's worker state machine (§IV, Fig. 6) assumes workers never
//! die. In a long-running deployment they do: a crashed worker would
//! otherwise stay quarantined forever and the runtime would degrade
//! monotonically toward `no_sl`. The [`Supervisor`] is the *pure*
//! (thread-free, clock-free) policy that bounds this decay:
//!
//! * **Health ledger** — one [`WorkerHealth`] entry per worker slot,
//!   moving `Healthy → Backoff → Probation → Healthy` (or back to
//!   `Backoff` on a relapse).
//! * **Respawn with exponential backoff** — a failed slot is respawned
//!   after `backoff_base_cycles << (consecutive_failures - 1)` cycles
//!   (capped), so a crash-looping slot cannot churn threads.
//! * **Probation** — a respawned slot must survive
//!   `probation_cycles` without another failure before it *heals*
//!   (its consecutive-failure count resets).
//! * **Poison-request blacklist** — a [`PoisonKey`] (`FuncId` plus a
//!   payload-size shape bucket) that kills
//!   [`poison_threshold`](SuperviseParams::poison_threshold) workers is
//!   pinned to the regular-ocall path: dispatch stops offering it to
//!   workers at all.
//!
//! Like the scheduler policy, this module is shared byte-for-byte
//! between the real `zc-switchless` runtime (driven by its
//! `supervise` thread), the `intel-switchless` task pool, and the
//! discrete-event simulator, so recovery behaviour can be pinned down
//! deterministically in virtual time.

use crate::config::PAPER_QUANTUM_MS;
use crate::cpu::CpuSpec;
use crate::func::FuncId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Tunables of the supervision subsystem.
///
/// In the configless spirit of the paper, every default derives from
/// the machine model ([`SuperviseParams::for_cpu`]); nothing encodes
/// workload knowledge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SuperviseParams {
    /// Base respawn delay in cycles after a failure; doubles per
    /// consecutive failure of the same slot.
    pub backoff_base_cycles: u64,
    /// Upper bound on the respawn delay.
    pub backoff_max_cycles: u64,
    /// Clean cycles a respawned slot must survive before it heals
    /// (consecutive-failure count resets).
    pub probation_cycles: u64,
    /// Distinct worker failures a single [`PoisonKey`] may cause before
    /// it is blacklisted to the regular-ocall path.
    pub poison_threshold: u32,
    /// Caller-side deadline for an in-flight switchless call, in
    /// cycles; past it the watchdog cancels the call and re-routes it.
    pub watchdog_cycles: u64,
}

impl SuperviseParams {
    /// Machine-derived defaults: backoff starts at one scheduling
    /// quantum (10 ms), caps at 16 quanta, probation and the watchdog
    /// deadline are one quantum.
    #[must_use]
    pub fn for_cpu(cpu: CpuSpec) -> Self {
        let quantum = cpu.quantum_cycles(PAPER_QUANTUM_MS);
        SuperviseParams {
            backoff_base_cycles: quantum,
            backoff_max_cycles: quantum.saturating_mul(16),
            probation_cycles: quantum,
            poison_threshold: 3,
            watchdog_cycles: quantum,
        }
    }

    /// Builder-style override of the watchdog deadline.
    #[must_use]
    pub fn with_watchdog_cycles(mut self, cycles: u64) -> Self {
        self.watchdog_cycles = cycles.max(1);
        self
    }

    /// Builder-style override of the poison-request threshold.
    #[must_use]
    pub fn with_poison_threshold(mut self, k: u32) -> Self {
        self.poison_threshold = k.max(1);
        self
    }

    /// Builder-style override of the respawn backoff (base and cap).
    #[must_use]
    pub fn with_backoff_cycles(mut self, base: u64, max: u64) -> Self {
        self.backoff_base_cycles = base.max(1);
        self.backoff_max_cycles = max.max(base.max(1));
        self
    }

    /// Builder-style override of the probation window.
    #[must_use]
    pub fn with_probation_cycles(mut self, cycles: u64) -> Self {
        self.probation_cycles = cycles.max(1);
        self
    }
}

impl Default for SuperviseParams {
    fn default() -> Self {
        SuperviseParams::for_cpu(CpuSpec::paper_machine())
    }
}

/// Identity of a request shape for the poison blacklist: the function
/// plus a coarse payload-size bucket (power of two), so "this `FuncId`
/// with large payloads" can be quarantined without pinning every call
/// to that function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PoisonKey {
    /// The registered host function.
    pub func: FuncId,
    /// `log2` of the payload size rounded up to a power of two
    /// (0 for empty payloads).
    pub shape: u8,
}

impl PoisonKey {
    /// Key for a call to `func` carrying `payload_len` bytes.
    #[must_use]
    pub fn new(func: FuncId, payload_len: usize) -> Self {
        let shape = if payload_len == 0 {
            0
        } else {
            (usize::BITS - (payload_len - 1).leading_zeros()) as u8
        };
        PoisonKey { func, shape }
    }
}

/// Health of one worker slot as tracked by the [`Supervisor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerHealth {
    /// Serving calls normally.
    Healthy,
    /// Failed; a respawn is pending once `until_cycles` passes.
    Backoff {
        /// Cycle time at which the slot becomes eligible for respawn.
        until_cycles: u64,
    },
    /// Freshly respawned; heals at `until_cycles` unless it fails again.
    Probation {
        /// Cycle time at which a clean slot heals.
        until_cycles: u64,
    },
}

/// An action the supervisor instructs the runtime to take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuperviseDecision {
    /// Spawn a fresh worker (thread + buffer) for slot `worker`; this is
    /// generation `generation` of the slot.
    Respawn {
        /// Slot index to respawn.
        worker: usize,
        /// Monotonic per-slot generation counter (initial spawn = 0).
        generation: u64,
    },
    /// Slot `worker` survived probation cleanly and is healthy again.
    Heal {
        /// Slot index that healed.
        worker: usize,
    },
    /// `key` exceeded the poison threshold: pin it to the regular path.
    Blacklist {
        /// The offending request shape.
        key: PoisonKey,
    },
}

#[derive(Debug, Clone)]
struct WorkerLedger {
    health: WorkerHealth,
    consecutive_failures: u32,
    generation: u64,
}

impl WorkerLedger {
    fn new() -> Self {
        WorkerLedger {
            health: WorkerHealth::Healthy,
            consecutive_failures: 0,
            generation: 0,
        }
    }
}

/// The supervision policy state machine (pure: the caller supplies all
/// timestamps, typically from a `CycleClock` or the DES kernel).
///
/// # Example
///
/// ```
/// use switchless_core::supervise::{SuperviseDecision, SuperviseParams, Supervisor};
///
/// let params = SuperviseParams::default().with_backoff_cycles(1_000, 8_000);
/// let mut sup = Supervisor::new(2, params);
/// sup.record_failure(0, None, 10);
/// assert!(sup.poll(500).is_empty(), "still backing off");
/// let d = sup.poll(2_000);
/// assert_eq!(
///     d,
///     vec![SuperviseDecision::Respawn { worker: 0, generation: 1 }]
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Supervisor {
    params: SuperviseParams,
    ledger: Vec<WorkerLedger>,
    poison_counts: BTreeMap<PoisonKey, u32>,
    blacklist: Vec<PoisonKey>,
    respawns: u64,
    heals: u64,
    enclave_restarts: u64,
}

impl Supervisor {
    /// Supervisor for `workers` slots, all initially healthy.
    #[must_use]
    pub fn new(workers: usize, params: SuperviseParams) -> Self {
        Supervisor {
            params,
            ledger: vec![WorkerLedger::new(); workers],
            poison_counts: BTreeMap::new(),
            blacklist: Vec::new(),
            respawns: 0,
            heals: 0,
            enclave_restarts: 0,
        }
    }

    /// The parameters this supervisor runs with.
    #[must_use]
    pub fn params(&self) -> &SuperviseParams {
        &self.params
    }

    /// Report a worker failure (crash, hang, guard violation or
    /// watchdog cancellation: all charge the same ledger) at cycle time
    /// `now`. The slot enters `Backoff` with an exponentially growing
    /// delay. When `culprit` (the request shape in flight, if any)
    /// reaches the poison threshold, a [`SuperviseDecision::Blacklist`]
    /// is returned — the runtime must stop routing that shape to
    /// workers.
    pub fn record_failure(
        &mut self,
        worker: usize,
        culprit: Option<PoisonKey>,
        now: u64,
    ) -> Option<SuperviseDecision> {
        let slot = self.ledger.get_mut(worker)?;
        slot.consecutive_failures = slot.consecutive_failures.saturating_add(1);
        let exp = u32::min(slot.consecutive_failures.saturating_sub(1), 32);
        let delay = self
            .params
            .backoff_base_cycles
            .saturating_shl(exp)
            .min(self.params.backoff_max_cycles);
        slot.health = WorkerHealth::Backoff {
            until_cycles: now.saturating_add(delay),
        };
        if let Some(key) = culprit {
            if !self.blacklist.contains(&key) {
                let count = self.poison_counts.entry(key).or_insert(0);
                *count += 1;
                if *count >= self.params.poison_threshold {
                    self.blacklist.push(key);
                    return Some(SuperviseDecision::Blacklist { key });
                }
            }
        }
        None
    }

    /// The enclave restarted: wipe every slot's ledger (the worker
    /// fleet is a fresh generation) and keep the poison blacklist
    /// (request shapes stay poisonous across restarts — they live
    /// host-side).
    pub fn note_enclave_restart(&mut self) {
        for slot in &mut self.ledger {
            slot.health = WorkerHealth::Healthy;
            slot.consecutive_failures = 0;
            slot.generation += 1;
        }
        self.enclave_restarts += 1;
    }

    /// Whole-enclave restarts noted so far.
    #[must_use]
    pub fn enclave_restarts(&self) -> u64 {
        self.enclave_restarts
    }

    /// Evaluate time-driven transitions at cycle time `now`: slots whose
    /// backoff elapsed yield a [`SuperviseDecision::Respawn`] (entering
    /// probation), slots whose probation elapsed cleanly yield a
    /// [`SuperviseDecision::Heal`].
    pub fn poll(&mut self, now: u64) -> Vec<SuperviseDecision> {
        let mut decisions = Vec::new();
        for (worker, slot) in self.ledger.iter_mut().enumerate() {
            match slot.health {
                WorkerHealth::Backoff { until_cycles } if now >= until_cycles => {
                    slot.generation += 1;
                    slot.health = WorkerHealth::Probation {
                        until_cycles: now.saturating_add(self.params.probation_cycles),
                    };
                    self.respawns += 1;
                    decisions.push(SuperviseDecision::Respawn {
                        worker,
                        generation: slot.generation,
                    });
                }
                WorkerHealth::Probation { until_cycles } if now >= until_cycles => {
                    slot.consecutive_failures = 0;
                    slot.health = WorkerHealth::Healthy;
                    self.heals += 1;
                    decisions.push(SuperviseDecision::Heal { worker });
                }
                _ => {}
            }
        }
        decisions
    }

    /// Is this request shape pinned to the regular-ocall path?
    #[must_use]
    pub fn is_blacklisted(&self, key: PoisonKey) -> bool {
        self.blacklist.contains(&key)
    }

    /// Current health of slot `worker` (`Healthy` for out-of-range).
    #[must_use]
    pub fn health(&self, worker: usize) -> WorkerHealth {
        self.ledger
            .get(worker)
            .map_or(WorkerHealth::Healthy, |s| s.health)
    }

    /// Current generation of slot `worker` (0 = initial spawn).
    #[must_use]
    pub fn generation(&self, worker: usize) -> u64 {
        self.ledger.get(worker).map_or(0, |s| s.generation)
    }

    /// Slots currently `Healthy` or on `Probation` (i.e. serving calls).
    #[must_use]
    pub fn serving_workers(&self) -> usize {
        self.ledger
            .iter()
            .filter(|s| !matches!(s.health, WorkerHealth::Backoff { .. }))
            .count()
    }

    /// Blacklisted request shapes, in blacklisting order.
    #[must_use]
    pub fn blacklisted(&self) -> &[PoisonKey] {
        &self.blacklist
    }

    /// Total respawns issued so far.
    #[must_use]
    pub fn respawns(&self) -> u64 {
        self.respawns
    }

    /// Total heals issued so far.
    #[must_use]
    pub fn heals(&self) -> u64 {
        self.heals
    }
}

trait SaturatingShl {
    fn saturating_shl(self, exp: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, exp: u32) -> u64 {
        self.checked_shl(exp).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> SuperviseParams {
        SuperviseParams::default()
            .with_backoff_cycles(1_000, 8_000)
            .with_probation_cycles(5_000)
            .with_poison_threshold(2)
    }

    #[test]
    fn defaults_derive_from_machine_model() {
        let p = SuperviseParams::for_cpu(CpuSpec::paper_machine());
        let quantum = CpuSpec::paper_machine().quantum_cycles(10);
        assert_eq!(p.backoff_base_cycles, quantum);
        assert_eq!(p.backoff_max_cycles, 16 * quantum);
        assert_eq!(p.probation_cycles, quantum);
        assert_eq!(p.watchdog_cycles, quantum);
        assert_eq!(p.poison_threshold, 3);
    }

    #[test]
    fn respawn_after_backoff_then_heal_after_probation() {
        let mut sup = Supervisor::new(2, params());
        assert_eq!(sup.health(0), WorkerHealth::Healthy);
        sup.record_failure(0, None, 100);
        assert_eq!(
            sup.health(0),
            WorkerHealth::Backoff {
                until_cycles: 1_100
            }
        );
        assert!(sup.poll(1_099).is_empty());
        assert_eq!(
            sup.poll(1_100),
            vec![SuperviseDecision::Respawn {
                worker: 0,
                generation: 1
            }]
        );
        assert_eq!(
            sup.health(0),
            WorkerHealth::Probation {
                until_cycles: 6_100
            }
        );
        assert!(sup.poll(6_000).is_empty());
        assert_eq!(sup.poll(6_100), vec![SuperviseDecision::Heal { worker: 0 }]);
        assert_eq!(sup.health(0), WorkerHealth::Healthy);
        assert_eq!((sup.respawns(), sup.heals()), (1, 1));
    }

    #[test]
    fn backoff_doubles_per_consecutive_failure_and_caps() {
        let mut sup = Supervisor::new(1, params());
        // Failure 1: 1000-cycle backoff.
        sup.record_failure(0, None, 0);
        assert_eq!(
            sup.health(0),
            WorkerHealth::Backoff {
                until_cycles: 1_000
            }
        );
        sup.poll(1_000); // respawn -> probation
                         // Relapse during probation: backoff doubles.
        sup.record_failure(0, None, 1_500);
        assert_eq!(
            sup.health(0),
            WorkerHealth::Backoff {
                until_cycles: 3_500
            }
        );
        sup.poll(3_500);
        sup.record_failure(0, None, 4_000);
        assert_eq!(
            sup.health(0),
            WorkerHealth::Backoff {
                until_cycles: 8_000
            }
        );
        // Further failures stay at the 8000-cycle cap.
        sup.poll(8_000);
        sup.record_failure(0, None, 9_000);
        assert_eq!(
            sup.health(0),
            WorkerHealth::Backoff {
                until_cycles: 17_000
            }
        );
    }

    #[test]
    fn heal_resets_the_backoff_ladder() {
        let mut sup = Supervisor::new(1, params());
        sup.record_failure(0, None, 0);
        sup.poll(1_000);
        sup.record_failure(0, None, 1_100); // 2x backoff
        sup.poll(3_100); // respawn
        sup.poll(8_100); // heal (probation 5000)
        assert_eq!(sup.health(0), WorkerHealth::Healthy);
        // After healing, the next failure is back to the base backoff.
        sup.record_failure(0, None, 10_000);
        assert_eq!(
            sup.health(0),
            WorkerHealth::Backoff {
                until_cycles: 11_000
            }
        );
    }

    #[test]
    fn poison_key_buckets_payload_sizes() {
        let f = FuncId(7);
        assert_eq!(PoisonKey::new(f, 0).shape, 0);
        assert_eq!(PoisonKey::new(f, 1).shape, 0);
        assert_eq!(PoisonKey::new(f, 2).shape, 1);
        assert_eq!(PoisonKey::new(f, 1024).shape, 10);
        assert_eq!(PoisonKey::new(f, 1025).shape, 11);
        assert_eq!(
            PoisonKey::new(f, 700),
            PoisonKey::new(f, 1000),
            "same power-of-two bucket"
        );
        assert_ne!(PoisonKey::new(f, 700), PoisonKey::new(FuncId(8), 700));
    }

    #[test]
    fn blacklist_fires_at_threshold_distinct_failures() {
        let mut sup = Supervisor::new(4, params()); // threshold 2
        let key = PoisonKey::new(FuncId(3), 512);
        assert!(sup.record_failure(0, Some(key), 0).is_none());
        assert!(!sup.is_blacklisted(key));
        let d = sup.record_failure(1, Some(key), 10);
        assert_eq!(d, Some(SuperviseDecision::Blacklist { key }));
        assert!(sup.is_blacklisted(key));
        assert_eq!(sup.blacklisted(), &[key]);
        // Already blacklisted: no duplicate decision.
        assert!(sup.record_failure(2, Some(key), 20).is_none());
        assert_eq!(sup.blacklisted().len(), 1);
    }

    #[test]
    fn different_shapes_blacklist_independently() {
        let mut sup = Supervisor::new(4, params());
        let small = PoisonKey::new(FuncId(3), 16);
        let big = PoisonKey::new(FuncId(3), 4096);
        sup.record_failure(0, Some(small), 0);
        sup.record_failure(1, Some(big), 0);
        assert!(!sup.is_blacklisted(small) && !sup.is_blacklisted(big));
        sup.record_failure(2, Some(big), 0);
        assert!(sup.is_blacklisted(big));
        assert!(!sup.is_blacklisted(small));
    }

    #[test]
    fn serving_workers_excludes_backoff_slots() {
        let mut sup = Supervisor::new(3, params());
        assert_eq!(sup.serving_workers(), 3);
        sup.record_failure(1, None, 0);
        assert_eq!(sup.serving_workers(), 2);
        sup.poll(1_000); // respawn: probation counts as serving
        assert_eq!(sup.serving_workers(), 3);
    }

    #[test]
    fn enclave_restart_wipes_ledgers_and_bumps_generations() {
        let mut sup = Supervisor::new(4, params());
        for w in 0..3 {
            sup.record_failure(w, None, 10 * w as u64);
        }
        let gen_before = sup.generation(0);
        sup.note_enclave_restart();
        assert_eq!(sup.enclave_restarts(), 1);
        assert_eq!(sup.generation(0), gen_before + 1);
        for w in 0..4 {
            assert_eq!(sup.health(w), WorkerHealth::Healthy);
        }
        // The ladder restarts too: the next failure backs off at base.
        sup.record_failure(0, None, 40);
        assert_eq!(
            sup.health(0),
            WorkerHealth::Backoff {
                until_cycles: 1_040
            }
        );
    }

    #[test]
    fn blacklist_survives_enclave_restart() {
        let mut sup = Supervisor::new(4, params()); // threshold 2
        let key = PoisonKey::new(FuncId(3), 512);
        sup.record_failure(0, Some(key), 0);
        let d = sup.record_failure(1, Some(key), 10);
        assert_eq!(d, Some(SuperviseDecision::Blacklist { key }));
        sup.note_enclave_restart();
        assert!(sup.is_blacklisted(key), "shapes stay poisonous");
    }

    #[test]
    fn out_of_range_worker_is_ignored() {
        let mut sup = Supervisor::new(1, params());
        assert!(sup.record_failure(9, None, 0).is_none());
        assert_eq!(sup.health(9), WorkerHealth::Healthy);
        assert_eq!(sup.generation(9), 0);
        assert!(sup.poll(u64::MAX).is_empty());
    }
}
