//! Pure overload-control policy: admission and deadlines.
//!
//! Under sustained overload an unprotected switchless runtime fails in
//! a characteristic sequence: the worker pool saturates, every extra
//! call takes the fallback path, the fallback storm pins the regular
//! ocall machinery, queues grow without bound and p99 latency diverges
//! while *goodput* (work finished inside its deadline) collapses. This
//! module is the side-effect-free policy that interrupts that sequence
//! (DESIGN.md §13); the runtimes only *execute* its verdicts, exactly
//! as they execute the scheduler argmin from [`crate::policy`] and the
//! healing decisions from [`crate::supervise`].
//!
//! Admission is two checks, in cycles of the machine model, combined
//! into one verdict per call ([`OverloadParams::verdict`]) and ordered
//! `DeadlineExpired > QueueFull`:
//!
//! * **Deadline budgets** ([`Deadline`]) — a call may carry an expiry
//!   cycle; one already past it on arrival is shed instead of queued.
//! * **Queue-depth gate** — a call that finds
//!   [`OverloadParams::max_inflight`] calls in flight is shed.
//!
//! An admitted call is never shed later: a caller that finds no idle
//! worker falls back to a regular ocall at once, and that call always
//! completes (paper §IV-B, Take-away 7). Nothing here rate-limits.
//!
//! The verdict is deterministic and proptested
//! (`tests/overload_props.rs`); its only inputs are a cycle timestamp
//! and the in-flight depth supplied by the caller. [`OverloadPlane`]
//! hosts it behind atomics, with no lock.

use crate::cpu::CpuSpec;
use crate::stats::Ledger;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Kept only for the frozen `benchmark/src/layers.rs`, which passes `Priority::Normal`.
#[derive(Debug, Clone, Copy)]
pub enum Priority {
    /// The one class every call has.
    Normal,
}

/// Why a call was shed. Doubles as the shed-accounting key: every shed
/// is attributed to exactly one reason, so per-reason counters sum to
/// total sheds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ShedReason {
    /// The call's deadline had already expired on arrival.
    DeadlineExpired,
    /// The in-flight queue-depth gate was at capacity.
    QueueFull,
}

impl ShedReason {
    /// All reasons, in lattice order.
    pub const ALL: [ShedReason; 2] = [ShedReason::DeadlineExpired, ShedReason::QueueFull];

    /// Stable lowercase name for exports and counters.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ShedReason::DeadlineExpired => "deadline_expired",
            ShedReason::QueueFull => "queue_full",
        }
    }

    /// Position in [`ShedReason::ALL`] (the per-reason counter index).
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// A per-call completion deadline in absolute cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Deadline {
    /// Cycle at which the call becomes worthless.
    pub expires_at_cycles: u64,
}

impl Deadline {
    /// Deadline `budget_cycles` after `now_cycles` (saturating).
    #[must_use]
    pub fn after(now_cycles: u64, budget_cycles: u64) -> Self {
        Deadline {
            expires_at_cycles: now_cycles.saturating_add(budget_cycles),
        }
    }

    /// Has the deadline passed at `now_cycles`?
    #[must_use]
    pub fn expired(self, now_cycles: u64) -> bool {
        now_cycles >= self.expires_at_cycles
    }

    /// Cycles of budget left at `now_cycles` (zero once expired).
    #[must_use]
    pub fn remaining(self, now_cycles: u64) -> u64 {
        self.expires_at_cycles.saturating_sub(now_cycles)
    }
}

/// Tuning for the overload plane.
///
/// `Copy` and machine-derived like the rest of [`crate::config`]: the
/// default comes from the CPU spec, not from workload knowledge, so
/// enabling overload control stays configless in the paper's sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OverloadParams {
    /// In-flight call ceiling of the queue-depth gate.
    pub max_inflight: u64,
}

impl OverloadParams {
    /// Machine-derived defaults for `cpu`: the queue gate's ceiling is
    /// four in-flight calls per logical CPU (8 on two, 32 on the paper
    /// machine's eight), so a rising ramp of calls is first shed
    /// `QueueFull` there.
    #[must_use]
    pub fn for_cpu(cpu: &CpuSpec) -> Self {
        OverloadParams {
            max_inflight: (cpu.logical_cpus as u64).saturating_mul(4).max(4),
        }
    }

    /// Builder-style override of the in-flight ceiling.
    #[must_use]
    pub fn with_max_inflight(mut self, n: u64) -> Self {
        self.max_inflight = n;
        self
    }

    /// Returns `self`: a no-op kept only for the frozen
    /// `benchmark/src/{real,layers}.rs` (the token bucket it sized is
    /// gone; it never shed a call at its defaults).
    #[must_use]
    pub fn with_bucket(self, _capacity: u64, _refill_period_cycles: u64) -> Self {
        self
    }

    /// Decide admission for one call.
    ///
    /// `inflight` is the caller-observed in-flight call count *before*
    /// this call; `deadline` is the call's own budget if it carries
    /// one. The deadline is checked first: a call dead on arrival is
    /// shed `DeadlineExpired` whatever the queue depth.
    ///
    /// # Errors
    ///
    /// The [`ShedReason`] of the first check the call fails.
    pub fn verdict(
        &self,
        now_cycles: u64,
        inflight: u64,
        deadline: Option<Deadline>,
    ) -> Result<(), ShedReason> {
        if deadline.is_some_and(|d| d.expired(now_cycles)) {
            Err(ShedReason::DeadlineExpired)
        } else if inflight >= self.max_inflight {
            Err(ShedReason::QueueFull)
        } else {
            Ok(())
        }
    }
}

impl Default for OverloadParams {
    fn default() -> Self {
        OverloadParams::for_cpu(&CpuSpec::paper_machine())
    }
}

/// Thread-safe overload plane: [`OverloadParams::verdict`] over
/// lock-free in-flight and shed/offer accounting.
///
/// This is the form the runtimes embed: callers funnel admission
/// through [`try_admit`](OverloadPlane::try_admit) and read
/// [`snapshot`](OverloadPlane::snapshot) for metrics.
///
/// Accounting contract (exact once the runtime has quiesced): every
/// call offered to the plane either completes on some
/// [`crate::CallPath`] or is shed with exactly one [`ShedReason`], so
/// `completed + shed_total == offered`.
#[derive(Debug)]
pub struct OverloadPlane {
    params: OverloadParams,
    inflight: AtomicU64,
    offered: AtomicU64,
    shed: [AtomicU64; ShedReason::ALL.len()],
}

/// RAII in-flight token: holds one unit of the plane's queue-depth
/// gate, released on drop (whatever path the call completes or errors
/// through).
#[derive(Debug)]
pub struct InflightGuard<'a> {
    plane: &'a OverloadPlane,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.plane.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Outcome of one [`OverloadPlane::admit`].
#[derive(Debug)]
pub struct PlaneAdmission<'a> {
    /// In-flight token or shed reason; a struct only for the frozen `benchmark/src/layers.rs`.
    pub outcome: Result<InflightGuard<'a>, ShedReason>,
}

/// Point-in-time read of the plane's counters (they may individually
/// race while traffic is live; after quiescing they are exact).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverloadSnapshot {
    /// Calls that entered admission.
    pub offered: u64,
    /// `offered` minus the sheds; kept for the frozen
    /// `benchmark/src/real.rs`.
    pub admitted: u64,
    /// Calls currently holding an in-flight token.
    pub inflight: u64,
    /// Per-reason shed counts, [`ShedReason::ALL`] order.
    pub shed: [u64; ShedReason::ALL.len()],
}

impl OverloadSnapshot {
    /// Total sheds across all reasons.
    #[must_use]
    pub fn shed_total(&self) -> u64 {
        self.shed.iter().sum()
    }

    /// Sheds attributed to one reason.
    #[must_use]
    pub fn shed_for(&self, reason: ShedReason) -> u64 {
        self.shed[reason.index()]
    }

    /// [`Ledger::conserves`] with `completed` from outside; kept for the frozen `benchmark/src/real.rs`.
    #[must_use]
    pub fn conserves(&self, completed: u64) -> bool {
        Ledger {
            offered: self.offered,
            completed,
            shed: self.shed_total(),
            ..Ledger::default()
        }
        .conserves()
    }
}

impl OverloadPlane {
    /// Plane with all counters zero.
    #[must_use]
    pub fn new(params: OverloadParams) -> Self {
        OverloadPlane {
            params,
            inflight: AtomicU64::new(0),
            offered: AtomicU64::new(0),
            shed: Default::default(),
        }
    }

    /// The parameters the plane was built with.
    #[must_use]
    pub fn params(&self) -> &OverloadParams {
        &self.params
    }

    /// Admit or shed one call. Only admitted calls hold an in-flight
    /// token; sheds are counted under their reason. The depth the gate
    /// judges is read before this call's own increment, so callers
    /// racing past the gate together may each be admitted.
    ///
    /// # Errors
    ///
    /// The [`ShedReason`] the verdict shed the call for.
    pub fn try_admit(
        &self,
        now_cycles: u64,
        deadline: Option<Deadline>,
    ) -> Result<InflightGuard<'_>, ShedReason> {
        self.offered.fetch_add(1, Ordering::Relaxed);
        let depth = self.inflight.load(Ordering::Acquire);
        match self.params.verdict(now_cycles, depth, deadline) {
            Ok(()) => {
                self.inflight.fetch_add(1, Ordering::AcqRel);
                Ok(InflightGuard { plane: self })
            }
            Err(reason) => {
                self.shed[reason.index()].fetch_add(1, Ordering::Relaxed);
                Err(reason)
            }
        }
    }

    /// [`try_admit`](Self::try_admit), kept only for the frozen `benchmark/src/layers.rs`.
    pub fn admit(
        &self,
        now_cycles: u64,
        _priority: Priority,
        deadline: Option<Deadline>,
    ) -> PlaneAdmission<'_> {
        PlaneAdmission {
            outcome: self.try_admit(now_cycles, deadline),
        }
    }

    /// A no-op, kept only for the frozen `benchmark/src/layers.rs`.
    pub fn on_success(&self, _now_cycles: u64) {}

    /// Counter snapshot for metrics and reports.
    #[must_use]
    pub fn snapshot(&self) -> OverloadSnapshot {
        let offered = self.offered.load(Ordering::Acquire);
        let shed: [u64; ShedReason::ALL.len()] =
            std::array::from_fn(|i| self.shed[i].load(Ordering::Acquire));
        OverloadSnapshot {
            offered,
            admitted: offered.saturating_sub(shed.iter().sum()),
            inflight: self.inflight.load(Ordering::Acquire),
            shed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_budget_arithmetic() {
        let d = Deadline::after(1_000, 500);
        assert!(!d.expired(1_499));
        assert!(d.expired(1_500));
        assert_eq!(d.remaining(1_200), 300);
        assert_eq!(d.remaining(2_000), 0);
        let sat = Deadline::after(u64::MAX - 1, 100);
        assert_eq!(sat.expires_at_cycles, u64::MAX);
    }

    #[test]
    fn verdict_lattice_orders_shed_reasons() {
        let p = OverloadParams::default().with_max_inflight(8);
        // An expired deadline wins over a full gate.
        let late = Some(Deadline::after(0, 0));
        assert_eq!(p.verdict(0, 100, late), Err(ShedReason::DeadlineExpired));
        assert_eq!(p.verdict(0, 0, late), Err(ShedReason::DeadlineExpired));
        // Over the gate: queue-full; a live deadline changes nothing.
        assert_eq!(p.verdict(0, 8, None), Err(ShedReason::QueueFull));
        assert_eq!(
            p.verdict(0, 8, Some(Deadline::after(0, 1))),
            Err(ShedReason::QueueFull)
        );
        assert_eq!(p.verdict(0, 7, Some(Deadline::after(0, 1))), Ok(()));
        // A zero-depth gate sheds every call.
        let closed = p.with_max_inflight(0);
        assert_eq!(closed.verdict(0, 0, None), Err(ShedReason::QueueFull));
    }

    #[test]
    fn machine_derived_defaults_are_sane() {
        let p = OverloadParams::default();
        assert_eq!(p.max_inflight, 32, "four per logical CPU of eight");
        assert_eq!(p.with_bucket(1 << 20, 1), p, "the frozen shim sets nothing");
        let names: Vec<_> = ShedReason::ALL.iter().map(|r| r.name()).collect();
        assert_eq!(names, ["deadline_expired", "queue_full"]);
        assert!(ShedReason::ALL
            .iter()
            .enumerate()
            .all(|(i, r)| r.index() == i));
    }

    #[test]
    fn plane_guard_releases_inflight_and_counters_conserve() {
        let plane = OverloadPlane::new(OverloadParams::default().with_max_inflight(2));
        let a = plane.try_admit(0, None);
        let b = plane.try_admit(0, None);
        assert!(a.is_ok() && b.is_ok());
        assert_eq!(plane.snapshot().inflight, 2);
        // Third call hits the queue-depth gate.
        let c = plane.try_admit(0, None);
        assert_eq!(c.unwrap_err(), ShedReason::QueueFull);
        drop(a);
        drop(b);
        let snap = plane.snapshot();
        assert_eq!(snap.inflight, 0, "guards release on drop");
        assert_eq!(snap.offered, 3);
        assert_eq!(snap.admitted, 2);
        assert_eq!(snap.shed_for(ShedReason::QueueFull), 1);
        // Two calls completed, one shed: exact conservation.
        assert!(snap.conserves(2));
        assert!(!snap.conserves(3));
    }

    #[test]
    fn the_queue_gate_is_the_first_shed_at_every_cpu_count() {
        // The machine-derived params, fed a rising in-flight depth
        // (three calls per depth), first shed at the queue gate, at
        // `max_inflight` = four calls per logical CPU.
        let first_shed = |logical_cpus| {
            let params =
                OverloadParams::for_cpu(&CpuSpec::paper_machine().with_logical_cpus(logical_cpus));
            let shed = (0..)
                .flat_map(|depth| [depth; 3])
                .find_map(|depth| params.verdict(0, depth, None).err().map(|r| (depth, r)));
            (params.max_inflight, shed.expect("a rising depth sheds"))
        };
        assert_eq!(first_shed(2), (8, (8, ShedReason::QueueFull)));
        assert_eq!(first_shed(4), (16, (16, ShedReason::QueueFull)));
        // The paper machine.
        assert_eq!(first_shed(8), (32, (32, ShedReason::QueueFull)));
    }

    /// Real threads race through one plane: each counts its own admits
    /// and sheds by reason, and after the join the plane's counters
    /// account for every call exactly. A deadline expired on every
    /// third call and a two-call gate make both reasons shed; what each
    /// call gets depends on the interleaving, the totals do not.
    #[test]
    fn racing_callers_are_each_counted_exactly_once() {
        const THREADS: usize = 4;
        const CALLS: u64 = 20_000;
        let plane = OverloadPlane::new(OverloadParams::default().with_max_inflight(2));
        let counts: Vec<[u64; 3]> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        // [admitted, per-reason sheds in `ALL` order].
                        let mut mine = [0u64; 3];
                        for i in 0..CALLS {
                            let deadline = (i % 3 == 0).then(|| Deadline::after(0, 1));
                            match plane.try_admit(1, deadline) {
                                Ok(guard) => {
                                    mine[0] += 1;
                                    drop(guard);
                                }
                                Err(reason) => mine[1 + reason.index()] += 1,
                            }
                        }
                        mine
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let sum = |k: usize| counts.iter().map(|c| c[k]).sum::<u64>();
        let snap = plane.snapshot();
        assert_eq!(snap.inflight, 0, "every guard released");
        assert_eq!(snap.offered, THREADS as u64 * CALLS);
        assert_eq!(sum(0), snap.offered - snap.shed_total());
        assert_eq!(sum(0), snap.admitted);
        for reason in ShedReason::ALL {
            assert_eq!(sum(1 + reason.index()), snap.shed_for(reason), "{reason:?}");
        }
        let late_per_thread = CALLS.div_ceil(3);
        assert_eq!(
            snap.shed_for(ShedReason::DeadlineExpired),
            THREADS as u64 * late_per_thread,
            "the deadline check never depends on the interleaving"
        );
    }
}
