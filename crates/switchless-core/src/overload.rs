//! Pure overload-control policy: admission and deadlines.
//!
//! Under sustained overload an unprotected switchless runtime fails in
//! a characteristic sequence: the worker pool saturates, every extra
//! call takes the fallback path, the fallback storm pins the regular
//! ocall machinery, queues grow without bound and p99 latency diverges
//! while *goodput* (work finished inside its deadline) collapses. This
//! module is the side-effect-free policy that interrupts that sequence
//! (DESIGN.md §13); the runtimes and the DES only *execute* its
//! verdicts, exactly as they execute the scheduler argmin from
//! [`crate::policy`] and the healing decisions from
//! [`crate::supervise`].
//!
//! Two cooperating mechanisms, both in the cycle domain of the machine
//! model and both integer-exact, acting at one point, admission:
//!
//! * **Admission** ([`OverloadController::admit`]) — a queue-depth gate
//!   plus a token bucket, combined with the deadline check into one
//!   verdict per call. The checks are ordered: `DeadlineExpired >
//!   QueueFull > RateLimited` — a call dead on arrival is never charged
//!   to the rate limiter, so shed accounting stays attributable.
//! * **Deadline budgets** ([`Deadline`]) — every admitted call may carry
//!   an expiry cycle; over-budget work is shed instead of queued.
//!
//! An admitted call is never shed later: a caller that finds no idle
//! worker falls back to a regular ocall at once, and that call always
//! completes (paper §IV-B, Take-away 7).
//!
//! Everything here is deterministic and proptested
//! (`tests/overload_props.rs`); the only inputs are cycle timestamps
//! and load observations supplied by the caller.

use crate::config::PAPER_QUANTUM_MS;
use crate::cpu::CpuSpec;
use crate::stats::Ledger;
use serde::{Deserialize, Serialize};

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
    /// The token bucket was empty (sustained arrival rate above the
    /// configured ceiling).
    RateLimited,
}

impl ShedReason {
    /// All reasons, in lattice order.
    pub const ALL: [ShedReason; 3] = [
        ShedReason::DeadlineExpired,
        ShedReason::QueueFull,
        ShedReason::RateLimited,
    ];

    /// Stable lowercase name for exports and counters.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ShedReason::DeadlineExpired => "deadline_expired",
            ShedReason::QueueFull => "queue_full",
            ShedReason::RateLimited => "rate_limited",
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

/// Integer-exact token bucket: one token per admitted call, refilled at
/// one token every `refill_period_cycles`.
///
/// Refill is computed as whole tokens from elapsed cycles with the
/// remainder carried in the clock (`last_refill_cycles` only advances
/// by whole periods), so no precision is ever lost to rounding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TokenBucket {
    capacity: u64,
    tokens: u64,
    refill_period_cycles: u64,
    last_refill_cycles: u64,
}

impl TokenBucket {
    /// Bucket starting full at cycle 0.
    ///
    /// `refill_period_cycles` is clamped to ≥ 1; a `capacity` of 0
    /// sheds everything (useful in tests).
    #[must_use]
    pub fn new(capacity: u64, refill_period_cycles: u64) -> Self {
        TokenBucket {
            capacity,
            tokens: capacity,
            refill_period_cycles: refill_period_cycles.max(1),
            last_refill_cycles: 0,
        }
    }

    /// Credit whole refill periods elapsed up to `now_cycles`.
    pub fn refill(&mut self, now_cycles: u64) {
        let elapsed = now_cycles.saturating_sub(self.last_refill_cycles);
        let new_tokens = elapsed / self.refill_period_cycles;
        if new_tokens > 0 {
            self.tokens = self.tokens.saturating_add(new_tokens).min(self.capacity);
            self.last_refill_cycles = self
                .last_refill_cycles
                .saturating_add(new_tokens.saturating_mul(self.refill_period_cycles));
        }
    }

    /// Refill to `now_cycles`, then take one token if available.
    pub fn try_take(&mut self, now_cycles: u64) -> bool {
        self.refill(now_cycles);
        if self.tokens > 0 {
            self.tokens -= 1;
            true
        } else {
            false
        }
    }

    /// Tokens currently held (without refilling).
    #[must_use]
    pub fn tokens(&self) -> u64 {
        self.tokens
    }

    /// Configured burst capacity.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }
}

/// Tuning for the whole overload plane (all durations in cycles).
///
/// `Copy` and machine-derived like the rest of [`crate::config`]: the
/// defaults come from the CPU spec, not from workload knowledge, so
/// enabling overload control stays configless in the paper's sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OverloadParams {
    /// In-flight call ceiling of the queue-depth gate.
    pub max_inflight: u64,
    /// Token-bucket burst capacity.
    pub bucket_capacity: u64,
    /// Cycles per token refilled (the sustained admission rate is one
    /// call per this many cycles).
    pub refill_period_cycles: u64,
}

impl OverloadParams {
    /// Machine-derived defaults for `cpu`.
    ///
    /// The queue gate's ceiling is four in-flight calls per logical CPU
    /// (8 on two, 32 on the paper machine's eight), and it is the only
    /// depth gate: a rising ramp of calls is first shed `QueueFull` there.
    ///
    /// The bucket sustains what the machine can *issue* switchlessly,
    /// not what the transition path can service: a call cannot complete in
    /// under two `pause`s and at most `logical_cpus` callers run, so
    /// one token refills every `2·pause / logical_cpus` cycles (35 on
    /// the paper machine, ≈ 109 M calls/s; 140 on two of its CPUs,
    /// ≈ 27 M calls/s) and the burst is one quantum of that rate. No
    /// healthy closed-loop caller is rate-limited.
    #[must_use]
    pub fn for_cpu(cpu: &CpuSpec) -> Self {
        let refill = (cpu.pause_cycles.saturating_mul(2) / cpu.logical_cpus.max(1) as u64).max(1);
        OverloadParams {
            max_inflight: (cpu.logical_cpus as u64).saturating_mul(4).max(4),
            bucket_capacity: (cpu.quantum_cycles(PAPER_QUANTUM_MS) / refill).max(1),
            refill_period_cycles: refill,
        }
    }

    /// Builder-style override of the in-flight ceiling.
    #[must_use]
    pub fn with_max_inflight(mut self, n: u64) -> Self {
        self.max_inflight = n;
        self
    }

    /// Builder-style override of the token bucket (capacity, cycles
    /// per token).
    #[must_use]
    pub fn with_bucket(mut self, capacity: u64, refill_period_cycles: u64) -> Self {
        self.bucket_capacity = capacity;
        self.refill_period_cycles = refill_period_cycles.max(1);
        self
    }
}

impl Default for OverloadParams {
    fn default() -> Self {
        OverloadParams::for_cpu(&CpuSpec::paper_machine())
    }
}

/// The combined overload-control state machine: queue gate + token
/// bucket + deadline check, one verdict per call.
///
/// Pure: the owner supplies every timestamp and load observation and
/// executes the verdicts; the controller holds no locks, spawns no
/// threads and reads no clocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OverloadController {
    params: OverloadParams,
    bucket: TokenBucket,
}

impl OverloadController {
    /// Controller at rest (bucket full).
    #[must_use]
    pub fn new(params: OverloadParams) -> Self {
        OverloadController {
            params,
            bucket: TokenBucket::new(params.bucket_capacity, params.refill_period_cycles),
        }
    }

    /// The parameters this controller was built with.
    #[must_use]
    pub fn params(&self) -> &OverloadParams {
        &self.params
    }

    /// Decide admission for one call.
    ///
    /// `inflight` is the caller-observed in-flight call count *before*
    /// this call; `deadline` is the call's own budget if it carries
    /// one. Checks apply in lattice order (see the module docs):
    /// deadline, queue depth, rate. Only an admitted call consumes a
    /// token.
    ///
    /// # Errors
    ///
    /// The [`ShedReason`] of the first check the call fails.
    pub fn admit(
        &mut self,
        now_cycles: u64,
        inflight: u64,
        deadline: Option<Deadline>,
    ) -> Result<(), ShedReason> {
        if deadline.is_some_and(|d| d.expired(now_cycles)) {
            Err(ShedReason::DeadlineExpired)
        } else if inflight >= self.params.max_inflight {
            Err(ShedReason::QueueFull)
        } else if !self.bucket.try_take(now_cycles) {
            Err(ShedReason::RateLimited)
        } else {
            Ok(())
        }
    }
}

/// Thread-safe overload plane: one [`OverloadController`] behind a
/// mutex plus lock-free shed/admit accounting.
///
/// This is the form the runtimes embed (mirroring how they wrap the
/// pure [`crate::supervise::Supervisor`]): callers funnel admission
/// through [`try_admit`](OverloadPlane::try_admit) and read
/// [`snapshot`](OverloadPlane::snapshot) for metrics. The policy itself
/// stays pure and proptestable; this wrapper only adds the mutex and
/// the counters.
///
/// Accounting contract (exact once the runtime has quiesced): every
/// call offered to the plane either completes on some
/// [`crate::CallPath`] or is shed with exactly one [`ShedReason`], so
/// `completed + shed_total == offered`.
#[derive(Debug)]
pub struct OverloadPlane {
    params: OverloadParams,
    controller: std::sync::Mutex<OverloadController>,
    inflight: std::sync::atomic::AtomicU64,
    offered: std::sync::atomic::AtomicU64,
    shed: [std::sync::atomic::AtomicU64; ShedReason::ALL.len()],
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
        self.plane
            .inflight
            .fetch_sub(1, std::sync::atomic::Ordering::AcqRel);
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
    /// Plane with the controller at rest and all counters zero.
    #[must_use]
    pub fn new(params: OverloadParams) -> Self {
        OverloadPlane {
            params,
            controller: std::sync::Mutex::new(OverloadController::new(params)),
            inflight: std::sync::atomic::AtomicU64::new(0),
            offered: std::sync::atomic::AtomicU64::new(0),
            shed: Default::default(),
        }
    }

    /// The parameters the plane was built with.
    #[must_use]
    pub fn params(&self) -> &OverloadParams {
        &self.params
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, OverloadController> {
        self.controller.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Admit or shed one call. Only admitted calls hold an in-flight
    /// token; sheds are counted under their reason.
    ///
    /// # Errors
    ///
    /// The [`ShedReason`] the controller shed the call for.
    pub fn try_admit(
        &self,
        now_cycles: u64,
        deadline: Option<Deadline>,
    ) -> Result<InflightGuard<'_>, ShedReason> {
        use std::sync::atomic::Ordering;
        self.offered.fetch_add(1, Ordering::Relaxed);
        let depth = self.inflight.load(Ordering::Acquire);
        match self.lock().admit(now_cycles, depth, deadline) {
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
        use std::sync::atomic::Ordering;
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

    fn params() -> OverloadParams {
        OverloadParams::default()
            .with_max_inflight(8)
            .with_bucket(4, 100)
    }

    #[test]
    fn bucket_refills_whole_tokens_and_caps_at_capacity() {
        let mut b = TokenBucket::new(2, 100);
        assert!(b.try_take(0));
        assert!(b.try_take(0));
        assert!(!b.try_take(0), "bucket empty");
        assert!(!b.try_take(99), "sub-period elapse earns nothing");
        assert!(b.try_take(100), "one period earns one token");
        b.refill(10_000);
        assert_eq!(b.tokens(), b.capacity(), "refill never exceeds capacity");
    }

    #[test]
    fn bucket_carries_refill_remainder_exactly() {
        let mut b = TokenBucket::new(10, 100);
        while b.try_take(0) {}
        // 150 cycles = 1 token + 50 cycles of remainder...
        assert!(b.try_take(150));
        assert!(!b.try_take(150));
        // ...and the remainder still counts toward the next token.
        assert!(b.try_take(200));
    }

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
        let mut c = OverloadController::new(params().with_bucket(0, 1_000));
        let now = 0;
        // Expired deadline wins over everything.
        let a = c.admit(now, 100, Some(Deadline::after(0, 0)));
        assert_eq!(a, Err(ShedReason::DeadlineExpired));
        // Over the gate: queue-full, even with an empty bucket.
        assert_eq!(c.admit(now, 100, None), Err(ShedReason::QueueFull));
        // Under the gate with an empty bucket: rate-limited.
        assert_eq!(c.admit(now, 0, None), Err(ShedReason::RateLimited));
    }

    #[test]
    fn admitted_calls_consume_tokens_shed_calls_do_not() {
        let mut c = OverloadController::new(params());
        // Burst capacity 4: four admits, then rate-limited.
        for _ in 0..4 {
            assert_eq!(c.admit(0, 0, None), Ok(()));
        }
        assert_eq!(c.admit(0, 0, None), Err(ShedReason::RateLimited));
        // Deadline sheds never touched the bucket: refill one token and
        // shed on deadline repeatedly — the token must survive.
        let mut c = OverloadController::new(params().with_bucket(1, 100));
        for _ in 0..10 {
            let a = c.admit(500, 0, Some(Deadline::after(0, 1)));
            assert_eq!(a, Err(ShedReason::DeadlineExpired));
        }
        assert_eq!(c.admit(500, 0, None), Ok(()));
    }

    #[test]
    fn machine_derived_defaults_are_sane() {
        let p = OverloadParams::for_cpu(&CpuSpec::paper_machine());
        assert!(p.max_inflight >= 4);
        // Two pauses per call, eight callers: one token per 35 cycles,
        // one 38 M-cycle quantum of them as burst.
        assert_eq!(p.refill_period_cycles, 35);
        assert_eq!(p.bucket_capacity, 38_000_000 / 35);
        let two = OverloadParams::for_cpu(&CpuSpec::paper_machine().with_logical_cpus(2));
        assert_eq!(
            (two.refill_period_cycles, two.bucket_capacity),
            (140, 271_428)
        );
        let names: Vec<_> = ShedReason::ALL.iter().map(|r| r.name()).collect();
        assert_eq!(names, ["deadline_expired", "queue_full", "rate_limited"]);
    }

    #[test]
    fn plane_guard_releases_inflight_and_counters_conserve() {
        let plane = OverloadPlane::new(params().with_max_inflight(2).with_bucket(100, 1));
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
            let mut ctl = OverloadController::new(params);
            let shed = (0..)
                .flat_map(|depth| [depth; 3])
                .find_map(|depth| ctl.admit(0, depth, None).err().map(|r| (depth, r)));
            (params.max_inflight, shed.expect("a rising depth sheds"))
        };
        assert_eq!(first_shed(2), (8, (8, ShedReason::QueueFull)));
        assert_eq!(first_shed(4), (16, (16, ShedReason::QueueFull)));
        // The paper machine.
        assert_eq!(first_shed(8), (32, (32, ShedReason::QueueFull)));
    }
}
