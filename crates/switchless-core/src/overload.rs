//! Pure overload-control policy: admission, deadlines and the
//! fallback-storm circuit breaker.
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
//! Three cooperating mechanisms, all in the cycle domain of the machine
//! model and all integer-exact:
//!
//! * **Admission** ([`OverloadController::admit`]) — a queue-depth gate
//!   plus a token bucket, combined with the deadline check into one
//!   verdict per call. The checks are ordered: `DeadlineExpired >
//!   QueueFull > RateLimited` — a call dead on arrival is never charged
//!   to the rate limiter, so shed accounting stays attributable.
//! * **Deadline budgets** ([`Deadline`]) — every admitted call may carry
//!   an expiry cycle; over-budget work is shed instead of queued.
//! * **Circuit breaker** ([`CircuitBreaker`]) — Closed → Open →
//!   HalfOpen with probation probes, guarding the *fallback* path: a
//!   fallback storm trips it and subsequent over-capacity calls are
//!   shed immediately instead of piling onto the regular-ocall path.
//!
//! Everything here is deterministic and proptested
//! (`tests/overload_props.rs`); the only inputs are cycle timestamps
//! and load observations supplied by the caller.

use crate::config::PAPER_QUANTUM_MS;
use crate::cpu::CpuSpec;
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
    /// The fallback-storm circuit breaker was open.
    BreakerOpen,
}

impl ShedReason {
    /// All reasons, in lattice order (breaker last: it guards the
    /// fallback path, not front-door admission).
    pub const ALL: [ShedReason; 4] = [
        ShedReason::DeadlineExpired,
        ShedReason::QueueFull,
        ShedReason::RateLimited,
        ShedReason::BreakerOpen,
    ];

    /// Stable lowercase name for exports and counters.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ShedReason::DeadlineExpired => "deadline_expired",
            ShedReason::QueueFull => "queue_full",
            ShedReason::RateLimited => "rate_limited",
            ShedReason::BreakerOpen => "breaker_open",
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

/// Circuit-breaker tuning (all durations in cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BreakerParams {
    /// Failures within one window that trip the breaker open.
    pub failure_threshold: u32,
    /// Length of the rolling failure-count window.
    pub window_cycles: u64,
    /// How long the breaker stays open before probing.
    pub open_cycles: u64,
    /// Consecutive probe successes in HalfOpen required to close.
    pub probe_successes: u32,
}

impl BreakerParams {
    /// Machine-derived defaults: the window is one scheduling quantum,
    /// the open hold-off two quanta, and the threshold the number of
    /// fallbacks whose wasted transitions would outweigh a worker for a
    /// whole quantum (`Q / T_es`) — below that, the argmin scheduler is
    /// the right tool; above it, the storm needs breaking.
    #[must_use]
    pub fn for_cpu(cpu: &CpuSpec) -> Self {
        let quantum = cpu.quantum_cycles(PAPER_QUANTUM_MS);
        BreakerParams {
            failure_threshold: u32::try_from(quantum / cpu.t_es_cycles.max(1))
                .unwrap_or(u32::MAX)
                .max(1),
            window_cycles: quantum,
            open_cycles: quantum.saturating_mul(2),
            probe_successes: 3,
        }
    }
}

impl Default for BreakerParams {
    fn default() -> Self {
        BreakerParams::for_cpu(&CpuSpec::paper_machine())
    }
}

/// Observable breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BreakerState {
    /// Normal operation; failures are counted per window.
    Closed,
    /// Tripped: fallback work is refused until the hold-off elapses.
    Open,
    /// Probation: calls run as probes; enough successes close the
    /// breaker, any failure re-opens it.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase name for exports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// A breaker state-machine edge, for telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BreakerTransition {
    /// State before the edge.
    pub from: BreakerState,
    /// State after the edge.
    pub to: BreakerState,
}

/// Fallback-storm circuit breaker: Closed → Open → HalfOpen → Closed.
///
/// Failures (fallbacks, pool exhaustions, worker losses — whatever the
/// owner counts) are recorded via [`on_failure`]; successes via
/// [`on_success`]. [`allow`] asks whether fallback-path work may
/// proceed right now. Methods return the [`BreakerTransition`] they
/// caused, if any, so the owner can trace every edge.
///
/// [`on_failure`]: CircuitBreaker::on_failure
/// [`on_success`]: CircuitBreaker::on_success
/// [`allow`]: CircuitBreaker::allow
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CircuitBreaker {
    params: BreakerParams,
    state: BreakerState,
    /// Failures observed in the current window (Closed only).
    window_failures: u32,
    /// Start of the current failure window (Closed only).
    window_start_cycles: u64,
    /// When the breaker last opened (Open only).
    opened_at_cycles: u64,
    /// Consecutive probe successes (HalfOpen only).
    probe_streak: u32,
    /// Total Closed/HalfOpen→Open trips, for counters.
    trips: u64,
}

impl CircuitBreaker {
    /// Closed breaker with the given tuning.
    #[must_use]
    pub fn new(params: BreakerParams) -> Self {
        CircuitBreaker {
            params: BreakerParams {
                failure_threshold: params.failure_threshold.max(1),
                window_cycles: params.window_cycles.max(1),
                open_cycles: params.open_cycles,
                probe_successes: params.probe_successes.max(1),
            },
            state: BreakerState::Closed,
            window_failures: 0,
            window_start_cycles: 0,
            opened_at_cycles: 0,
            probe_streak: 0,
            trips: 0,
        }
    }

    /// Current state (does not advance time).
    #[must_use]
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Times the breaker has tripped open.
    #[must_use]
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// May fallback-path work proceed at `now_cycles`?
    ///
    /// Open flips to HalfOpen once the hold-off elapses (the returned
    /// transition records it); HalfOpen admits work as probation
    /// probes; Closed always admits.
    pub fn allow(&mut self, now_cycles: u64) -> (bool, Option<BreakerTransition>) {
        match self.state {
            BreakerState::Closed => (true, None),
            BreakerState::HalfOpen => (true, None),
            BreakerState::Open => {
                if now_cycles.saturating_sub(self.opened_at_cycles) >= self.params.open_cycles {
                    let t = self.transition(BreakerState::HalfOpen);
                    self.probe_streak = 0;
                    (true, t)
                } else {
                    (false, None)
                }
            }
        }
    }

    /// Record a fallback-path success at `now_cycles`.
    pub fn on_success(&mut self, _now_cycles: u64) -> Option<BreakerTransition> {
        match self.state {
            BreakerState::Closed | BreakerState::Open => None,
            BreakerState::HalfOpen => {
                self.probe_streak += 1;
                if self.probe_streak >= self.params.probe_successes {
                    self.window_failures = 0;
                    self.transition(BreakerState::Closed)
                } else {
                    None
                }
            }
        }
    }

    /// Record a fallback-path failure at `now_cycles`.
    pub fn on_failure(&mut self, now_cycles: u64) -> Option<BreakerTransition> {
        match self.state {
            BreakerState::Open => None,
            BreakerState::HalfOpen => {
                self.opened_at_cycles = now_cycles;
                self.trips += 1;
                self.transition(BreakerState::Open)
            }
            BreakerState::Closed => {
                if now_cycles.saturating_sub(self.window_start_cycles) >= self.params.window_cycles
                {
                    self.window_start_cycles = now_cycles;
                    self.window_failures = 0;
                }
                self.window_failures += 1;
                if self.window_failures >= self.params.failure_threshold {
                    self.opened_at_cycles = now_cycles;
                    self.trips += 1;
                    self.transition(BreakerState::Open)
                } else {
                    None
                }
            }
        }
    }

    fn transition(&mut self, to: BreakerState) -> Option<BreakerTransition> {
        let from = self.state;
        self.state = to;
        Some(BreakerTransition { from, to })
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
    /// Fallback-storm breaker tuning.
    pub breaker: BreakerParams,
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
            breaker: BreakerParams::for_cpu(cpu),
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
/// bucket for admission, plus the fallback breaker.
///
/// Pure: the owner supplies every timestamp and load observation and
/// executes the verdicts; the controller holds no locks, spawns no
/// threads and reads no clocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OverloadController {
    params: OverloadParams,
    bucket: TokenBucket,
    breaker: CircuitBreaker,
}

impl OverloadController {
    /// Controller with everything at rest (bucket full, breaker
    /// closed).
    #[must_use]
    pub fn new(params: OverloadParams) -> Self {
        OverloadController {
            params,
            bucket: TokenBucket::new(params.bucket_capacity, params.refill_period_cycles),
            breaker: CircuitBreaker::new(params.breaker),
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

    /// The fallback-storm breaker (owners drive it directly around
    /// their fallback path).
    pub fn breaker(&mut self) -> &mut CircuitBreaker {
        &mut self.breaker
    }

    /// Read-only breaker state for metrics.
    #[must_use]
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }
}

/// Thread-safe overload plane: one [`OverloadController`] behind a
/// mutex plus lock-free shed/admit accounting.
///
/// This is the form the runtimes embed (mirroring how they wrap the
/// pure [`crate::supervise::Supervisor`]): callers funnel admission
/// through [`admit`](OverloadPlane::admit), drive the breaker at their
/// would-fallback points, and read [`snapshot`](OverloadPlane::snapshot)
/// for metrics. The policy itself stays pure and proptestable; this
/// wrapper only adds the mutex and the counters.
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
    admitted: std::sync::atomic::AtomicU64,
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

/// Consistent point-in-time read of the plane's counters and machine
/// states (counters may individually race while traffic is live; after
/// quiescing they are exact).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverloadSnapshot {
    /// Calls that entered admission.
    pub offered: u64,
    /// Calls that passed admission.
    pub admitted: u64,
    /// Calls currently holding an in-flight token.
    pub inflight: u64,
    /// Per-reason shed counts, [`ShedReason::ALL`] order.
    pub shed: [u64; ShedReason::ALL.len()],
    /// Breaker state at snapshot time.
    pub breaker_state: BreakerState,
    /// Closed→Open trips so far.
    pub breaker_trips: u64,
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

    /// Exact conservation check against a completed-call count from the
    /// owning runtime's [`crate::CallStats`]: valid once quiesced.
    #[must_use]
    pub fn conserves(&self, completed: u64) -> bool {
        self.conserves_with(completed, 0)
    }

    /// Conservation check extended with the recovery plane's
    /// refused-non-idempotent count (see [`crate::recovery`]): with
    /// enclave crashes in play, every offered call is exactly one of
    /// completed, shed, or refused-with-typed-error —
    /// `completed + shed + refused == offered`.
    #[must_use]
    pub fn conserves_with(&self, completed: u64, refused_non_idempotent: u64) -> bool {
        completed + self.shed_total() + refused_non_idempotent == self.offered
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
            admitted: std::sync::atomic::AtomicU64::new(0),
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
                self.admitted.fetch_add(1, Ordering::Relaxed);
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

    /// Ask the breaker whether the fallback path may be used right now
    /// (an Open breaker whose hold-off elapsed moves to HalfOpen here).
    pub fn breaker_allow(&self, now_cycles: u64) -> (bool, Option<BreakerTransition>) {
        self.lock().breaker().allow(now_cycles)
    }

    /// Record one fallback occurrence (the storm signal the breaker
    /// integrates).
    pub fn on_fallback(&self, now_cycles: u64) -> Option<BreakerTransition> {
        self.lock().breaker().on_failure(now_cycles)
    }

    /// Record one switchless completion (closes a half-open breaker
    /// after its probation probes).
    pub fn on_success(&self, now_cycles: u64) -> Option<BreakerTransition> {
        self.lock().breaker().on_success(now_cycles)
    }

    /// Count one shed decided outside admission (the breaker-open shed
    /// at the would-fallback point).
    pub fn record_shed(&self, reason: ShedReason) {
        self.shed[reason.index()].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Counter + state snapshot for metrics and reports.
    #[must_use]
    pub fn snapshot(&self) -> OverloadSnapshot {
        use std::sync::atomic::Ordering;
        let c = self.lock();
        let (breaker_state, breaker_trips) = (c.breaker_state(), c.breaker.trips());
        drop(c);
        OverloadSnapshot {
            offered: self.offered.load(Ordering::Acquire),
            admitted: self.admitted.load(Ordering::Acquire),
            inflight: self.inflight.load(Ordering::Acquire),
            shed: std::array::from_fn(|i| self.shed[i].load(Ordering::Acquire)),
            breaker_state,
            breaker_trips,
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
    fn breaker_walks_closed_open_halfopen_closed() {
        let p = BreakerParams {
            failure_threshold: 3,
            window_cycles: 1_000,
            open_cycles: 500,
            probe_successes: 2,
        };
        let mut b = CircuitBreaker::new(p);
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.on_failure(10).is_none());
        assert!(b.on_failure(20).is_none());
        let t = b.on_failure(30).expect("third failure trips");
        assert_eq!((t.from, t.to), (BreakerState::Closed, BreakerState::Open));
        assert_eq!(b.trips(), 1);
        // Open: refused until the hold-off elapses.
        assert!(!b.allow(31).0);
        assert!(!b.allow(529).0);
        let (ok, t) = b.allow(530);
        assert!(ok);
        assert_eq!(t.unwrap().to, BreakerState::HalfOpen);
        // Probation: two successes close it.
        assert!(b.on_success(540).is_none());
        let t = b.on_success(550).expect("streak closes the breaker");
        assert_eq!(
            (t.from, t.to),
            (BreakerState::HalfOpen, BreakerState::Closed)
        );
    }

    #[test]
    fn breaker_probe_failure_reopens() {
        let p = BreakerParams {
            failure_threshold: 1,
            window_cycles: 1_000,
            open_cycles: 100,
            probe_successes: 3,
        };
        let mut b = CircuitBreaker::new(p);
        b.on_failure(0);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.allow(100).0);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.on_success(110);
        let t = b.on_failure(120).expect("probe failure reopens");
        assert_eq!((t.from, t.to), (BreakerState::HalfOpen, BreakerState::Open));
        assert_eq!(b.trips(), 2);
        assert!(!b.allow(121).0, "reopened hold-off restarts");
    }

    #[test]
    fn breaker_window_expiry_forgets_failures() {
        let p = BreakerParams {
            failure_threshold: 2,
            window_cycles: 100,
            open_cycles: 100,
            probe_successes: 1,
        };
        let mut b = CircuitBreaker::new(p);
        assert!(b.on_failure(0).is_none());
        // The second failure lands in a fresh window: no trip.
        assert!(b.on_failure(150).is_none());
        assert_eq!(b.state(), BreakerState::Closed);
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
        assert!(p.breaker.failure_threshold >= 1);
        let names: Vec<_> = ShedReason::ALL.iter().map(|r| r.name()).collect();
        assert_eq!(
            names,
            [
                "deadline_expired",
                "queue_full",
                "rate_limited",
                "breaker_open"
            ]
        );
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
        assert_eq!(snap.admitted, 2);
        assert_eq!(snap.shed_for(ShedReason::QueueFull), 1);
        // Two calls completed, one shed: exact conservation.
        assert!(snap.conserves(2));
        assert!(!snap.conserves(3));
        // Extended form: one completion traded for a typed refusal
        // still conserves; double counting does not.
        assert!(snap.conserves_with(1, 1));
        assert!(!snap.conserves_with(2, 1));
    }

    #[test]
    fn plane_breaker_round_trip_is_traced() {
        let mut p = params();
        p.breaker = BreakerParams {
            failure_threshold: 2,
            window_cycles: 1_000,
            open_cycles: 100,
            probe_successes: 1,
        };
        let plane = OverloadPlane::new(p);
        assert!(plane.on_fallback(0).is_none());
        let edge = plane.on_fallback(1).expect("second failure trips");
        assert_eq!(
            (edge.from, edge.to),
            (BreakerState::Closed, BreakerState::Open)
        );
        let (ok, edge) = plane.breaker_allow(2);
        assert!(!ok && edge.is_none(), "inside the hold-off");
        let (ok, edge) = plane.breaker_allow(200);
        assert!(ok, "hold-off elapsed admits a probe");
        assert_eq!(edge.unwrap().to, BreakerState::HalfOpen);
        let edge = plane.on_success(201).expect("probe closes");
        assert_eq!(edge.to, BreakerState::Closed);
        assert_eq!(plane.snapshot().breaker_trips, 1);
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
