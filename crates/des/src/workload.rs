//! Caller behaviours: what calls to make and when.
//!
//! A [`CallerActor`] owns a [`WorkloadSpec`] (the *what*) and a
//! [`Dispatcher`] implementation (the *how*),
//! driving both:
//! optional in-enclave pre-compute, then the ocall dialogue, repeated
//! until the workload is exhausted.

use crate::arrival::{ArrivalGen, ArrivalProcess, ServiceDist, ServiceSampler};
use crate::kernel::{Actor, StepCx, Syscall, SyscallResult};
use crate::metrics::SimCounters;
use crate::ocall::{CallDesc, Dispatcher, Step};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// A named call class (workload vocabulary for figures and static
/// switchless sets).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CallClass {
    /// Class index used in [`CallDesc::class`].
    pub index: usize,
    /// Human-readable name (`"f"`, `"fseeko"`, `"read"`, …).
    pub name: String,
}

/// What a caller thread does.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// Closed loop: cycle through `pattern`, `total_ops` calls in total,
    /// back to back (each [`CallDesc`] carries its own pre-compute).
    ClosedLoop {
        /// Repeating call pattern.
        pattern: Vec<CallDesc>,
        /// Total calls to issue.
        total_ops: u64,
    },
    /// Rate-phased open loop (the lmbench dynamic workload, §V-C): time
    /// is divided into periods of `period_cycles`; during each period the
    /// caller issues the phase-defined number of calls back to back, then
    /// sleeps out the remainder of the period.
    Phased(PhasedLoad),
    /// Seeded stochastic open loop ([`crate::arrival`]): calls arrive on
    /// a schedule that does not wait for completions, queue in a
    /// client-side backlog, and are shed once their deadline budget
    /// expires — the offered-load regime of the overload experiments.
    Open(OpenLoad),
}

/// Seeded open-loop traffic: an arrival process, a service-time
/// distribution and a deadline budget.
///
/// Conservation contract: every generated arrival is counted
/// [`offered`](SimCounters::offered) and ends exactly one of completed
/// (via [`SimCounters::record_call`]), [`ops_shed`](SimCounters::ops_shed)
/// (budget expired while queued) or
/// [`ops_abandoned`](SimCounters::ops_abandoned) (backlog left when the
/// traffic window closed) — checked by [`SimCounters::conserves`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpenLoad {
    /// Call template (class, payload, pre-compute). `host_cycles` is
    /// overridden per call by `service` unless the draw is 0.
    pub call: CallDesc,
    /// When calls arrive.
    pub arrivals: ArrivalProcess,
    /// How long each call's host function runs
    /// ([`ServiceDist::Fixed`]`{cycles: 0}` keeps the template's).
    pub service: ServiceDist,
    /// PRNG seed; the same seed reproduces the whole trace
    /// byte-identically. Each caller index perturbs it, so identical
    /// specs on different callers draw independent streams.
    pub seed: u64,
    /// Arrivals stop after this many cycles; backlog still pending when
    /// the window closes is abandoned.
    pub duration_cycles: u64,
    /// Per-call budget from arrival to dispatch; a queued call older
    /// than this is shed un-issued. 0 = never shed.
    pub deadline_budget_cycles: u64,
}

impl OpenLoad {
    /// Open-loop traffic of `arrivals` for `duration_cycles`, issuing
    /// `call` with its template service time, no deadline budget.
    #[must_use]
    pub fn new(call: CallDesc, arrivals: ArrivalProcess, seed: u64, duration_cycles: u64) -> Self {
        OpenLoad {
            call,
            arrivals,
            service: ServiceDist::Fixed { cycles: 0 },
            seed,
            duration_cycles,
            deadline_budget_cycles: 0,
        }
    }

    /// Builder-style service-time distribution.
    #[must_use]
    pub fn with_service(mut self, service: ServiceDist) -> Self {
        self.service = service;
        self
    }

    /// Builder-style deadline budget (cycles from arrival to dispatch).
    #[must_use]
    pub fn with_deadline_budget(mut self, cycles: u64) -> Self {
        self.deadline_budget_cycles = cycles;
        self
    }
}

/// Phase-driven dynamic load.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhasedLoad {
    /// The single call issued repeatedly.
    pub call: CallDesc,
    /// Period `τ` in cycles (paper: 0.5 s).
    pub period_cycles: u64,
    /// Ops in the very first period.
    pub initial_ops: u64,
    /// The three phases (paper: increase, constant, decrease — 20 s
    /// each).
    pub phases: Vec<Phase>,
}

/// One phase of a [`PhasedLoad`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Phase {
    /// Phase duration in cycles.
    pub duration_cycles: u64,
    /// How the per-period op count evolves within the phase.
    pub mode: PhaseMode,
}

/// Evolution of the per-period op count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PhaseMode {
    /// Double the op count every period.
    Doubling,
    /// Keep the op count constant.
    Constant,
    /// Halve the op count every period (minimum 1).
    Halving,
}

impl PhasedLoad {
    /// The paper's dynamic load shape: three phases of `phase_secs`
    /// each — doubling, constant, halving — with load period τ =
    /// `tau_ms` (paper: 3 × 20 s, τ = 0.5 s).
    #[must_use]
    pub fn dynamic(
        call: CallDesc,
        freq_hz: u64,
        phase_secs: u64,
        tau_ms: u64,
        initial_ops: u64,
    ) -> Self {
        let phase = |mode| Phase {
            duration_cycles: freq_hz * phase_secs,
            mode,
        };
        PhasedLoad {
            call,
            period_cycles: freq_hz / 1_000 * tau_ms,
            initial_ops,
            phases: vec![
                phase(PhaseMode::Doubling),
                phase(PhaseMode::Constant),
                phase(PhaseMode::Halving),
            ],
        }
    }

    /// Target ops for the period starting at `t` (cycles since workload
    /// start), or `None` when all phases are over.
    #[must_use]
    pub fn ops_for_period(&self, t: u64) -> Option<u64> {
        let mut phase_start = 0u64;
        let mut ops_at_phase_start = self.initial_ops.max(1);
        for phase in &self.phases {
            let periods_in_phase = phase.duration_cycles / self.period_cycles;
            if t < phase_start + phase.duration_cycles {
                let k = (t - phase_start) / self.period_cycles;
                return Some(match phase.mode {
                    PhaseMode::Doubling => ops_at_phase_start.saturating_mul(1 << k.min(40)),
                    PhaseMode::Constant => ops_at_phase_start,
                    PhaseMode::Halving => (ops_at_phase_start >> k.min(40)).max(1),
                });
            }
            // Advance the baseline to the end of this phase.
            ops_at_phase_start = match phase.mode {
                PhaseMode::Doubling => ops_at_phase_start
                    .saturating_mul(1 << periods_in_phase.saturating_sub(1).min(40)),
                PhaseMode::Constant => ops_at_phase_start,
                PhaseMode::Halving => {
                    (ops_at_phase_start >> periods_in_phase.saturating_sub(1).min(40)).max(1)
                }
            };
            phase_start += phase.duration_cycles;
        }
        None
    }

    /// Total workload duration in cycles.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.phases.iter().map(|p| p.duration_cycles).sum()
    }
}

/// A caller thread: issues its workload through its dispatcher.
pub struct CallerActor {
    id: usize,
    dispatcher: Box<dyn Dispatcher>,
    counters: Rc<RefCell<SimCounters>>,
    spec: WorkloadSpec,
    state: CallerState,
    /// The call in pre-compute or in flight.
    call: CallDesc,
    ops_issued: u64,
    /// Closed-loop mode: index of the next call in the pattern
    /// (`ops_issued` modulo its length, kept without a division).
    pattern_next: usize,
    /// Phased mode: absolute start of the current period.
    period_start: u64,
    /// Phased mode: ops remaining in the current period.
    period_remaining: u64,
    /// Phased/open mode: workload start time.
    started_at: Option<u64>,
    /// Open mode: generator state (`None` for other specs).
    open: Option<OpenRun>,
}

/// Mutable state of an open-loop caller.
struct OpenRun {
    gen: ArrivalGen,
    service: ServiceSampler,
    /// Next arrival, relative to workload start. Monotone; arrivals at
    /// or past `duration_cycles` never materialize.
    next_arrival: u64,
    /// Arrived-but-not-issued calls (relative arrival times, FIFO).
    backlog: VecDeque<u64>,
    /// Relative arrival time of the call in flight, for sojourn
    /// recording.
    current_arrival: u64,
}

impl std::fmt::Debug for CallerActor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CallerActor")
            .field("id", &self.id)
            .field("mechanism", &self.dispatcher.name())
            .field("ops_issued", &self.ops_issued)
            .finish()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CallerState {
    /// Deciding what to do next.
    Deciding,
    /// Running the pre-compute of the pending call.
    PreCompute,
    /// Mid ocall dialogue.
    InCall,
    /// Sleeping out the rest of a phased period.
    PeriodSleep,
    /// Workload exhausted.
    Finishing,
}

impl CallerActor {
    /// Caller `id` running `spec` through `dispatcher`.
    #[must_use]
    pub fn new(
        id: usize,
        dispatcher: Box<dyn Dispatcher>,
        counters: Rc<RefCell<SimCounters>>,
        spec: WorkloadSpec,
    ) -> Self {
        let open = match &spec {
            WorkloadSpec::Open(l) => {
                // Perturb the seed per caller so identical specs on
                // different callers draw independent streams, then fork
                // arrival and service streams off one root.
                let mut root = switchless_core::rand::SplitMix64::new(
                    l.seed ^ (id as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                );
                let arrival_seed = root.next_u64();
                let service_seed = root.next_u64();
                let mut gen = ArrivalGen::new(l.arrivals, arrival_seed);
                let next_arrival = gen.next_arrival();
                Some(OpenRun {
                    gen,
                    service: ServiceSampler::new(l.service, service_seed),
                    next_arrival,
                    backlog: VecDeque::new(),
                    current_arrival: 0,
                })
            }
            _ => None,
        };
        CallerActor {
            id,
            dispatcher,
            counters,
            spec,
            state: CallerState::Deciding,
            call: CallDesc::default(),
            ops_issued: 0,
            pattern_next: 0,
            period_start: 0,
            period_remaining: 0,
            started_at: None,
            open,
        }
    }

    /// Decide the next action at `now`.
    fn decide(&mut self, now: u64, cx: &mut StepCx) -> Syscall {
        match &self.spec {
            WorkloadSpec::ClosedLoop { pattern, total_ops } => {
                if self.ops_issued >= *total_ops {
                    return self.finish(now);
                }
                let call = pattern[self.pattern_next];
                self.pattern_next += 1;
                if self.pattern_next == pattern.len() {
                    self.pattern_next = 0;
                }
                self.counters.borrow_mut().offered += 1;
                self.start_call(call, now, cx)
            }
            WorkloadSpec::Phased(p) => {
                let first = self.started_at.is_none();
                let started = *self.started_at.get_or_insert(now);
                if first {
                    self.period_start = started;
                }
                // Locate the period containing `now`.
                let elapsed = now.saturating_sub(started);
                let period_idx = elapsed / p.period_cycles;
                let this_period_start = started + period_idx * p.period_cycles;
                if this_period_start > self.period_start {
                    // The period rolled over with quota outstanding: an
                    // overloaded open-loop client drops, it does not
                    // queue forever. Count the unfinished quota — and
                    // the full quota of any whole period the overrun
                    // skipped — as abandoned, so offered load is
                    // conserved rather than lost silently.
                    let mut c = self.counters.borrow_mut();
                    c.ops_abandoned += self.period_remaining;
                    self.period_remaining = 0;
                    let mut t = self.period_start + p.period_cycles;
                    while t < this_period_start {
                        if let Some(ops) = p.ops_for_period(t - started) {
                            c.offered += ops;
                            c.ops_abandoned += ops;
                        }
                        t += p.period_cycles;
                    }
                }
                if self.period_remaining > 0 {
                    self.period_remaining -= 1;
                    return self.start_call(p.call, now, cx);
                }
                match p.ops_for_period(this_period_start - started) {
                    None => self.finish(now),
                    Some(ops) => {
                        if self.period_start == this_period_start && self.ops_issued > 0 {
                            // Current period quota done: sleep to the
                            // next period boundary.
                            let next = this_period_start + p.period_cycles;
                            self.state = CallerState::PeriodSleep;
                            return Syscall::Sleep(next.saturating_sub(now).max(1));
                        }
                        self.period_start = this_period_start;
                        self.period_remaining = ops.saturating_sub(1);
                        self.counters.borrow_mut().offered += ops;
                        self.start_call(p.call, now, cx)
                    }
                }
            }
            WorkloadSpec::Open(_) => self.decide_open(now, cx),
        }
    }

    /// Open-loop decide: materialize due arrivals, shed expired backlog,
    /// then issue, sleep or finish.
    fn decide_open(&mut self, now: u64, cx: &mut StepCx) -> Syscall {
        enum Next {
            Issue(CallDesc),
            SleepFor(u64),
            Finish,
        }
        let started = *self.started_at.get_or_insert(now);
        let elapsed = now.saturating_sub(started);
        let load = match &self.spec {
            WorkloadSpec::Open(l) => *l,
            _ => unreachable!("decide_open is only reached with an Open spec"),
        };
        let next = {
            let o = self.open.as_mut().expect("open run state");
            let mut c = self.counters.borrow_mut();
            // Every arrival due by now joins the backlog as offered load.
            while o.next_arrival < load.duration_cycles && o.next_arrival <= elapsed {
                o.backlog.push_back(o.next_arrival);
                c.offered += 1;
                o.next_arrival = o.gen.next_arrival();
            }
            // Shed queued calls whose dispatch budget has expired.
            if load.deadline_budget_cycles > 0 {
                while let Some(&arrival) = o.backlog.front() {
                    if elapsed.saturating_sub(arrival) > load.deadline_budget_cycles {
                        o.backlog.pop_front();
                        c.ops_shed += 1;
                    } else {
                        break;
                    }
                }
            }
            if o.backlog.is_empty() {
                if o.next_arrival >= load.duration_cycles {
                    Next::Finish
                } else {
                    Next::SleepFor((started + o.next_arrival).saturating_sub(now).max(1))
                }
            } else if elapsed >= load.duration_cycles {
                // The traffic window is over: walk away from the
                // backlog rather than draining it off the clock.
                c.ops_abandoned += o.backlog.len() as u64;
                o.backlog.clear();
                Next::Finish
            } else {
                let arrival = o.backlog.pop_front().expect("non-empty backlog");
                let mut call = load.call;
                let service = o.service.next_cycles();
                if service > 0 {
                    call.host_cycles = service;
                }
                o.current_arrival = arrival;
                Next::Issue(call)
            }
        };
        match next {
            Next::Issue(call) => self.start_call(call, now, cx),
            Next::SleepFor(d) => {
                self.state = CallerState::PeriodSleep;
                Syscall::Sleep(d)
            }
            Next::Finish => self.finish(now),
        }
    }

    fn start_call(&mut self, call: CallDesc, now: u64, cx: &mut StepCx) -> Syscall {
        self.call = call;
        if call.pre_compute_cycles > 0 {
            self.state = CallerState::PreCompute;
            return Syscall::Compute(call.pre_compute_cycles);
        }
        self.state = CallerState::InCall;
        self.dispatcher.begin(&self.call, now, cx)
    }

    fn finish(&mut self, now: u64) -> Syscall {
        self.state = CallerState::Finishing;
        let mut c = self.counters.borrow_mut();
        c.callers_live = c.callers_live.saturating_sub(1);
        if c.callers_live == 0 || now > c.last_completion {
            c.last_completion = now;
        }
        Syscall::Done
    }
}

impl Actor for CallerActor {
    fn step(&mut self, res: SyscallResult, now: u64, cx: &mut StepCx) -> Syscall {
        loop {
            match self.state {
                CallerState::Deciding => return self.decide(now, cx),
                CallerState::PreCompute => {
                    self.state = CallerState::InCall;
                    return self.dispatcher.begin(&self.call, now, cx);
                }
                CallerState::InCall => {
                    match self.dispatcher.advance(&self.call, res, now, cx) {
                        Step::Next(s) => return s,
                        Step::Complete(path) => {
                            let mut c = self.counters.borrow_mut();
                            c.record_call(self.id, self.call.class, path);
                            if let Some(o) = &self.open {
                                let started = self.started_at.unwrap_or(0);
                                let sojourn = now.saturating_sub(started + o.current_arrival);
                                c.record_sojourn(sojourn.max(1));
                            }
                            drop(c);
                            self.ops_issued += 1;
                            self.state = CallerState::Deciding;
                            // Loop to decide the next action immediately.
                        }
                        Step::Refused => {
                            // The call was consumed (its fate decided)
                            // but never completed: it counts against
                            // offered load as a refusal, not a
                            // completion, and records no sojourn.
                            self.counters.borrow_mut().refused_non_idempotent += 1;
                            self.ops_issued += 1;
                            self.state = CallerState::Deciding;
                        }
                    }
                }
                CallerState::PeriodSleep => {
                    self.state = CallerState::Deciding;
                    // Loop back into decide at the new period.
                }
                CallerState::Finishing => return Syscall::Done,
            }
        }
    }

    fn group(&self) -> &str {
        "caller"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(host: u64) -> CallDesc {
        CallDesc {
            host_cycles: host,
            ..CallDesc::default()
        }
    }

    #[test]
    fn phased_ops_follow_double_constant_halve() {
        // freq chosen so period = 10 cycles, phases of 40 cycles each
        // (4 periods per phase).
        let p = PhasedLoad {
            call: call(1),
            period_cycles: 10,
            initial_ops: 2,
            phases: vec![
                Phase {
                    duration_cycles: 40,
                    mode: PhaseMode::Doubling,
                },
                Phase {
                    duration_cycles: 40,
                    mode: PhaseMode::Constant,
                },
                Phase {
                    duration_cycles: 40,
                    mode: PhaseMode::Halving,
                },
            ],
        };
        // Doubling: 2,4,8,16
        assert_eq!(p.ops_for_period(0), Some(2));
        assert_eq!(p.ops_for_period(10), Some(4));
        assert_eq!(p.ops_for_period(35), Some(16));
        // Constant at the doubling peak (16).
        assert_eq!(p.ops_for_period(40), Some(16));
        assert_eq!(p.ops_for_period(79), Some(16));
        // Halving: 16,8,4,2
        assert_eq!(p.ops_for_period(80), Some(16));
        assert_eq!(p.ops_for_period(90), Some(8));
        assert_eq!(p.ops_for_period(119), Some(2));
        // Over.
        assert_eq!(p.ops_for_period(120), None);
        assert_eq!(p.total_cycles(), 120);
    }

    #[test]
    fn halving_never_reaches_zero() {
        let p = PhasedLoad {
            call: call(1),
            period_cycles: 10,
            initial_ops: 2,
            phases: vec![Phase {
                duration_cycles: 100,
                mode: PhaseMode::Halving,
            }],
        };
        assert_eq!(p.ops_for_period(90), Some(1));
    }

    #[test]
    fn paper_dynamic_shape() {
        let p = PhasedLoad::dynamic(call(1), 1_000_000, 20, 500, 8);
        assert_eq!(p.period_cycles, 500_000);
        assert_eq!(p.phases.len(), 3);
        assert_eq!(p.total_cycles(), 60_000_000);
        assert_eq!(p.ops_for_period(0), Some(8));
    }

    #[test]
    fn closed_loop_caller_runs_to_completion() {
        use crate::kernel::Kernel;
        use crate::ocall::regular::RegularDispatcher;
        use crate::ocall::CostModel;

        let mut k = Kernel::new(2, 1_000_000, 140);
        let counters = Rc::new(RefCell::new(SimCounters::new(1, 2)));
        let spec = WorkloadSpec::ClosedLoop {
            pattern: vec![call(100), call(100), call(100), call(200)],
            total_ops: 8,
        };
        k.spawn(Box::new(CallerActor::new(
            0,
            Box::new(RegularDispatcher::new(
                CostModel::on(&switchless_core::CpuSpec::paper_machine()),
                0,
                None,
            )),
            Rc::clone(&counters),
            spec,
        )));
        let end = k.run();
        let c = counters.borrow();
        assert_eq!(c.total_calls(), 8);
        assert_eq!(c.regular, 8);
        assert_eq!(c.ops_per_caller, vec![8]);
        assert_eq!(c.callers_live, 0);
        assert_eq!(c.last_completion, end);
        // 8 calls: 6×(13500+100) + 2×(13500+200)
        assert_eq!(end, 6 * 13_600 + 2 * 13_700);
    }

    #[test]
    fn pattern_classes_are_recorded() {
        use crate::kernel::Kernel;
        use crate::ocall::regular::RegularDispatcher;
        use crate::ocall::CostModel;

        let mut k = Kernel::new(1, 1_000_000, 140);
        let counters = Rc::new(RefCell::new(SimCounters::new(1, 2)));
        let f = CallDesc {
            class: 0,
            ..call(0)
        };
        let g = CallDesc {
            class: 1,
            ..call(50)
        };
        let spec = WorkloadSpec::ClosedLoop {
            pattern: vec![f, f, f, g],
            total_ops: 12,
        };
        k.spawn(Box::new(CallerActor::new(
            0,
            Box::new(RegularDispatcher::new(
                CostModel::on(&switchless_core::CpuSpec::paper_machine()),
                0,
                None,
            )),
            Rc::clone(&counters),
            spec,
        )));
        k.run();
        assert_eq!(counters.borrow().ops_per_class, vec![9, 3], "α = 3β mix");
    }

    #[test]
    fn phased_caller_sleeps_between_periods() {
        use crate::kernel::Kernel;
        use crate::ocall::regular::RegularDispatcher;
        use crate::ocall::CostModel;

        let mut k = Kernel::new(1, 10_000_000_000, 140);
        let counters = Rc::new(RefCell::new(SimCounters::new(1, 1)));
        // 2 periods of 1M cycles, 3 ops each, constant; each op ~13.6k
        // cycles, so the caller sleeps most of each period.
        let p = PhasedLoad {
            call: call(100),
            period_cycles: 1_000_000,
            initial_ops: 3,
            phases: vec![Phase {
                duration_cycles: 2_000_000,
                mode: PhaseMode::Constant,
            }],
        };
        k.spawn(Box::new(CallerActor::new(
            0,
            Box::new(RegularDispatcher::new(
                CostModel::on(&switchless_core::CpuSpec::paper_machine()),
                0,
                None,
            )),
            Rc::clone(&counters),
            WorkloadSpec::Phased(p),
        )));
        let end = k.run();
        let c = counters.borrow();
        assert_eq!(c.total_calls(), 6, "3 ops in each of 2 periods");
        assert_eq!(c.offered, 6);
        assert_eq!(c.ops_abandoned, 0);
        assert!(c.conserves());
        assert!(
            end >= 2_000_000,
            "caller must sleep out both periods, ended at {end}"
        );
        // Busy time far below elapsed time.
        assert!(k.thread_cycles(crate::kernel::Tid(0)).0 < 200_000);
    }

    #[test]
    fn closed_loop_offered_equals_completed() {
        use crate::kernel::Kernel;
        use crate::ocall::regular::RegularDispatcher;
        use crate::ocall::CostModel;

        let mut k = Kernel::new(1, 1_000_000, 140);
        let counters = Rc::new(RefCell::new(SimCounters::new(1, 1)));
        k.spawn(Box::new(CallerActor::new(
            0,
            Box::new(RegularDispatcher::new(
                CostModel::on(&switchless_core::CpuSpec::paper_machine()),
                0,
                None,
            )),
            Rc::clone(&counters),
            WorkloadSpec::ClosedLoop {
                pattern: vec![call(100)],
                total_ops: 5,
            },
        )));
        k.run();
        let c = counters.borrow();
        assert_eq!(c.offered, 5);
        assert_eq!(c.ops_shed + c.ops_abandoned, 0);
        assert!(c.conserves());
    }

    #[test]
    fn overrun_phased_quota_is_abandoned_not_lost() {
        use crate::kernel::Kernel;
        use crate::ocall::regular::RegularDispatcher;
        use crate::ocall::CostModel;

        let mut k = Kernel::new(1, 10_000_000_000, 140);
        let counters = Rc::new(RefCell::new(SimCounters::new(1, 1)));
        // Each call costs ~13.6k cycles but the period is only 30k
        // cycles with a quota of 100: at most 2-3 calls fit, the rest
        // of the quota must show up as abandoned — before the counter
        // existed this work vanished silently at each rollover.
        let p = PhasedLoad {
            call: call(100),
            period_cycles: 30_000,
            initial_ops: 100,
            phases: vec![Phase {
                duration_cycles: 90_000,
                mode: PhaseMode::Constant,
            }],
        };
        k.spawn(Box::new(CallerActor::new(
            0,
            Box::new(RegularDispatcher::new(
                CostModel::on(&switchless_core::CpuSpec::paper_machine()),
                0,
                None,
            )),
            Rc::clone(&counters),
            WorkloadSpec::Phased(p),
        )));
        k.run();
        let c = counters.borrow();
        assert_eq!(c.offered, 300, "3 periods × 100 quota, incl. skipped");
        assert!(c.ops_abandoned > 0, "overrun quota must be abandoned");
        assert!(c.total_calls() > 0);
        assert!(
            c.conserves(),
            "offered {} != completed {} + shed {} + abandoned {}",
            c.offered,
            c.total_calls(),
            c.ops_shed,
            c.ops_abandoned
        );
    }

    fn open_load(seed: u64) -> OpenLoad {
        use crate::arrival::{ArrivalProcess, ServiceDist};
        // Mean gap 5k cycles vs ~13.6k per call: ~2.7× overload, so
        // with a tight budget a large share of arrivals must shed.
        OpenLoad::new(
            call(100),
            ArrivalProcess::Poisson {
                mean_gap_cycles: 5_000,
            },
            seed,
            2_000_000,
        )
        .with_service(ServiceDist::Exponential { mean_cycles: 400 })
        .with_deadline_budget(50_000)
    }

    fn run_open(seed: u64) -> SimCounters {
        use crate::kernel::Kernel;
        use crate::ocall::regular::RegularDispatcher;
        use crate::ocall::CostModel;

        let mut k = Kernel::new(1, 10_000_000_000, 140);
        let counters = Rc::new(RefCell::new(SimCounters::new(1, 1)));
        k.spawn(Box::new(CallerActor::new(
            0,
            Box::new(RegularDispatcher::new(
                CostModel::on(&switchless_core::CpuSpec::paper_machine()),
                0,
                None,
            )),
            Rc::clone(&counters),
            WorkloadSpec::Open(open_load(seed)),
        )));
        k.run();
        let c = counters.borrow().clone();
        c
    }

    #[test]
    fn overloaded_open_loop_sheds_and_conserves_exactly() {
        let c = run_open(7);
        assert!(c.offered > 300, "2M cycles / 5k mean gap ≈ 400 arrivals");
        assert!(c.ops_shed > 0, "2.7× overload with a 50k budget must shed");
        assert!(c.total_calls() > 0);
        assert!(
            c.conserves(),
            "offered {} != completed {} + shed {} + abandoned {}",
            c.offered,
            c.total_calls(),
            c.ops_shed,
            c.ops_abandoned
        );
        assert!(c.goodput_ratio() < 1.0);
        assert!(c.sojourn_quantile_cycles(99) > 0, "sojourns were recorded");
    }

    #[test]
    fn same_seed_open_loop_runs_are_identical() {
        let a = run_open(42);
        let b = run_open(42);
        assert_eq!(a, b);
        let c = run_open(43);
        assert_ne!(a.offered, c.offered, "different seed, different trace");
    }

    #[test]
    fn unbudgeted_open_loop_abandons_backlog_at_window_end() {
        use crate::arrival::ArrivalProcess;
        use crate::kernel::Kernel;
        use crate::ocall::regular::RegularDispatcher;
        use crate::ocall::CostModel;

        let mut k = Kernel::new(1, 10_000_000_000, 140);
        let counters = Rc::new(RefCell::new(SimCounters::new(1, 1)));
        // No deadline budget: under overload the backlog only drains
        // by completion, so whatever is queued when the window closes
        // must be counted abandoned.
        let load = OpenLoad::new(
            call(100),
            ArrivalProcess::Poisson {
                mean_gap_cycles: 2_000,
            },
            11,
            1_000_000,
        );
        k.spawn(Box::new(CallerActor::new(
            0,
            Box::new(RegularDispatcher::new(
                CostModel::on(&switchless_core::CpuSpec::paper_machine()),
                0,
                None,
            )),
            Rc::clone(&counters),
            WorkloadSpec::Open(load),
        )));
        k.run();
        let c = counters.borrow();
        assert_eq!(c.ops_shed, 0, "no budget, nothing sheds");
        assert!(c.ops_abandoned > 0, "~6.8× overload leaves a backlog");
        assert!(c.conserves());
    }
}
