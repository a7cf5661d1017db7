//! The two DES workloads. A repeat simulates a fixed amount of work, so
//! each host-time metric is the best repeat's (the host only ever adds
//! time to deterministic work), and every simulated statistic must be
//! identical from repeat to repeat (a change meant to speed the simulator
//! up may not move one of them).

use crate::host::{self, CpuTimes};
use crate::report::{Findings, Metric, Report};
use crate::run::RunOpts;
use crate::spans::{SpanKind, SpanLog};
use crate::spec::Better;
use crate::stats;
use std::sync::Arc;
use std::time::{Duration, Instant};
use switchless_core::{CpuSpec, SplitMix64};
use zc_des::arrival::{ArrivalProcess, ServiceDist};
use zc_des::fleet::{run_fleet, FleetSpec, TenantSimSpec};
use zc_des::ocall::intel::IntelSimConfig;
use zc_des::ocall::CallDesc;
use zc_des::workload::{OpenLoad, WorkloadSpec};
use zc_des::{KernelMode, Mechanism, SimConfig, ZcSimFaults, ZcSimParams};
use zc_telemetry::Telemetry;
use zc_workloads::synthetic::alpha3beta_pattern;

/// `tag` of a `sim` span, by index.
pub const MECHANISMS: [&str; 4] = ["zc", "intel", "nosl", "fleet"];

/// Repeats a full run never goes below, whatever the time budget.
const MIN_REPEATS: usize = 4;
/// Set-ups (scenario construction + one warm-up repeat) per run. One
/// takes under 10 ms of deterministic work, so like a repeat's its time
/// is the best of them; a hundred of them find a quiet moment where
/// fifteen left `setup_s` spreading by 0.2 from run to run.
const SETUPS: usize = 100;

/// `des_rr_paper8`: ops each of the four closed-loop callers issues in
/// one repeat, under each of the three mechanisms.
const RR_OPS_PER_CALLER: u64 = 2_500;
/// `des_event_fleet128`: virtual cycles one repeat simulates.
const FLEET_RUN_CYCLES: u64 = 10_000_000;
// Both keep a repeat under 30 ms of host time, for the reason the
// real-thread harness takes throughput over short slices: the shorter
// the stretch, the likelier the host left it alone.

/// How much one call of [`Scenario::repeat`] simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Size {
    /// A timed repeat.
    Timed,
    /// The warm-up repeat of a set-up: two fifths of a timed one (1 000
    /// ops a caller, 4 M cycles).
    WarmUp,
}

impl Size {
    fn of(self, timed: u64) -> u64 {
        match self {
            Size::Timed => timed,
            Size::WarmUp => timed * 2 / 5,
        }
    }
}

/// What one repeat produced.
#[derive(Default)]
struct Repeat {
    /// Simulated calls (rr: completed; fleet: offered).
    ops: u64,
    /// Offered calls no counter accounts for.
    unaccounted: u64,
    /// Host time per sim, in [`MECHANISMS`] order of the sims run.
    sims: Vec<(u8, u64, Duration)>,
    /// Everything simulated that must not change between repeats.
    signature: Vec<u64>,
    /// `SimReport.total_busy_cycles` summed, where the report has it.
    busy_cycles: Option<u64>,
    /// Completed simulated calls.
    completed: u64,
    /// `duration_cycles` summed over the sims.
    makespan_cycles: u64,
    /// Per-layer simulated statistics.
    layer: Vec<(&'static str, f64)>,
    /// Conservation failures (`SimCounters::conserves`,
    /// `FleetSnapshot::check`, fault schedule not executed).
    violations: Vec<String>,
}

/// A DES scenario.
trait Scenario {
    fn repeat(&self, size: Size, log: Option<&SpanLog>) -> Repeat;
    /// Traced run: per-layer metrics read from the hub the sims ran with.
    fn traced_metrics(&self, _out: &mut Findings) {}
}

fn timed<R>(log: Option<&SpanLog>, tag: u8, f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    let end = Instant::now();
    if let Some(log) = log {
        log.child(SpanKind::Sim, tag, start, end);
    }
    (r, end.duration_since(start))
}

struct RrPaper8 {
    seed: u64,
    hub: Option<Arc<Telemetry>>,
}

impl RrPaper8 {
    fn config(&self, mechanism: Mechanism, ops: u64) -> SimConfig {
        let cpu = CpuSpec::paper_machine();
        // The paper's f,f,f,g mix. The seed moves the length of `g` by
        // at most 3% around 200 pauses: the simulated statistics differ
        // from seed to seed, the number of simulated steps (the host's
        // work) does not. Rotating the pattern per caller instead made
        // the host cost per call bimodal (433 vs 467 ns).
        let g_pauses = 197 + SplitMix64::new(self.seed).next_below(7);
        let caller = WorkloadSpec::ClosedLoop {
            pattern: alpha3beta_pattern(g_pauses, cpu.pause_cycles),
            total_ops: ops,
        };
        SimConfig::new(mechanism, vec![caller; 4], 2)
    }
}

impl Scenario for RrPaper8 {
    fn repeat(&self, size: Size, log: Option<&SpanLog>) -> Repeat {
        let ops = size.of(RR_OPS_PER_CALLER);
        let mechanisms = [
            Mechanism::Zc(ZcSimParams::default()),
            Mechanism::Intel(IntelSimConfig::new(2, [0usize, 1])),
            Mechanism::NoSl,
        ];
        let mut r = Repeat {
            busy_cycles: Some(0),
            ..Repeat::default()
        };
        for (tag, mechanism) in mechanisms.into_iter().enumerate() {
            let mut config = self.config(mechanism, ops);
            if let (0, Some(hub)) = (tag, &self.hub) {
                config = config.with_telemetry(Arc::clone(hub));
            }
            let (report, took) = timed(log, tag as u8, || zc_des::run(&config));
            let c = &report.counters;
            let calls = c.total_calls();
            if calls != 4 * ops {
                r.violations.push(format!(
                    "{}: {calls} calls for {} issued",
                    MECHANISMS[tag],
                    4 * ops
                ));
            }
            if c.offered > 0 && !c.conserves() {
                r.violations.push(format!(
                    "{}: SimCounters::conserves is false",
                    MECHANISMS[tag]
                ));
            }
            r.ops += calls;
            r.completed += calls;
            r.unaccounted += (4 * ops).saturating_sub(calls);
            r.sims.push((tag as u8, calls, took));
            r.signature.extend([
                report.duration_cycles,
                report.total_busy_cycles,
                c.switchless,
                c.fallback,
                c.regular,
                c.pool_reallocs,
            ]);
            *r.busy_cycles.get_or_insert(0) += report.total_busy_cycles;
            r.makespan_cycles += report.duration_cycles;
            if tag == 0 {
                let attempts = c.switchless + c.fallback;
                r.layer.push((
                    "zc-des.sim.switchless_share",
                    c.switchless as f64 / attempts.max(1) as f64,
                ));
                r.layer
                    .push(("zc-des.sim.mean_active_workers", report.mean_active_workers));
                r.layer.push((
                    "zc-des.sim.guard_violations",
                    report.fault_recovery.guard_violations as f64,
                ));
                r.layer.push((
                    "zc-des.sim.enclave_restarts",
                    report.fault_recovery.enclave_restarts as f64,
                ));
            }
        }
        r.layer.push(("zc-des.sim.shed_share", 0.0));
        r
    }

    fn traced_metrics(&self, out: &mut Findings) {
        // The same per-path phase sums `SimReport::slo_report` is built
        // from, pooled over the three call paths.
        let Some(hub) = &self.hub else { return };
        let profile = hub.profile().snapshot();
        let calls: u64 = profile.paths.iter().map(|p| p.total.count).sum();
        if calls == 0 {
            return;
        }
        for phase in zc_telemetry::Phase::ALL {
            let cycles: u64 = profile
                .paths
                .iter()
                .map(|p| p.phases[phase.index()].sum)
                .sum();
            out.layer(
                &format!("zc-des.sim.phase.{}_cycles_mean", phase.name()),
                cycles as f64 / calls as f64,
            );
        }
    }
}

struct EventFleet128 {
    seed: u64,
}

fn call(host_cycles: u64) -> CallDesc {
    CallDesc {
        host_cycles,
        payload_bytes: 64,
        ret_bytes: 0,
        ..CallDesc::default()
    }
}

impl EventFleet128 {
    /// The four tenants of the `multitenant` bench on 128 vCPUs: arrival
    /// seeds and fault times come from the workload seed.
    fn spec(&self, run_cycles: u64) -> FleetSpec {
        let mut rng = SplitMix64::new(self.seed ^ 0xf1ee_7128);
        let mut open =
            |call: CallDesc, arrivals: ArrivalProcess, service: u64, budget: u64, n: usize| {
                (0..n)
                    .map(|_| {
                        WorkloadSpec::Open(
                            OpenLoad::new(call, arrivals, rng.next_u64(), run_cycles)
                                .with_service(ServiceDist::Exponential {
                                    mean_cycles: service,
                                })
                                .with_deadline_budget(budget),
                        )
                    })
                    .collect::<Vec<_>>()
            };
        let good = open(
            call(2_000),
            ArrivalProcess::Poisson {
                mean_gap_cycles: 60_000,
            },
            1_500,
            10_000_000,
            2,
        );
        // About 4x what its shard can serve while bursting.
        let hog = open(
            call(500),
            ArrivalProcess::Mmpp {
                calm_gap_cycles: 3_000,
                burst_gap_cycles: 500,
                // Short dwells: ~100 calm/burst cycles a caller a repeat,
                // so the offered mix barely depends on the seed.
                calm_dwell_cycles: 200_000,
                burst_dwell_cycles: 100_000,
            },
            2_000,
            100_000,
            4,
        );
        let ops = run_cycles / 5_000;
        let closed = |ops| {
            vec![WorkloadSpec::ClosedLoop {
                pattern: vec![call(500)],
                total_ops: ops,
            }]
        };
        let mut jitter = |base: u64| base + rng.next_below((base / 10).max(1));
        let crashloop = TenantSimSpec::new("crashloop", closed(ops)).with_faults(
            ZcSimFaults::new()
                .crash_enclave_at_call(jitter(ops / 60))
                .crash_enclave_at_call(jitter(ops / 3))
                .crash_enclave_at_call(jitter(ops * 2 / 3))
                .with_enclave_restart_cycles(500_000),
        );
        let byzantine = TenantSimSpec::new("byzantine", closed(ops)).with_faults(
            ZcSimFaults::new()
                .flip_status_at(jitter(run_cycles / 30), 0)
                .garbage_command_at(jitter(run_cycles / 15), 1)
                .oversize_reply_at(jitter(run_cycles / 10), 2)
                .undersize_reply_at(jitter(run_cycles * 2 / 15), 3)
                .stale_seq_at(jitter(run_cycles / 6), 0)
                .torn_request_at(jitter(run_cycles / 5), 1)
                .with_respawn_delay(800_000)
                .with_watchdog_pauses(5_000),
        );
        FleetSpec::new(
            vec![
                TenantSimSpec::new("good", good),
                TenantSimSpec::new("hog", hog),
                crashloop,
                byzantine,
            ],
            1,
        )
        .with_vcpus(128)
        .with_budget(16)
        .with_kernel_mode(KernelMode::EventDriven)
        .with_deadline(run_cycles * 4)
        .with_rebalance_interval(run_cycles / 8)
    }
}

impl Scenario for EventFleet128 {
    fn repeat(&self, size: Size, log: Option<&SpanLog>) -> Repeat {
        let spec = self.spec(size.of(FLEET_RUN_CYCLES));
        let (report, took) = timed(log, 3, || run_fleet(&spec));
        let mut r = Repeat {
            signature: vec![report.duration_cycles, report.decisions],
            makespan_cycles: report.duration_cycles,
            ..Repeat::default()
        };
        if let Err(e) = report.snapshot().check() {
            r.violations.push(format!("FleetSnapshot::check: {e}"));
        }
        let (mut shed, mut switchless, mut attempts, mut guard, mut restarts) = (0, 0, 0, 0, 0);
        for t in &report.tenants {
            let c = &t.counters;
            let accounted =
                c.total_calls() + c.ops_shed + c.ops_abandoned + c.refused_non_idempotent;
            if !c.conserves() {
                r.violations
                    .push(format!("{}: SimCounters::conserves is false", t.name));
            }
            r.ops += c.offered;
            r.completed += c.total_calls();
            r.unaccounted += c.offered.saturating_sub(accounted);
            shed += c.ops_shed;
            switchless += c.switchless;
            attempts += c.switchless + c.fallback;
            guard += t.fault_recovery.guard_violations;
            restarts += t.fault_recovery.enclave_restarts;
            r.signature.extend([
                c.offered,
                c.total_calls(),
                c.ops_shed,
                c.ops_abandoned,
                c.refused_non_idempotent,
                t.fault_recovery.guard_violations,
                t.fault_recovery.enclave_restarts,
                t.final_cap as u64,
            ]);
        }
        // The fault schedule is part of the workload: if it did not
        // execute, the run measured something else.
        if size == Size::Timed && (guard != 6 || restarts != 3) {
            r.violations.push(format!(
                "fault schedule: {guard} guard violations (want 6), {restarts} restarts (want 3)"
            ));
        }
        r.sims.push((3, r.ops, took));
        r.layer.extend([
            ("zc-des.sim.shed_share", shed as f64 / r.ops.max(1) as f64),
            (
                "zc-des.sim.switchless_share",
                switchless as f64 / attempts.max(1) as f64,
            ),
            ("zc-des.sim.guard_violations", guard as f64),
            ("zc-des.sim.enclave_restarts", restarts as f64),
            (
                "zc-des.sim.good_sojourn_p99_cycles",
                report.tenants[0].counters.sojourn_quantile_cycles(99) as f64,
            ),
        ]);
        r
    }
}

/// Run a DES workload for about `opts.seconds` of host time.
pub fn run(name: &str, opts: &RunOpts, log: Option<&Arc<SpanLog>>, mut out: Findings) -> Report {
    let scenario: Box<dyn Scenario> = match name {
        "des_rr_paper8" => Box::new(RrPaper8 {
            seed: opts.seed,
            hub: opts.traced.then(|| Telemetry::with_capacity(1 << 10)),
        }),
        _ => Box::new(EventFleet128 { seed: opts.seed }),
    };
    let log = log.map(Arc::as_ref);

    let setups = if opts.quick { 1 } else { SETUPS };
    let setup_s: Vec<f64> = (0..setups)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(scenario.repeat(Size::WarmUp, None));
            t0.elapsed().as_secs_f64()
        })
        .collect();

    if let Some(log) = log {
        log.enable();
    }
    let budget = Duration::from_secs(opts.seconds);
    let window = Instant::now();
    let mut repeats: Vec<(Repeat, Duration, CpuTimes)> = Vec::new();
    let steal0 = host::steal_jiffies();
    loop {
        let open = log.map(SpanLog::begin);
        let cpu0 = CpuTimes::now();
        let start = Instant::now();
        let r = scenario.repeat(Size::Timed, log);
        let end = Instant::now();
        let cpu = CpuTimes::now().since(&cpu0);
        if let (Some(log), Some(open)) = (log, open) {
            log.end(open, SpanKind::Repeat, start, end);
        }
        repeats.push((r, end.duration_since(start), cpu));
        let enough = if opts.quick { 1 } else { MIN_REPEATS };
        if repeats.len() >= enough && (opts.quick || window.elapsed() >= budget) {
            break;
        }
    }
    if let Some(log) = log {
        log.disable();
    }
    out.layer(
        "host.steal_share",
        host::steal_share(steal0, host::steal_jiffies()),
    );

    let first = &repeats[0].0;
    let drifted = repeats
        .iter()
        .filter(|(r, ..)| r.signature != first.signature)
        .count();
    out.check(
        "simulated_statistics_identical_across_repeats",
        drifted == 0,
        format!(
            "{drifted} of {} repeats differ from the first",
            repeats.len()
        ),
    );
    let violations: Vec<&String> = repeats.iter().flat_map(|(r, ..)| &r.violations).collect();
    out.check(
        "simulation_conserves_calls",
        violations.is_empty(),
        violations.first().map_or_else(
            || "every counter set conserves".to_string(),
            |v| (*v).clone(),
        ),
    );

    let per = |f: &dyn Fn(&(Repeat, Duration, CpuTimes)) -> f64| -> Vec<f64> {
        repeats.iter().map(f).collect()
    };
    let ns_per_op = per(&|(r, took, _)| took.as_nanos() as f64 / r.ops as f64);
    let best =
        |v: &[f64], unit, better| Metric::best_of(v, unit, better).expect("at least one repeat");
    let ops_per_s = best(
        &per(&|(r, took, _)| r.ops as f64 / took.as_secs_f64()),
        "1/s",
        Better::Higher,
    );
    let (ops, took) = repeats
        .iter()
        .fold((0, Duration::ZERO), |(o, t), (r, took, _)| {
            (o + r.ops, t + *took)
        });
    out.layer("benchmark.ops_per_s_mean", ops as f64 / took.as_secs_f64());
    out.layer(
        "benchmark.segment_iqr_ratio",
        ops_per_s.summary.map_or(0.0, |s| s.iqr_ratio()),
    );
    let disturbed = repeats
        .iter()
        .filter(|(_, took, cpu)| {
            cpu.main_wait_ns as f64 / took.as_nanos() as f64 > crate::harness::DISTURBED_SHARE
        })
        .count();
    out.layer("host.disturbed_segments", disturbed as f64);
    for (tag, name) in MECHANISMS.iter().enumerate().take(3) {
        let rates: Vec<f64> = repeats
            .iter()
            .flat_map(|(r, ..)| &r.sims)
            .filter(|(t, ..)| usize::from(*t) == tag)
            .map(|(_, calls, took)| *calls as f64 / took.as_secs_f64())
            .collect();
        if let Some(rate) = stats::median(&rates) {
            out.layer(&format!("zc-des.rr.{name}.sim_calls_per_s"), rate);
        }
    }
    for (name, value) in &first.layer {
        out.layer(name, *value);
    }
    if opts.traced {
        scenario.traced_metrics(&mut out);
    }

    let attempted: u64 = repeats.iter().map(|(r, ..)| r.ops).sum();
    let failed: u64 = repeats.iter().map(|(r, ..)| r.unaccounted).sum();
    let mut end_to_end = vec![
        ("ops_per_s".to_string(), ops_per_s),
        (
            "op_ns_p50".to_string(),
            best(&ns_per_op, "ns", Better::Lower),
        ),
        (
            "cpu_ns_per_op".to_string(),
            best(
                &per(&|(r, _, cpu)| cpu.all_ns as f64 / r.ops as f64),
                "ns",
                Better::Lower,
            ),
        ),
        (
            "failed_share".to_string(),
            Metric::single(failed as f64 / attempted as f64, "ratio"),
        ),
        ("setup_s".to_string(), best(&setup_s, "s", Better::Lower)),
    ];
    if let Some(busy) = first.busy_cycles {
        end_to_end.push((
            "sim_busy_cycles_per_op".to_string(),
            Metric::single(busy as f64 / first.completed as f64, "cycles"),
        ));
    }
    end_to_end.push((
        "sim_makespan_cycles".to_string(),
        Metric::single(first.makespan_cycles as f64, "cycles"),
    ));
    Report {
        workload: name.to_string(),
        traced: opts.traced,
        quick: opts.quick,
        seed: opts.seed,
        segments: repeats.len(),
        attempted,
        failed,
        end_to_end,
        per_layer: out.per_layer,
        checks: out.checks,
        host: crate::json::Json::obj(),
    }
}
