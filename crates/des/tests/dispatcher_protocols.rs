//! Protocol-level assertions on the mechanism models, checked through
//! tiny single-purpose simulations (the dialogue state machines are
//! driven by the real kernel, not mocked).

use std::cell::RefCell;
use std::rc::Rc;
use switchless_core::{CallPath, WorkerState};
use zc_des::metrics::SimCounters;
use zc_des::ocall::hotcalls::HotcallsConfig;
use zc_des::ocall::intel::IntelSimConfig;
use zc_des::ocall::zc::{Cmd, ZcDispatcher, ZcWorkerActor, ZcWorld};
use zc_des::ocall::CallDesc;
use zc_des::workload::CallerActor;
use zc_des::{
    Actor, CostModel, Kernel, Mechanism, SimConfig, StepCx, Syscall, SyscallResult, WorkloadSpec,
    ZcSimParams,
};
use zc_telemetry::Telemetry;

fn one_call(host: u64, payload: u64) -> WorkloadSpec {
    WorkloadSpec::ClosedLoop {
        pattern: vec![CallDesc {
            host_cycles: host,
            payload_bytes: payload,
            ..CallDesc::default()
        }],
        total_ops: 1,
    }
}

#[test]
fn regular_call_duration_is_exactly_modelled() {
    // One caller, one regular call: duration = T_es + copies + host.
    let r = zc_des::run(&SimConfig::new(
        Mechanism::NoSl,
        vec![one_call(1_000, 160)],
        1,
    ));
    assert_eq!(r.duration_cycles, 13_500 + 10 + 1_000);
}

#[test]
fn zc_switchless_call_is_cheaper_than_a_transition() {
    // One caller, one short call, worker held active by a huge quantum:
    // the switchless round trip must cost far less than T_es.
    let r = zc_des::run(&SimConfig::new(
        Mechanism::Zc(ZcSimParams {
            quantum_ms: 10_000,
            ..ZcSimParams::default()
        }),
        vec![one_call(1_000, 160)],
        1,
    ));
    assert_eq!(r.counters.switchless, 1);
    assert!(
        r.duration_cycles < 13_500,
        "switchless call ({} cycles) must beat one transition",
        r.duration_cycles
    );
    // handoff 600 + copy 10 + ring/pause latencies + host 1000 + collect.
    assert!(
        r.duration_cycles > 1_900,
        "cost model floor: {}",
        r.duration_cycles
    );
}

#[test]
fn intel_task_pool_overflow_falls_back() {
    // 8 callers, 1 worker with a minimal pool and long calls: overflowing
    // submissions must fall back rather than block forever.
    let cfg = IntelSimConfig {
        capacity: 1,
        ..IntelSimConfig::new(1, [0])
    };
    let workloads = vec![
        WorkloadSpec::ClosedLoop {
            pattern: vec![CallDesc {
                host_cycles: 100_000,
                ..CallDesc::default()
            }],
            total_ops: 5,
        };
        8
    ];
    let r = zc_des::run(&SimConfig::new(Mechanism::Intel(cfg), workloads, 1));
    assert_eq!(r.counters.total_calls(), 40);
    assert!(
        r.counters.fallback > 0,
        "pool of 1 must overflow under 8 callers"
    );
    assert!(
        r.counters.switchless > 0,
        "the worker must still serve some calls"
    );
}

#[test]
fn zc_pool_reallocation_is_charged() {
    // Payloads sized to exhaust the worker pool every few calls.
    let zp = ZcSimParams {
        pool_bytes: 1_000,
        quantum_ms: 10_000,
        ..ZcSimParams::default()
    };
    let workloads = vec![WorkloadSpec::ClosedLoop {
        pattern: vec![CallDesc {
            payload_bytes: 400,
            host_cycles: 500,
            ..CallDesc::default()
        }],
        total_ops: 20,
    }];
    let r = zc_des::run(&SimConfig::new(Mechanism::Zc(zp), workloads, 1));
    assert!(
        r.counters.pool_reallocs >= 5,
        "20 x 400 B through a 1 kB pool must realloc: {:?}",
        r.counters
    );
}

#[test]
fn zc_oversized_payload_falls_back() {
    let zp = ZcSimParams {
        pool_bytes: 100,
        quantum_ms: 10_000,
        ..ZcSimParams::default()
    };
    let r = zc_des::run(&SimConfig::new(
        Mechanism::Zc(zp),
        vec![one_call(500, 10_000)],
        1,
    ));
    assert_eq!(r.counters.fallback, 1, "payload > pool must fall back");
    assert_eq!(r.counters.pool_reallocs, 0);
}

#[test]
fn hotcalls_callers_queue_rather_than_fall_back() {
    // 4 callers, 1 hot worker, long calls: everything is eventually
    // served switchlessly; total time ~ serialized host time.
    let r = zc_des::run(&SimConfig::new(
        Mechanism::Hotcalls(HotcallsConfig::new(1, [0])),
        vec![
            WorkloadSpec::ClosedLoop {
                pattern: vec![CallDesc {
                    host_cycles: 50_000,
                    ..CallDesc::default()
                }],
                total_ops: 3,
            };
            4
        ],
        1,
    ));
    assert_eq!(r.counters.switchless, 12);
    assert_eq!(r.counters.fallback, 0);
    assert!(
        r.duration_cycles >= 12 * 50_000,
        "one worker serializes all 12 calls: {}",
        r.duration_cycles
    );
}

#[test]
fn intel_default_rbf_outlasts_long_waits() {
    // 2 callers, 1 worker, host 1M cycles (~7400 pauses of waiting for
    // the second caller): with the default rbf (20k pauses) nobody falls
    // back; with rbf=100 the blocked caller does.
    let long_call = |rbf| {
        let cfg = IntelSimConfig::new(1, [0]).with_rbf(rbf);
        let workloads = vec![
            WorkloadSpec::ClosedLoop {
                pattern: vec![CallDesc {
                    host_cycles: 1_000_000,
                    ..CallDesc::default()
                }],
                total_ops: 2,
            };
            2
        ];
        zc_des::run(&SimConfig::new(Mechanism::Intel(cfg), workloads, 1))
    };
    let default = long_call(20_000);
    assert_eq!(
        default.counters.fallback, 0,
        "default rbf waits through 1M-cycle calls"
    );
    let tight = long_call(100);
    assert!(
        tight.counters.fallback > 0,
        "rbf=100 must give up: {:?}",
        tight.counters
    );
}

/// Four closed-loop callers of 50 mixed ocalls each (modest payloads, a
/// ~1.3 µs host function) with a fresh hub;
/// returns the per-phase cycle sums of every path the run exercised, in
/// `reserve, copy_in, signal, wait, execute, copy_out` order.
fn phase_sums(mechanism: Mechanism, call_classes: &[usize]) -> Vec<(CallPath, Vec<u64>)> {
    let pattern = call_classes
        .iter()
        .map(|&class| CallDesc {
            class,
            pre_compute_cycles: 200,
            host_cycles: 5_000,
            payload_bytes: 256,
            ret_bytes: 64,
            non_idempotent: false,
        })
        .collect();
    let workload = WorkloadSpec::ClosedLoop {
        pattern,
        total_ops: 50,
    };
    let hub = Telemetry::new();
    let cfg = SimConfig::new(mechanism, vec![workload; 4], call_classes.len())
        .with_telemetry(std::sync::Arc::clone(&hub));
    let report = zc_des::run(&cfg);
    assert_eq!(report.counters.total_calls(), 200);
    let slo = report.slo_report(&hub, "phase pins");
    // Exact in virtual time: every cycle of a call is in some phase.
    assert_eq!(slo.max_conservation_error(), 0.0);
    slo.paths
        .iter()
        .map(|p| (p.path, p.phases.iter().map(|ph| ph.sum_cycles).collect()))
        .collect()
}

#[test]
fn phase_attribution_is_pinned_on_every_path() {
    // Where every cycle of a call goes, per path. The switchless rows
    // echo the cost model (reserve = 600/call hand-off); fallback and
    // regular carry the transition (`signal` = 13 500/call).
    assert_eq!(
        phase_sums(Mechanism::Zc(ZcSimParams::default()), &[0]),
        [(
            CallPath::Switchless,
            vec![120_000, 3_200, 0, 56_000, 1_000_000, 60_800]
        )]
    );
    // A 16-byte pool cannot hold the 256-byte payload: every call
    // releases its claimed worker and falls back immediately.
    let undersized = ZcSimParams {
        pool_bytes: 16,
        ..ZcSimParams::default()
    };
    assert_eq!(
        phase_sums(Mechanism::Zc(undersized), &[0]),
        [(
            CallPath::Fallback,
            vec![0, 3_200, 2_700_000, 0, 1_000_000, 800]
        )]
    );
    // Class 0 is in Intel's static switchless set, class 1 is not.
    assert_eq!(
        phase_sums(Mechanism::Intel(IntelSimConfig::new(2, [0])), &[0, 1]),
        [
            (
                CallPath::Switchless,
                vec![60_000, 1_600, 0, 38_000, 500_000, 30_400]
            ),
            (
                CallPath::Regular,
                vec![0, 1_600, 1_350_000, 0, 500_000, 400]
            ),
        ]
    );
}

/// Kernel steps per simulated call on the `des_rr_paper8` benchmark
/// config (paper machine, round-robin kernel, four callers issuing
/// 2 500 calls each of the `f,f,f,g` mix): one step per protocol turn
/// of each thread. A change that splits a turn again — an instant op
/// returned as a step of its own instead of issued from the step that
/// blocks — costs host time without moving a simulated cycle, so only
/// this pin sees it.
#[test]
fn steps_per_call_are_pinned_on_the_paper8_config() {
    let cpu = switchless_core::CpuSpec::paper_machine();
    let f = CallDesc::default();
    let g = CallDesc {
        class: 1,
        host_cycles: 200 * cpu.pause_cycles,
        ..CallDesc::default()
    };
    let caller = WorkloadSpec::ClosedLoop {
        pattern: vec![f, f, f, g],
        total_ops: 2_500,
    };
    for (mechanism, steps) in [
        (Mechanism::Zc(ZcSimParams::default()), 50_009),
        (Mechanism::Intel(IntelSimConfig::new(2, [0, 1])), 53_758),
        (Mechanism::NoSl, 10_004),
    ] {
        let r = zc_des::run(&SimConfig::new(
            mechanism.clone(),
            vec![caller.clone(); 4],
            2,
        ));
        assert_eq!(r.counters.total_calls(), 10_000);
        assert_eq!(r.kernel_steps, steps, "{mechanism:?}");
    }
}

/// Posts `Deactivate` to ZC worker 0 at a fixed instant, exactly as the
/// scheduler actor posts it to a surplus worker: set the command word,
/// then ring the doorbell.
struct PostDeactivate {
    world: Rc<RefCell<ZcWorld>>,
    at: u64,
}

impl Actor for PostDeactivate {
    fn step(&mut self, res: SyscallResult, _now: u64, cx: &mut StepCx) -> Syscall {
        if res == SyscallResult::Init {
            return Syscall::Sleep(self.at);
        }
        let mut wld = self.world.borrow_mut();
        assert_eq!(wld.workers[0].state, WorkerState::Processing);
        wld.workers[0].cmd = Cmd::Deactivate;
        wld.worker_db_val[0] += 1;
        cx.set_flag(wld.worker_db[0], wld.worker_db_val[0]);
        Syscall::Done
    }
}

/// The one ring a ZC release still makes: a `Deactivate` posted while
/// the worker executes rings a doorbell nobody spins on, so the worker
/// only learns of it when the caller's release rings it again, and parks
/// one pause later. A release that rings nobody leaves the worker
/// spinning forever.
#[test]
fn release_rings_a_worker_whose_deactivate_landed_mid_execution() {
    let cpu = switchless_core::CpuSpec::paper_machine();
    let mut k = Kernel::new(3, zc_des::kernel::DEFAULT_RR_QUANTUM, cpu.pause_cycles);
    let world = ZcWorld::new(&mut k, 1, 1, ZcSimParams::default().pool_bytes);
    let worker = k.spawn(Box::new(ZcWorkerActor::new(Rc::clone(&world), 0)));
    world.borrow_mut().worker_tids.push(worker);
    let counters = Rc::new(RefCell::new(SimCounters::new(1, 1)));
    let zc = ZcDispatcher::new(
        Rc::clone(&world),
        Rc::clone(&counters),
        CostModel::on(&cpu),
        0,
        None,
        None,
    );
    k.spawn(Box::new(CallerActor::new(
        0,
        Box::new(zc),
        Rc::clone(&counters),
        one_call(1_000_000, 64),
    )));
    k.spawn(Box::new(PostDeactivate {
        world: Rc::clone(&world),
        at: 500_000,
    }));
    // The release is the step that takes the slot from Waiting to
    // Unused; the park is the worker's step into Paused.
    let (mut last, mut released, mut paused) = (WorkerState::Unused, None, None);
    while let Some(now) = k.tick() {
        let state = world.borrow().workers[0].state;
        match (last, state) {
            (WorkerState::Waiting, WorkerState::Unused) => released = Some(now),
            (_, WorkerState::Paused) if paused.is_none() => paused = Some(now),
            _ => {}
        }
        last = state;
    }
    assert_eq!(counters.borrow().switchless, 1);
    let released = released.expect("the caller released the worker");
    assert_eq!(paused, Some(released + cpu.pause_cycles));
}
