//! Liveness of the DES kernel outside the threads ≤ vCPUs regime, where
//! round-robin preemption decides who gets a core: every call must
//! complete on an oversubscribed machine, and on every cell of the
//! callers × `max_workers` grid of the worker-claim rule. (The file is
//! named for the suite it once was, which compared two scheduling
//! policies; DESIGN.md §11.)

use zc_des::ocall::CallDesc;
use zc_des::{run, Mechanism, SimConfig, WorkloadSpec, ZcSimParams};

#[test]
fn oversubscribed_machine_completes_every_call_under_both_policies() {
    // 256 callers of heavy 50k-cycle ocalls on 128 vCPUs (2×
    // oversubscribed), so callers spend their lifetime spin-waiting on
    // reply flags. The run uses a pause-granular quantum: a preempted
    // spinner re-observes its flag only at quantum boundaries, so only a
    // quantum of one pause resolves the wake — at one scheduling event
    // per core per pause, hence the few ops.
    let heavy = CallDesc {
        host_cycles: 50_000,
        ret_bytes: 8,
        ..CallDesc::default()
    };
    let workload = WorkloadSpec::ClosedLoop {
        pattern: vec![heavy],
        total_ops: 2,
    };
    let mut cfg = SimConfig::new(
        Mechanism::Zc(ZcSimParams::default()),
        vec![workload; 256],
        1,
    )
    .with_vcpus(128);
    cfg.rr_quantum = 140;
    let r = run(&cfg);
    assert_eq!(r.counters.ops_per_caller, vec![2; 256]);
}

/// Closed-loop zc callers on the §III-A f/g pattern with g = 0 (so `f`
/// and `g` differ only in class), `calls` in all, given `tenths` tenths
/// of a virtual second: the calls completed.
fn f_g_cell(vcpus: usize, callers: usize, max_workers: usize, calls: u64, tenths: u64) -> u64 {
    let f_g: Vec<CallDesc> = [0, 1, 0, 2, 1, 0, 1, 3]
        .map(|class| CallDesc {
            class,
            ..CallDesc::default()
        })
        .into();
    let zc = ZcSimParams {
        max_workers: Some(max_workers),
        ..ZcSimParams::default()
    };
    let workload = WorkloadSpec::ClosedLoop {
        pattern: f_g,
        total_ops: calls / callers as u64,
    };
    let cfg = SimConfig::new(Mechanism::Zc(zc), vec![workload; callers], 4).with_vcpus(vcpus);
    let deadline = cfg.cpu.freq_hz / 10 * tenths;
    run(&cfg.with_deadline(deadline)).counters.total_calls()
}

#[test]
fn a_deactivated_worker_is_never_claimed_under_either_policy() {
    // A caller that claims a worker the scheduler has deactivated keeps
    // it from parking. With callers ≥ N and `max_workers` ≥ N that
    // stalls the machine: N spinning workers and N callers swap cores
    // every quantum, and the 4/4 cell on 4 vCPUs needs over two virtual
    // seconds for its 20 000 calls instead of 0.03.
    assert_eq!(f_g_cell(4, 4, 4, 20_000, 1), 20_000);
    // The whole callers × `max_workers` grid on 1, 2, 4 and 8 vCPUs,
    // 0.1 virtual s a cell. One vCPU gets a whole second: its one
    // caller and one worker share the only core, so a hand-off waits
    // for an OS quantum (3 ms), and its 4 000 calls take 0.125 s (no_sl
    // takes 0.014 s; the scheduler does not see the stolen core).
    for vcpus in [1, 2, 4, 8] {
        let tenths = if vcpus == 1 { 10 } else { 1 };
        for callers in 1..=vcpus {
            for max_workers in 1..=vcpus {
                let calls = 4_000 / callers as u64 * callers as u64;
                assert_eq!(
                    f_g_cell(vcpus, callers, max_workers, calls, tenths),
                    calls,
                    "{callers} callers, max_workers {max_workers}, {vcpus} vCPUs"
                );
            }
        }
    }
}
