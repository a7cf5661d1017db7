//! Property-based tests over the core invariants (proptest).

use proptest::prelude::*;
use std::sync::Arc;
use switchless_core::policy::{
    choose_workers_weighted, wasted_cycles, MicroQuantumReport, PolicyParams, PolicyStep,
    SchedulerPolicy,
};
use switchless_core::{
    CpuSpec, Fault, FaultInjector, FaultPlan, FaultSchedule, OcallDispatcher, OcallRequest,
    OcallTable, WorkerState, ZcConfig, MAX_OCALL_ARGS,
};
use zc_switchless_repro::sgx_sim::hostfs::{HostFs, OpenMode, Whence};
use zc_switchless_repro::sgx_sim::tlibc::{memcpy_vanilla, memcpy_zc};
use zc_switchless_repro::sgx_sim::Enclave;
use zc_switchless_repro::zc_switchless::ZcRuntime;
use zc_switchless_repro::zc_workloads::crypto::{cbc, Aes256};

proptest! {
    /// The argmin the policy picks is really the minimum of the weighted
    /// objective, with ties broken towards fewer workers.
    #[test]
    fn policy_argmin_matches_brute_force(
        fallbacks in prop::collection::vec(0u64..10_000, 1..9),
        t_es in 1_000u64..50_000,
        mq in 10_000u64..1_000_000,
        weight in 1u64..32,
    ) {
        let reports: Vec<MicroQuantumReport> = fallbacks
            .iter()
            .enumerate()
            .map(|(w, &f)| MicroQuantumReport { workers: w, fallbacks: f })
            .collect();
        let chosen = choose_workers_weighted(&reports, t_es, mq, weight);
        let u = |r: &MicroQuantumReport| wasted_cycles(r.fallbacks * weight, t_es, r.workers, mq);
        let best = reports.iter().map(u).min().unwrap();
        prop_assert_eq!(u(&reports[chosen]), best, "chosen count must achieve the minimum");
        // Tie-break: nothing strictly smaller with fewer workers.
        for r in &reports[..chosen] {
            prop_assert!(u(r) > best, "a smaller worker count with equal waste must win");
        }
    }

    /// The scheduler phase machine follows schedule, probe 0..=N, schedule
    /// forever, regardless of the fallback inputs.
    #[test]
    fn policy_phase_sequence_is_invariant(
        fallback_feed in prop::collection::vec(0u64..100_000, 30),
        max_workers in 1usize..6,
        initial in 0usize..8,
    ) {
        let params = PolicyParams {
            t_es_cycles: 13_500,
            quantum_cycles: 38_000_000,
            mu_inverse: 100,
            max_workers,
            fallback_weight: 8,
        };
        let mut policy = SchedulerPolicy::new(params, initial);
        let mut i = 0;
        let mut feed = fallback_feed.into_iter().cycle();
        // One full cycle: schedule + (max+1) probes + schedule.
        loop {
            let step = policy.next(feed.next().unwrap());
            prop_assert!(step.workers() <= max_workers);
            i += 1;
            if i > 3 * (max_workers + 2) {
                break;
            }
        }
        prop_assert!(policy.decisions() >= 2, "several configuration phases must complete");
    }

    /// Both memcpy implementations agree with the source for arbitrary
    /// contents, lengths and alignment phases.
    #[test]
    fn memcpy_implementations_agree(
        data in prop::collection::vec(any::<u8>(), 0..2048),
        dphase in 0usize..8,
        sphase in 0usize..8,
    ) {
        let n = data.len();
        let mut src_buf = vec![0u8; n + 16];
        let soff = (8 - (src_buf.as_ptr() as usize) % 8) % 8 + sphase;
        src_buf[soff..soff + n].copy_from_slice(&data);
        let mut d1 = vec![0u8; n + 16];
        let doff = (8 - (d1.as_ptr() as usize) % 8) % 8 + dphase;
        let mut d2 = d1.clone();
        let doff2 = (8 - (d2.as_ptr() as usize) % 8) % 8 + dphase;
        memcpy_vanilla(&mut d1[doff..doff + n], &src_buf[soff..soff + n]);
        memcpy_zc(&mut d2[doff2..doff2 + n], &src_buf[soff..soff + n]);
        prop_assert_eq!(&d1[doff..doff + n], &data[..]);
        prop_assert_eq!(&d2[doff2..doff2 + n], &data[..]);
    }

    /// AES-256-CBC round-trips arbitrary plaintexts under arbitrary keys.
    #[test]
    fn cbc_roundtrip(
        key in prop::array::uniform32(any::<u8>()),
        iv in prop::array::uniform16(any::<u8>()),
        pt in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let aes = Aes256::new(&key);
        let ct = cbc::encrypt(&aes, &iv, &pt);
        prop_assert_eq!(ct.len() % 16, 0);
        prop_assert!(ct.len() > pt.len());
        let back = cbc::decrypt(&aes, &iv, &ct).unwrap();
        prop_assert_eq!(back, pt);
    }

    /// The host filesystem behaves like a byte-array oracle under random
    /// write/seek sequences.
    #[test]
    fn hostfs_matches_vec_oracle(ops in prop::collection::vec((0u8..3, 0usize..200, any::<u8>()), 1..40)) {
        let fs = HostFs::new();
        let fd = fs.open("/oracle", OpenMode::ReadWrite).unwrap();
        let mut oracle: Vec<u8> = Vec::new();
        let mut pos: usize = 0;
        for (kind, arg, byte) in ops {
            match kind {
                0 => {
                    // write `arg % 32 + 1` bytes of `byte`.
                    let n = arg % 32 + 1;
                    let data = vec![byte; n];
                    fs.write(fd, &data).unwrap();
                    if pos > oracle.len() {
                        oracle.resize(pos, 0);
                    }
                    let overlap = (oracle.len().saturating_sub(pos)).min(n);
                    oracle[pos..pos + overlap].copy_from_slice(&data[..overlap]);
                    oracle.extend_from_slice(&data[overlap..]);
                    pos += n;
                }
                1 => {
                    // absolute seek within a sane range.
                    pos = arg;
                    fs.seek(fd, arg as i64, Whence::Set).unwrap();
                }
                _ => {
                    // read up to `arg % 16` bytes and compare.
                    let n = arg % 16;
                    let mut got = Vec::new();
                    fs.read(fd, n, &mut got).unwrap();
                    let start = pos.min(oracle.len());
                    let end = (pos + n).min(oracle.len());
                    prop_assert_eq!(&got[..], &oracle[start..end]);
                    pos = end.max(pos);
                }
            }
        }
        prop_assert_eq!(fs.file_contents("/oracle").unwrap(), oracle);
    }

    /// One full policy cycle is exactly: a scheduling quantum, then
    /// `N/2 + 1` configuration micro-quanta probing `0, 1, …, N/2`
    /// workers in order (each lasting `µQ` cycles), then a scheduling
    /// quantum whose worker count is the weighted argmin of the probed
    /// fallback counts — for arbitrary machine shapes and fallback feeds.
    #[test]
    fn policy_cycle_is_schedule_probes_argmin_schedule(
        max_workers in 1usize..8,
        initial in 0usize..8,
        weight in 1u64..16,
        feed in prop::collection::vec(0u64..50_000, 16),
    ) {
        let params = PolicyParams {
            t_es_cycles: 13_500,
            quantum_cycles: 38_000_000,
            mu_inverse: 100,
            max_workers,
            fallback_weight: weight,
        };
        let mut policy = SchedulerPolicy::new(params, initial);
        let first = policy.next(0);
        prop_assert_eq!(first, PolicyStep::Schedule {
            workers: initial.min(max_workers),
            duration_cycles: params.quantum_cycles,
        });
        let mut feed_iter = feed.into_iter().cycle();
        // Finish the scheduling quantum (its fallback count is ignored)
        // and walk the configuration phase.
        let mut step = policy.next(feed_iter.next().unwrap());
        let mut probed = Vec::new();
        let mut fed = Vec::new();
        let decision = loop {
            match step {
                PolicyStep::Probe { workers, duration_cycles } => {
                    prop_assert_eq!(
                        duration_cycles,
                        params.micro_quantum_cycles(),
                        "every probe lasts exactly one micro-quantum"
                    );
                    probed.push(workers);
                    let f = feed_iter.next().unwrap();
                    fed.push(f);
                    step = policy.next(f);
                }
                PolicyStep::Schedule { workers, duration_cycles } => {
                    prop_assert_eq!(duration_cycles, params.quantum_cycles);
                    break workers;
                }
            }
        };
        // Exactly N/2 + 1 probes, in ascending order 0..=N/2.
        prop_assert_eq!(&probed, &(0..=max_workers).collect::<Vec<_>>());
        // The decision is the weighted argmin over exactly the fed
        // fallback counts.
        let reports: Vec<MicroQuantumReport> = fed
            .iter()
            .enumerate()
            .map(|(w, &f)| MicroQuantumReport { workers: w, fallbacks: f })
            .collect();
        let expect = choose_workers_weighted(
            &reports,
            params.t_es_cycles,
            params.micro_quantum_cycles(),
            weight,
        );
        prop_assert_eq!(decision, expect);
        prop_assert_eq!(policy.current_workers(), expect);
        prop_assert_eq!(policy.decisions(), 1);
    }

    /// Under arbitrary scripted faults (crashes, stalls, pool exhaustion,
    /// transition failures) every call still completes with an intact
    /// payload, once. No status edge is illegal: `try_transition` checks
    /// each edge before its CAS and poisons the slot instead of taking
    /// one, so the only quarantined slot is the one a crash took.
    #[test]
    fn worker_transitions_stay_legal_under_faults(
        kind in 0u8..3,
        at in 0u64..4,
        exhaust in 0u64..6,
        trans_fail in 0u64..3,
        calls in 10u64..40,
    ) {
        let mut plan = FaultPlan::new()
            .inject(Fault::PoolExhaustion, FaultSchedule::first(exhaust))
            .inject(Fault::TransitionFailure, FaultSchedule::first(trans_fail));
        plan = match kind {
            1 => plan.inject(Fault::WorkerCrash, FaultSchedule::at(at)),
            2 => plan
                .inject(Fault::WorkerStall, FaultSchedule::at(at))
                .cycles(Fault::WorkerStall, 500_000),
            _ => plan,
        };
        let mut t = OcallTable::new();
        let echo = t.register(
            "echo",
            |_: &[u64; MAX_OCALL_ARGS], pin: &[u8], pout: &mut Vec<u8>| {
                pout.extend_from_slice(pin);
                pin.len() as i64
            },
        );
        let mut cpu = CpuSpec::paper_machine();
        cpu.logical_cpus = 4;
        let cfg = ZcConfig::for_cpu(cpu).with_quantum_ms(10).with_initial_workers(2);
        let faults = Arc::new(FaultInjector::new(plan));
        let rt = ZcRuntime::start_with_faults(
            cfg,
            Arc::new(t),
            Enclave::new_virtual(cpu),
            Arc::clone(&faults),
        )
        .unwrap();
        let mut out = Vec::new();
        for i in 0..calls {
            let payload = vec![(i % 251) as u8; 8];
            // `trans_fail < 4` stays inside the retry budget, so every
            // call must succeed (switchlessly or via fallback).
            let (ret, _) = rt
                .dispatch(&OcallRequest::new(echo, &[]), &payload, &mut out)
                .unwrap();
            prop_assert_eq!(ret, 8);
            prop_assert_eq!(&out, &payload);
        }
        let snap = rt.stats().snapshot();
        prop_assert!(snap.is_conserved(), "stats not conserved: {snap:?}");
        prop_assert_eq!(snap.total_calls(), calls);
        prop_assert_eq!(
            rt.poisoned_workers() as u64,
            faults.counts()[Fault::WorkerCrash],
            "a slot was quarantined that no crash took"
        );
        rt.shutdown();
    }

    /// Random walks over the worker state machine: any sequence of legal
    /// transitions keeps the state consistent, and `can_transition` is
    /// antisymmetric on the happy path.
    #[test]
    fn worker_state_machine_random_walk(choices in prop::collection::vec(0usize..6, 1..100)) {
        let mut state = WorkerState::Unused;
        let mut visited = vec![state];
        for c in choices {
            let next = WorkerState::ALL[c];
            if state.can_transition(next) {
                state = next;
                visited.push(state);
            }
        }
        // EXIT is terminal: once reached, it must be last.
        if let Some(first_exit) = visited.iter().position(|s| *s == WorkerState::Exit) {
            prop_assert_eq!(first_exit, visited.len() - 1);
        }
        // A caller-owned state can only be reached from the previous
        // stage of the handoff.
        for w in visited.windows(2) {
            prop_assert!(w[0].can_transition(w[1]));
        }
    }
}

/// DES determinism under randomized workload mixes: two identical runs
/// produce identical reports (no hidden host-time dependence).
#[test]
fn des_randomized_workloads_are_deterministic() {
    use zc_des::ocall::CallDesc;
    use zc_des::{Mechanism, SimConfig, WorkloadSpec, ZcSimParams};

    let mut seed = 0x1234_5678u64;
    let mut rand = move || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        seed >> 33
    };
    for _ in 0..5 {
        let pattern: Vec<CallDesc> = (0..(rand() % 6 + 1))
            .map(|_| CallDesc {
                class: (rand() % 3) as usize,
                pre_compute_cycles: rand() % 5_000,
                host_cycles: rand() % 20_000,
                payload_bytes: rand() % 4_096,
                ret_bytes: rand() % 1_024,
                non_idempotent: false,
            })
            .collect();
        let callers = (rand() % 4 + 1) as usize;
        let workloads = vec![
            WorkloadSpec::ClosedLoop {
                pattern,
                total_ops: rand() % 2_000 + 100,
            };
            callers
        ];
        let cfg = SimConfig::new(Mechanism::Zc(ZcSimParams::default()), workloads, 3);
        let a = zc_des::run(&cfg);
        let b = zc_des::run(&cfg);
        assert_eq!(a.duration_cycles, b.duration_cycles);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.total_busy_cycles, b.total_busy_cycles);
        assert_eq!(
            a.counters.total_calls(),
            a.counters.ops_per_caller.iter().sum::<u64>(),
            "per-caller ops must add up"
        );
    }
}
