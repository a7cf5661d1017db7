//! Per-layer probes: single-threaded micro-timings of each crate's
//! public functions (median of 30 batches of 10 000 calls, inputs and
//! results through `black_box`), and the paired plane-cost runs. They
//! supersede the criterion benches in `crates/bench/benches/`.
//!
//! Probes never run beside a workload: a single extra busy thread on a
//! two-core host costs the nop hand-off an order of magnitude.

use crate::harness::{self, Instance};
use crate::real::{self, Ctx, Planes};
use crate::report::Findings;
use crate::stats;
use sgx_sim::tlibc::{memcpy_vanilla, memcpy_zc};
use sgx_sim::{Alignment, CycleClock, Enclave, HostFs, MemcpyKind, RegularOcall, UntrustedArena};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use switchless_core::fleet::{FleetAllocator, FleetParams, TenantDemand};
use switchless_core::overload::{OverloadPlane, Priority};
use switchless_core::policy::{PolicyParams, SchedulerPolicy};
use switchless_core::recovery::{IdempotencyClass, RecoveryPlane};
use switchless_core::supervise::{SuperviseParams, Supervisor};
use switchless_core::{
    CallPath, CallStats, CpuSpec, OcallDispatcher, OcallRequest, OcallTable, OverloadParams,
    RecoveryParams, ReplyGuard, SharedWordGuard, SplitMix64, WorkerState, MAX_OCALL_ARGS,
};
use zc_des::arrival::{ArrivalGen, ArrivalProcess};
use zc_des::ocall::CallDesc;
use zc_des::{KernelMode, Mechanism, SimConfig, WorkloadSpec, ZcSimParams};
use zc_telemetry::{CallPhaseProfiler, Event, MetricsRegistry, Origin, Tracer};

const BATCHES: usize = 30;
const CALLS: usize = 10_000;

/// Median over batches of the mean time of one `f()` in ns.
fn probe(mut f: impl FnMut()) -> f64 {
    let per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..CALLS {
                f();
            }
            t0.elapsed().as_nanos() as f64 / CALLS as f64
        })
        .collect();
    stats::median(&per_call).expect("BATCHES > 0")
}

/// Cost of one `Instant::now()` (every op timing includes two).
#[must_use]
pub fn timer_ns() -> f64 {
    probe(|| {
        black_box(Instant::now());
    })
}

/// Every probe cheap enough to follow any traced run (a few seconds in
/// all): `switchless-core`, `sgx-sim`, `zc-telemetry` and the arrival
/// generator.
pub fn cheap_probes(out: &mut Findings) {
    switchless_core_probes(out);
    sgx_sim_probes(out);
    telemetry_probes(out);
    let mut gen = ArrivalGen::new(
        ArrivalProcess::Mmpp {
            calm_gap_cycles: 3_000,
            burst_gap_cycles: 500,
            calm_dwell_cycles: 2_000_000,
            burst_dwell_cycles: 1_000_000,
        },
        7,
    );
    out.layer(
        "zc-des.arrival.gen_ns",
        probe(|| {
            black_box(gen.next_arrival());
        }),
    );
}

fn switchless_core_probes(out: &mut Findings) {
    let cpu = real::machine();

    // What one switchless call validates on the trusted side.
    let (guard, reply) = (SharedWordGuard, ReplyGuard::new(1 << 20));
    let mut seq = 0u64;
    out.layer(
        "switchless-core.guard.check_ns",
        probe(|| {
            seq += 1;
            let state = guard.decode_status(black_box(WorkerState::Waiting.as_u8()));
            let edge =
                guard.check_transition(black_box(WorkerState::Reserved), WorkerState::Processing);
            let len = reply.check_reply(black_box(64), black_box(64));
            let tag = reply.check_sequence(black_box(seq), black_box(seq));
            black_box((state.is_ok(), edge.is_ok(), len.is_ok(), tag.is_ok()));
        }),
    );

    let stats = CallStats::new();
    out.layer(
        "switchless-core.stats.record_ns",
        probe(|| {
            stats.record_issued();
            stats.record_switchless();
        }),
    );
    out.layer(
        "switchless-core.stats.snapshot_ns",
        probe(|| {
            black_box(stats.snapshot());
        }),
    );

    let plane = OverloadPlane::new(OverloadParams::for_cpu(&cpu).with_bucket(1 << 20, 1));
    let mut now = 0u64;
    out.layer(
        "switchless-core.overload.admit_ns",
        probe(|| {
            now += 4_000;
            let admission = plane.admit(black_box(now), Priority::Normal, None);
            assert!(
                admission.outcome.is_ok(),
                "the probe's bucket never runs dry"
            );
            drop(admission);
            black_box(plane.on_success(now));
        }),
    );

    let journal = RecoveryPlane::new(RecoveryParams::for_cpu(cpu));
    out.layer(
        "switchless-core.recovery.journal_ns",
        probe(|| {
            let seq = journal.next_seq();
            black_box(journal.record_intent(seq, IdempotencyClass::Idempotent));
            black_box(journal.record_completion(seq, 1, 0));
            black_box(journal.retire(seq));
        }),
    );

    let mut policy = SchedulerPolicy::new(PolicyParams::from_cpu(&CpuSpec::paper_machine()), 4);
    let mut fallbacks = 0u64;
    out.layer(
        "switchless-core.policy.step_ns",
        probe(|| {
            fallbacks = (fallbacks + 7) % 50;
            black_box(policy.next(black_box(fallbacks)));
        }),
    );

    let mut supervisor = Supervisor::new(4, SuperviseParams::for_cpu(cpu));
    let mut now = 0u64;
    out.layer(
        "switchless-core.supervise.poll_ns",
        probe(|| {
            now += 380_000;
            black_box(supervisor.poll(black_box(now)));
        }),
    );

    let params = FleetParams::new(PolicyParams::from_cpu(&CpuSpec::paper_machine()), 16);
    let mut allocator = FleetAllocator::new(params, 4);
    let demands: Vec<TenantDemand> = [
        (1_000u64, 400u64),
        (40_000, 9_000),
        (2_000, 300),
        (2_000, 350),
    ]
    .iter()
    .map(|&(offered, f0)| TenantDemand::new(1, offered, vec![f0, f0 / 4, f0 / 16, f0 / 64, 0]))
    .collect();
    out.layer(
        "switchless-core.fleet.decide_ns",
        probe(|| {
            black_box(allocator.decide(black_box(&demands)));
        }),
    );

    let mut rng = SplitMix64::new(1);
    out.layer(
        "switchless-core.rand.next_ns",
        probe(|| {
            black_box(rng.next_u64());
        }),
    );
}

fn sgx_sim_probes(out: &mut Findings) {
    let cpu = real::machine();
    let clock = CycleClock::new(cpu);
    out.layer(
        "sgx-sim.clock.now_ns",
        probe(|| {
            black_box(clock.now_cycles());
        }),
    );
    let nominal_ns = cpu.cycles_to_ns(cpu.t_es_cycles) as f64;
    let spin_ns = probe(|| clock.spin_cycles(black_box(cpu.t_es_cycles)));
    out.layer(
        "sgx-sim.clock.spin_overshoot_ratio",
        spin_ns / nominal_ns - 1.0,
    );

    let mut table = OcallTable::new();
    let nop = table.register(
        "nop",
        |args: &[u64; MAX_OCALL_ARGS], _: &[u8], _: &mut Vec<u8>| args[0] as i64 + 1,
    );
    let table = Arc::new(table);
    let req = OcallRequest::new(nop, &[1]);
    let mut reply = Vec::new();
    // The modelled rung (T_es injected) and the native rung under it.
    let regular = RegularOcall::new(Arc::clone(&table), Enclave::new(cpu));
    out.layer(
        "sgx-sim.transition.regular_ns",
        probe(|| {
            black_box(regular.dispatch(black_box(&req), &[], &mut reply))
                .expect("nop is registered");
        }),
    );
    let marshal = RegularOcall::new(table, Enclave::new(cpu)).without_cost_injection();
    out.layer(
        "sgx-sim.transition.marshal_ns",
        probe(|| {
            black_box(marshal.dispatch(black_box(&req), &[], &mut reply))
                .expect("nop is registered");
        }),
    );

    // 8-aligned views, so "aligned" and "unaligned" mean what they say
    // whatever the allocator returns.
    let src_buf = vec![0x5au8; 16_384 + 16];
    let src = &src_buf[src_buf.as_ptr().align_offset(8)..];
    let mut dst_buf = vec![0u8; 16_384 + 16];
    let offset = dst_buf.as_ptr().align_offset(8);
    let dst = &mut dst_buf[offset..];
    for len in [64usize, 4096, 16_384] {
        out.layer(
            &format!("sgx-sim.tlibc.memcpy_zc_ns.{len}"),
            probe(|| {
                memcpy_zc(black_box(&mut dst[..len]), black_box(&src[..len]));
            }),
        );
    }
    out.layer(
        "sgx-sim.tlibc.memcpy_vanilla_ns.4096.aligned",
        probe(|| {
            memcpy_vanilla(black_box(&mut dst[..4096]), black_box(&src[..4096]));
        }),
    );
    out.layer(
        "sgx-sim.tlibc.memcpy_vanilla_ns.4096.unaligned",
        probe(|| {
            memcpy_vanilla(black_box(&mut dst[1..4097]), black_box(&src[..4096]));
        }),
    );

    let mut arena = UntrustedArena::new(64 * 1024);
    out.layer(
        "sgx-sim.memory.stage_in_ns.4096",
        probe(|| {
            black_box(arena.stage_in(black_box(&src[..4096]), MemcpyKind::Zc, Alignment::Aligned));
        }),
    );
    let mut trusted = Vec::new();
    out.layer(
        "sgx-sim.memory.stage_out_ns.4096",
        probe(|| {
            UntrustedArena::stage_out(black_box(&src[..4096]), &mut trusted, MemcpyKind::Zc);
            black_box(&trusted);
        }),
    );

    let fs = HostFs::new();
    let fd = fs
        .open("/probe", sgx_sim::hostfs::OpenMode::ReadWrite)
        .expect("ReadWrite creates");
    let mut buf = Vec::new();
    out.layer(
        "sgx-sim.hostfs.rw_ns",
        probe(|| {
            let ok = fs.seek(fd, 0, sgx_sim::hostfs::Whence::Set).is_ok()
                && fs.write(fd, black_box(&src[..64])).is_ok()
                && fs.seek(fd, 0, sgx_sim::hostfs::Whence::Set).is_ok()
                && fs.read(fd, 64, &mut buf).is_ok();
            assert!(black_box(ok), "in-memory file ops cannot fail");
        }),
    );
}

fn telemetry_probes(out: &mut Findings) {
    let event = || Event::CallRouted {
        func: 1,
        path: CallPath::Switchless,
        start_cycles: 1_000,
        duration_cycles: 4_500,
    };
    // Push into a ring with room, drain outside the timing.
    let tracer = Tracer::with_capacity(CALLS.next_power_of_two());
    let mut push = Vec::with_capacity(BATCHES);
    let mut drain = Vec::with_capacity(BATCHES);
    let mut drained = Vec::new();
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        for i in 0..CALLS {
            black_box(tracer.record(i as u64, Origin::Caller(0), event()));
        }
        push.push(t0.elapsed().as_nanos() as f64 / CALLS as f64);
        let t0 = Instant::now();
        drained = tracer.drain();
        drain.push(t0.elapsed().as_nanos() as f64 / drained.len().max(1) as f64);
    }
    out.layer(
        "zc-telemetry.ring.push_ns",
        stats::median(&push).expect("BATCHES > 0"),
    );
    out.layer(
        "zc-telemetry.ring.drain_ns_per_event",
        stats::median(&drain).expect("BATCHES > 0"),
    );

    let full = Tracer::with_capacity(2);
    while full.record(0, Origin::Scheduler, event()) {}
    out.layer(
        "zc-telemetry.ring.push_full_ns",
        probe(|| {
            black_box(full.record(0, Origin::Scheduler, event()));
        }),
    );

    let hist = MetricsRegistry::new().histogram("probe");
    let mut v = 1u64;
    out.layer(
        "zc-telemetry.hist.record_ns",
        probe(|| {
            v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            hist.record(black_box(v >> 44));
        }),
    );

    let profiler = CallPhaseProfiler::new();
    let phases = [600, 120, 80, 2_400, 900, 400];
    out.layer(
        "zc-telemetry.profile.record_call_ns",
        probe(|| {
            profiler.record_call(CallPath::Switchless, black_box(4_500), black_box(&phases));
        }),
    );

    let mut i = 0;
    out.layer(
        "zc-telemetry.export.jsonl_ns_per_event",
        probe(|| {
            i = (i + 1) % drained.len();
            black_box(zc_telemetry::export::event_jsonl_line(
                black_box(&drained[i]),
                true,
            ));
        }),
    );
}

/// Median segment p50 over one second of closed-loop nop calls on a
/// fresh ZC runtime with `planes` on.
fn nop_p50(planes: Planes) -> f64 {
    let ctx = Ctx {
        seed: 1,
        spans: None,
    };
    let mut p50 = 0.0;
    real::zc_nop_with(&ctx, planes, &mut |inst: &mut dyn Instance| {
        let mut rng = SplitMix64::new(1);
        harness::warm_up(inst, &mut rng, 20_000);
        let (_, segments) =
            harness::measure(inst, &mut rng, harness::SEGMENTS_PER_SECOND, 20_000, None);
        let p50s: Vec<f64> = segments.iter().map(harness::Segment::p50_ns).collect();
        p50 = stats::median(&p50s).expect("a second of segments");
    });
    p50
}

/// Marginal hot-path cost of each robustness plane: rounds of one-second
/// nop runs, each round running the bare runtime and every plane
/// configuration once (bare first in even rounds, last in odd ones, so
/// drift cancels); a plane's cost is the median over rounds of its p50
/// minus the same round's bare p50.
pub fn plane_costs(out: &mut Findings, quick: bool) {
    let configs: [(&str, Planes); 5] = [
        (
            "telemetry",
            Planes {
                telemetry: true,
                ..Planes::default()
            },
        ),
        (
            "overload",
            Planes {
                overload: true,
                ..Planes::default()
            },
        ),
        (
            "recovery",
            Planes {
                recovery: true,
                ..Planes::default()
            },
        ),
        (
            "supervision",
            Planes {
                supervision: true,
                ..Planes::default()
            },
        ),
        ("all", Planes::ALL),
    ];
    let rounds = if quick { 1 } else { 5 };
    let mut bare = Vec::with_capacity(rounds);
    let mut costs: Vec<Vec<f64>> = vec![Vec::with_capacity(rounds); configs.len()];
    for round in 0..rounds {
        let bare_first = round % 2 == 0;
        let mut base = if bare_first {
            nop_p50(Planes::default())
        } else {
            0.0
        };
        let with: Vec<f64> = configs.iter().map(|(_, planes)| nop_p50(*planes)).collect();
        if !bare_first {
            base = nop_p50(Planes::default());
        }
        bare.push(base);
        for (cost, p50) in costs.iter_mut().zip(with) {
            cost.push(p50 - base);
        }
    }
    out.layer(
        "zc-switchless.plane_cost_ns.bare_p50",
        stats::median(&bare).expect("rounds > 0"),
    );
    for ((name, _), cost) in configs.iter().zip(&costs) {
        out.layer(
            &format!("zc-switchless.plane_cost_ns.{name}"),
            stats::median(cost).expect("rounds > 0"),
        );
    }
}

/// The closed-loop scenario of `BENCH_des_throughput.json` on the event
/// kernel (128 vCPUs, 256 callers, 13 us host calls), in full mode: 10^6
/// simulated calls a run, median of three runs.
pub fn event_closed(out: &mut Findings, quick: bool) {
    let ops = if quick { 40 } else { 3_907 };
    let call = CallDesc {
        host_cycles: 50_000,
        ret_bytes: 8,
        ..CallDesc::default()
    };
    let config = SimConfig::new(
        Mechanism::Zc(ZcSimParams::default()),
        vec![
            WorkloadSpec::ClosedLoop {
                pattern: vec![call],
                total_ops: ops,
            };
            256
        ],
        1,
    )
    .with_vcpus(128)
    .with_kernel_mode(KernelMode::EventDriven);
    let rates: Vec<f64> = (0..if quick { 1 } else { 3 })
        .map(|_| {
            let t0 = Instant::now();
            let report = zc_des::run(&config);
            let calls = report.counters.total_calls();
            assert_eq!(calls, ops * 256, "the event kernel lost calls");
            calls as f64 / t0.elapsed().as_secs_f64()
        })
        .collect();
    out.layer(
        "zc-des.event.closed.sim_calls_per_s",
        stats::median(&rates).expect("at least one run"),
    );
}
