//! End-to-end telemetry demo: run the real-thread ZC runtime **on
//! virtual time** under a bursty workload, then a DES simulation on the
//! paper machine, both reporting into one telemetry hub — and export
//! everything three ways:
//!
//! * `results/telemetry_report.jsonl` — one JSON object per event;
//! * `results/telemetry_report.prom` — Prometheus text exposition;
//! * `results/telemetry_report.trace.json` — Chrome `trace_event` JSON
//!   (load in `chrome://tracing` or Perfetto).
//!
//! Along the way it prints the scheduler's decision timeline — the
//! measured fallback counts `F_i` and derived costs `U_i` behind every
//! argmin — a per-function routing table built from the per-call
//! events with the SDK's "short + frequent" switchless recommendation
//! per function (the paper's §VII monitoring extension), and one call's
//! timeline across the planes, joined by its id
//! (the seed of ROADMAP [one-event]'s `zc-report`).
//!
//! Run with: `cargo run --release --example telemetry_report`

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;
use switchless_core::{
    CallPath, CpuSpec, Fault, FaultInjector, FaultPlan, FaultSchedule, OcallDispatcher,
    OcallRequest, OcallTable, ZcConfig,
};
use zc_switchless_repro::sgx_sim::Enclave;
use zc_switchless_repro::zc_switchless::ZcRuntime;
use zc_telemetry::export::{events_to_jsonl, to_chrome_trace, to_prometheus};
use zc_telemetry::{Event, Phase, RecordedEvent, Telemetry};

fn run_runtime(hub: &Arc<Telemetry>) -> Result<ZcRuntime, Box<dyn std::error::Error>> {
    println!("=== real threads on virtual time ===");
    let mut table = OcallTable::new();
    let enclave = Enclave::new_virtual(CpuSpec::paper_machine());
    let clock = enclave.clock();
    // The host functions cost modelled cycles by advancing the clock,
    // not by `spin_cycles`: a virtual spin also yields, and the
    // free-running scheduler thread would step the clock inside every
    // call's `execute` window.
    let c2 = clock.clone();
    let fast = table.register("fast_op", move |_: &[u64; 6], _: &[u8], _: &mut Vec<u8>| {
        c2.advance_cycles(2_000);
        0
    });
    let c3 = clock.clone();
    let slow = table.register("slow_op", move |_: &[u64; 6], _: &[u8], _: &mut Vec<u8>| {
        c3.advance_cycles(150_000);
        0
    });
    // Short quantum so several scheduling decisions land in the demo;
    // recovery on and one scripted enclave crash, so one call has a
    // story to tell in the timeline section.
    let cfg = ZcConfig::for_cpu(*enclave.spec())
        .with_quantum_ms(2)
        .with_recovery();
    let faults = Arc::new(FaultInjector::new(
        FaultPlan::new().inject(Fault::EnclaveCrash, FaultSchedule::at(1_500)),
    ));
    let zc = ZcRuntime::start_with_telemetry(
        cfg,
        Arc::new(table),
        enclave,
        Arc::clone(hub),
        Some(faults),
    )?;

    let mut out = Vec::new();
    for phase in 0..4 {
        let bursty = phase % 2 == 0;
        let mut ops = 0u64;
        if bursty {
            for i in 0..3_000u64 {
                let func = if i % 50 == 0 { slow } else { fast };
                let req = OcallRequest::new(func, &[i]).with_idempotent();
                zc.dispatch(&req, b"payload", &mut out)?;
                ops += 1;
            }
        } else {
            // Idle: let two quanta of virtual time pass with no calls.
            clock.advance_cycles(2 * zc.config().policy_params().quantum_cycles);
        }
        println!(
            "phase {phase} ({:5}): {ops:5} ocalls, active workers now: {}",
            if bursty { "burst" } else { "idle" },
            zc.active_workers()
        );
    }
    let report = zc.shutdown_with_timeout(Duration::from_secs(5));
    println!(
        "drained {} in-flight calls ({} abandoned)",
        report.drained, report.abandoned
    );
    // Hand the (stopped) runtime back so its metrics collector stays
    // registered until the final snapshot is taken.
    Ok(zc)
}

fn run_simulation(hub: &Arc<Telemetry>) {
    println!("\n=== deterministic simulator (paper machine) ===");
    use zc_switchless_repro::zc_des::ocall::CallDesc;
    use zc_switchless_repro::zc_des::{run, Mechanism, SimConfig, WorkloadSpec, ZcSimParams};

    let call = CallDesc {
        host_cycles: 3_000,
        ret_bytes: 8,
        ..CallDesc::default()
    };
    let cfg = SimConfig::new(
        Mechanism::Zc(ZcSimParams::default()),
        vec![
            WorkloadSpec::ClosedLoop {
                pattern: vec![call],
                total_ops: 50_000,
            };
            2
        ],
        1,
    )
    .with_telemetry(Arc::clone(hub));
    let r = run(&cfg);
    println!(
        "sim: {} calls in {:.3} virtual s, mean active workers {:.2}",
        r.counters.total_calls(),
        r.duration_secs(),
        r.mean_active_workers
    );
}

fn print_decisions(events: &[RecordedEvent]) {
    println!("\n--- scheduler decision timeline (F_i measured, U_i derived) ---");
    let mut n = 0;
    for ev in events {
        if let Event::Decision { decision } = &ev.event {
            n += 1;
            let f: Vec<u64> = decision.probes.iter().map(|p| p.fallbacks).collect();
            println!(
                "t={:>12}cyc [{}] chose M'={} | F_i={:?} U_i={:?}",
                ev.t_cycles,
                ev.origin.label(),
                decision.chosen_workers,
                f,
                decision.costs
            );
            if n >= 10 {
                println!("... (first 10 shown)");
                break;
            }
        }
    }
    if n == 0 {
        println!("(no completed configuration phase — run longer)");
    }
}

/// The per-function routing table, plus the build-time analysis the
/// paper argues developers cannot do by hand (§III-A), done from the
/// trace: the Intel SDK's guidance is to mark a routine switchless if
/// it is *short* (here: median `execute` phase at most `2 × T_es`, so a
/// switchless execution at least halves the per-call cost) and
/// *frequent* (at least 100 calls and 1 % of all calls). The median,
/// because on the virtual clock a scheduler step that lands inside a
/// call adds a whole (micro-)quantum to it.
fn print_call_table(events: &[RecordedEvent]) {
    println!("\n--- routed calls by function ---");
    // func -> (switchless, fallback, regular, total cycles, execute cycles per call)
    let mut rows: BTreeMap<u16, (u64, u64, u64, u64, Vec<u64>)> = BTreeMap::new();
    for ev in events {
        if let Event::CallPhases {
            func, path, phases, ..
        } = &ev.event
        {
            let row = rows.entry(*func).or_default();
            match path {
                CallPath::Switchless => row.0 += 1,
                CallPath::Fallback => row.1 += 1,
                CallPath::Regular => row.2 += 1,
            }
            row.3 = row.3.saturating_add(phases.iter().sum());
            row.4.push(phases[Phase::Execute.index()]);
        }
    }
    println!(
        "{:>6} {:>10} {:>10} {:>10} {:>12} {:>14}  SDK guidance",
        "func", "switchless", "fallback", "regular", "mean (cyc)", "p50 exec (cyc)"
    );
    let all_calls: usize = rows.values().map(|row| row.4.len()).sum();
    let t_es = CpuSpec::paper_machine().t_es_cycles;
    for (func, (s, f, r, cycles, execute)) in &mut rows {
        let calls = execute.len();
        execute.sort_unstable();
        let execute = execute[calls / 2];
        let guidance = if calls < 100 || calls * 100 < all_calls {
            "too rare to matter"
        } else if execute <= 2 * t_es {
            "switchless candidate"
        } else {
            "keep regular"
        };
        println!(
            "{func:>6} {s:>10} {f:>10} {r:>10} {:>12} {execute:>14}  {guidance}",
            *cycles / calls as u64
        );
    }
}

/// "Why was this call slow?" from the trace alone: every event one call
/// left, on whichever plane, found by its id. The call explained is the
/// one with the most to tell (most events under its id), the slowest
/// among equals.
fn print_call_timeline(events: &[RecordedEvent]) {
    println!("\n--- one call across the planes, joined by id ---");
    let mut by_id: BTreeMap<u64, Vec<&RecordedEvent>> = BTreeMap::new();
    for ev in events {
        if let Some(call) = ev.event.call_id() {
            by_id.entry(call).or_default().push(ev);
        }
    }
    let cycles = |ev: &RecordedEvent| match &ev.event {
        Event::CallPhases { phases, .. } => phases.iter().sum(),
        _ => 0u64,
    };
    let Some((call, timeline)) = by_id
        .iter()
        .max_by_key(|(_, evs)| (evs.len(), evs.iter().map(|e| cycles(e)).sum::<u64>()))
    else {
        println!("(no per-call event — run with a hub attached)");
        return;
    };
    println!(
        "call {call}: {} event(s) of {} calls traced",
        timeline.len(),
        by_id.len()
    );
    // The per-call event is recorded at completion and says how long
    // the call took, hence when it was admitted.
    if let Some(done) = timeline.iter().find(|ev| cycles(ev) > 0) {
        println!(
            "t={:>12}cyc [{}] admitted",
            done.t_cycles.saturating_sub(cycles(done)),
            done.origin.label()
        );
    }
    for ev in timeline {
        let what = match &ev.event {
            Event::CallPhases {
                func, path, phases, ..
            } => {
                let split: Vec<String> = Phase::ALL
                    .iter()
                    .map(|p| format!("{}={}", p.name(), phases[p.index()]))
                    .collect();
                format!(
                    "func {func} completed on the {path:?} path after {} cycles: {}",
                    cycles(ev),
                    split.join(" ")
                )
            }
            other => format!("{other:?}"),
        };
        println!("t={:>12}cyc [{}] {what}", ev.t_cycles, ev.origin.label());
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Room for the scheduler's free-running virtual-time steps on top
    // of one event per call.
    let hub = Telemetry::with_capacity(1 << 17);
    let _zc = run_runtime(&hub)?;
    run_simulation(&hub);

    let events = hub.tracer().drain();
    let snapshot = hub.metrics().snapshot();
    print_decisions(&events);
    print_call_table(&events);
    print_call_timeline(&events);

    let calls = events
        .iter()
        .filter(|e| matches!(e.event, Event::CallPhases { .. }))
        .count();
    println!(
        "\ncaptured {} events ({} completed calls, {} dropped)",
        events.len(),
        calls,
        hub.tracer().dropped()
    );

    std::fs::create_dir_all("results")?;
    std::fs::write("results/telemetry_report.jsonl", events_to_jsonl(&events))?;
    std::fs::write("results/telemetry_report.prom", to_prometheus(&snapshot))?;
    std::fs::write(
        "results/telemetry_report.trace.json",
        to_chrome_trace(&events, CpuSpec::paper_machine().freq_hz),
    )?;
    println!(
        "wrote results/telemetry_report.jsonl, .prom and .trace.json ({} metrics)",
        snapshot.entries.len()
    );
    Ok(())
}
