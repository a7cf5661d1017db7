//! Watch the ZC scheduler adapt: a load that alternates between bursts
//! and idle phases while we sample the scheduler's worker count — the
//! behaviour that static Intel configurations cannot express.
//!
//! Also demonstrates the deterministic simulator on the same scenario,
//! where the full 8-core machine of the paper is available.
//!
//! Run with: `cargo run --release --example adaptive_workload`

use std::sync::Arc;
use switchless_core::{CpuSpec, OcallDispatcher, OcallRequest, OcallTable, ZcConfig};
use zc_switchless_repro::sgx_sim::{Enclave, HostFs};
use zc_switchless_repro::zc_switchless::ZcRuntime;

fn real_runtime_demo() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== real threads (host machine) ===");
    let fs = HostFs::new();
    let mut table = OcallTable::new();
    let funcs = zc_switchless_repro::sgx_sim::hostfs::FsFuncs::register(&mut table, &fs);
    let enclave = Enclave::new(CpuSpec::host_machine());
    // Fast quantum so adaptation is visible in a short demo.
    let cfg = ZcConfig::for_cpu(*enclave.spec()).with_quantum_ms(5);
    let zc = ZcRuntime::start(cfg, Arc::new(table), enclave)?;

    let mut out = Vec::new();
    let (fd, _) = zc.dispatch(
        &OcallRequest::new(funcs.fopen, &[1]),
        b"/burst.log",
        &mut out,
    )?;
    for phase in 0..4 {
        let bursty = phase % 2 == 0;
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(60);
        let mut ops = 0u64;
        while std::time::Instant::now() < deadline {
            if bursty {
                zc.dispatch(
                    &OcallRequest::new(funcs.fwrite, &[fd as u64]),
                    b"burst data",
                    &mut out,
                )?;
                ops += 1;
            } else {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        }
        println!(
            "phase {phase} ({:5}): {ops:6} ocalls, active workers now: {}",
            if bursty { "burst" } else { "idle" },
            zc.active_workers()
        );
    }
    zc.dispatch(
        &OcallRequest::new(funcs.fclose, &[fd as u64]),
        &[],
        &mut out,
    )?;
    println!("residency fractions: {:?}", zc.residency().fractions());
    zc.shutdown();
    Ok(())
}

fn simulator_demo() {
    println!("\n=== deterministic simulator (paper's 8-core machine) ===");
    use zc_des::ocall::CallDesc;
    use zc_des::workload::PhasedLoad;
    use zc_des::{Mechanism, SimConfig, WorkloadSpec, ZcSimParams};

    let cpu = CpuSpec::paper_machine();
    let call = CallDesc {
        host_cycles: 3_000,
        ret_bytes: 8,
        ..CallDesc::default()
    };
    // 3 × 1 s phases (doubling, constant, halving), 100 ms periods.
    let load = PhasedLoad::dynamic(call, cpu.freq_hz, 1, 100, 1_000);
    // Two callers: the wasted-cycle objective U = F*T_es + M*T only
    // favours workers when concurrent fallbacks outweigh a pinned core,
    // which needs more than one enclave thread (see DESIGN.md).
    let report = zc_des::run(
        &SimConfig::new(
            Mechanism::Zc(ZcSimParams::default()),
            vec![
                WorkloadSpec::Phased(load.clone()),
                WorkloadSpec::Phased(load),
            ],
            1,
        )
        .with_sampling(cpu.freq_hz / 2),
    );
    println!(
        "3 s dynamic load: {} calls ({} switchless, {} fallback)",
        report.counters.total_calls(),
        report.counters.switchless,
        report.counters.fallback
    );
    println!("mean active workers: {:.2}", report.mean_active_workers);
    println!("machine CPU usage:   {:.1} %", report.cpu_percent());
    let fr = report.residency.fractions();
    for (w, f) in fr.iter().enumerate() {
        println!("  {w} workers for {:5.1} % of the run", f * 100.0);
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    real_runtime_demo()?;
    simulator_demo();
    Ok(())
}
