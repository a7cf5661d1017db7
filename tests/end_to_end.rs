//! Cross-crate integration tests: real workloads over real switchless
//! runtimes, exercising the full stack (workload → dispatcher → worker
//! threads → host filesystem) under every mechanism.

use std::sync::Arc;
use switchless_core::{
    CallPath, CpuSpec, Fault, FaultInjector, FaultPlan, FaultSchedule, IntelConfig,
    OcallDispatcher, OcallRequest, OcallTable, ZcConfig, MAX_OCALL_ARGS,
};
use zc_switchless_repro::intel_switchless::IntelSwitchless;
use zc_switchless_repro::sgx_sim::hostfs::FsFuncs;
use zc_switchless_repro::sgx_sim::{Enclave, HostFs};
use zc_switchless_repro::zc_switchless::ZcRuntime;
use zc_switchless_repro::zc_workloads::crypto::{self, Aes256};
use zc_switchless_repro::zc_workloads::{EnclaveIo, KissDb};

/// Small machine model so tests stay snappy on any host.
fn test_cpu() -> CpuSpec {
    let mut cpu = CpuSpec::paper_machine();
    cpu.logical_cpus = 4; // max 2 zc workers
    cpu
}

fn fixture() -> (HostFs, Arc<OcallTable>, FsFuncs, Enclave) {
    let fs = HostFs::new();
    let mut table = OcallTable::new();
    let funcs = FsFuncs::register(&mut table, &fs);
    (fs, Arc::new(table), funcs, Enclave::new(test_cpu()))
}

#[test]
fn kissdb_works_identically_under_all_mechanisms() {
    // The same workload must produce byte-identical database files no
    // matter which dispatcher carries the ocalls.
    let reference = {
        let (fs, table, funcs, enclave) = fixture();
        let disp = zc_switchless_repro::sgx_sim::RegularOcall::new(table, enclave);
        let io = EnclaveIo::new(&disp, funcs);
        let mut db = KissDb::open(io, "/db", 64, 8, 8).unwrap();
        for i in 0..300u64 {
            db.put(&i.to_le_bytes(), &(i * 3).to_le_bytes()).unwrap();
        }
        db.close().unwrap();
        fs.file_contents("/db").unwrap()
    };

    // Intel switchless.
    {
        let (fs, table, funcs, enclave) = fixture();
        let rt = IntelSwitchless::start(
            IntelConfig::new(1, [funcs.fseeko, funcs.fwrite]),
            table,
            enclave,
        )
        .unwrap();
        let io = EnclaveIo::new(&rt, funcs);
        let mut db = KissDb::open(io, "/db", 64, 8, 8).unwrap();
        for i in 0..300u64 {
            db.put(&i.to_le_bytes(), &(i * 3).to_le_bytes()).unwrap();
        }
        db.close().unwrap();
        assert_eq!(
            fs.file_contents("/db").unwrap(),
            reference,
            "intel-switchless run must produce an identical database"
        );
        rt.shutdown();
    }

    // ZC-SWITCHLESS.
    {
        let (fs, table, funcs, enclave) = fixture();
        let cfg = ZcConfig::for_cpu(test_cpu()).with_quantum_ms(5);
        let rt = ZcRuntime::start(cfg, table, enclave).unwrap();
        let io = EnclaveIo::new(&rt, funcs);
        let mut db = KissDb::open(io, "/db", 64, 8, 8).unwrap();
        for i in 0..300u64 {
            db.put(&i.to_le_bytes(), &(i * 3).to_le_bytes()).unwrap();
        }
        db.close().unwrap();
        assert_eq!(
            fs.file_contents("/db").unwrap(),
            reference,
            "zc-switchless run must produce an identical database"
        );
        rt.shutdown();
    }
}

#[test]
fn crypto_pipeline_round_trips_over_zc() {
    let (fs, table, funcs, enclave) = fixture();
    let plaintext: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
    fs.put_file("/plain", plaintext.clone());
    let cfg = ZcConfig::for_cpu(test_cpu()).with_quantum_ms(5);
    let rt = ZcRuntime::start(cfg, table, enclave).unwrap();
    let io = EnclaveIo::new(&rt, funcs);
    let aes = Aes256::new(&[3u8; crypto::KEY_SIZE]);
    let iv = [9u8; crypto::BLOCK];
    crypto::encrypt_file(&io, &aes, &iv, "/plain", "/ct", 4096).unwrap();
    crypto::decrypt_file(&io, &aes, &iv, "/ct", "/pt").unwrap();
    assert_eq!(fs.file_contents("/pt").unwrap(), plaintext);
    let snap = rt.stats().snapshot();
    assert!(snap.total_calls() > 50, "pipeline must issue many ocalls");
    rt.shutdown();
}

#[test]
fn concurrent_mixed_workload_over_zc_is_correct() {
    // Two threads: one kissdb writer, one crypto encryptor, sharing one
    // ZC runtime — the adaptive scheduler must not corrupt either.
    let (fs, table, funcs, enclave) = fixture();
    fs.put_file("/plain", vec![7u8; 50_000]);
    let cfg = ZcConfig::for_cpu(test_cpu()).with_quantum_ms(5);
    let rt = Arc::new(ZcRuntime::start(cfg, table, enclave).unwrap());

    std::thread::scope(|s| {
        let rt_db = Arc::clone(&rt);
        let db_thread = s.spawn(move || {
            let io = EnclaveIo::new(rt_db.as_ref(), funcs);
            let mut db = KissDb::open(io, "/db", 32, 8, 8).unwrap();
            for i in 0..500u64 {
                db.put(&i.to_le_bytes(), &(!i).to_le_bytes()).unwrap();
            }
            for i in (0..500u64).step_by(7) {
                assert_eq!(
                    db.get(&i.to_le_bytes()).unwrap(),
                    Some((!i).to_le_bytes().to_vec())
                );
            }
            db.close().unwrap();
        });
        let rt_enc = Arc::clone(&rt);
        let enc_thread = s.spawn(move || {
            let io = EnclaveIo::new(rt_enc.as_ref(), funcs);
            let aes = Aes256::new(&[1u8; crypto::KEY_SIZE]);
            let iv = [0u8; crypto::BLOCK];
            let (pin, _) = crypto::encrypt_file(&io, &aes, &iv, "/plain", "/ct", 2048).unwrap();
            assert_eq!(pin, 50_000);
        });
        db_thread.join().unwrap();
        enc_thread.join().unwrap();
    });
    rt.shutdown();
}

#[test]
fn fallback_paths_preserve_results() {
    // Force heavy fallback by exhausting the zc pools for the first 100
    // claimed calls' whole retry budget (1 + 3 forced allocations each);
    // payload integrity must hold on both the switchless and fallback
    // paths.
    let (fs, table, funcs, enclave) = fixture();
    let cfg = ZcConfig::for_cpu(test_cpu()).with_quantum_ms(5);
    let faults = Arc::new(FaultInjector::new(
        FaultPlan::new().inject(Fault::PoolExhaustion, FaultSchedule::first(400)),
    ));
    let rt = ZcRuntime::start_with_faults(cfg, table, enclave, faults).unwrap();
    let mut out = Vec::new();
    let (fd, _) = rt
        .dispatch(
            &OcallRequest::new(funcs.fopen, &[1]),
            b"/fallbacks",
            &mut out,
        )
        .unwrap();
    let mut fallbacks = 0;
    let mut written = Vec::new();
    for i in 0..200u32 {
        let payload = vec![i as u8; 512];
        written.extend_from_slice(&payload);
        let (ret, path) = rt
            .dispatch(
                &OcallRequest::new(funcs.fwrite, &[fd as u64]),
                &payload,
                &mut out,
            )
            .unwrap();
        assert_eq!(ret, 512);
        if path == CallPath::Fallback {
            fallbacks += 1;
        }
    }
    assert!(
        fallbacks > 0,
        "exhausted pools must exercise the fallback path"
    );
    assert_eq!(fs.file_contents("/fallbacks").unwrap(), written);
    rt.shutdown();
}

#[test]
fn payload_mix_pays_at_most_two_pool_growths_per_worker() {
    // The `zc_payload` mix: a worker buffer holds one live request, so
    // its pool wraps for free and reallocates only to grow, 64 B →
    // 4 KiB → 16 KiB at most. Whichever calls the scheduler sends down
    // the fallback path, no buffer can pay more than those two.
    let mut table = OcallTable::new();
    let echo = table.register(
        "echo",
        |_: &[u64; MAX_OCALL_ARGS], pin: &[u8], pout: &mut Vec<u8>| {
            pout.extend_from_slice(pin);
            pin.len() as i64
        },
    );
    let mut cpu = test_cpu();
    cpu.logical_cpus = 2; // one zc worker
    let cfg = ZcConfig::for_cpu(cpu);
    let rt = ZcRuntime::start(cfg, Arc::new(table), Enclave::new(cpu)).unwrap();
    let mut out = Vec::new();
    for i in 0..3_000usize {
        let payload = vec![i as u8; [64, 4096, 16384][i % 3]];
        let (ret, _) = rt
            .dispatch(&OcallRequest::new(echo, &[]), &payload, &mut out)
            .unwrap();
        assert_eq!(ret, payload.len() as i64);
        assert_eq!(out, payload, "call {i} corrupted its payload");
    }
    let reallocs = rt.stats().snapshot().pool_reallocs;
    assert!(
        reallocs <= 2 * cfg.max_workers() as u64,
        "{reallocs} pool reallocations for {} worker(s)",
        cfg.max_workers()
    );
    rt.shutdown();
}

#[test]
fn one_cpu_zc_runtime_completes_every_call_of_two_callers() {
    // One logical CPU: the worker cap is one, so the cap equals N — the
    // one configuration where every worker the scheduler deactivates is
    // the whole pool. Two callers contend for that worker while the
    // scheduler moves it between `Run` and `Deactivate`; each call must
    // still complete, switchless or by fallback, and the ledger balance.
    const CALLS: u64 = 10_000;
    let mut table = OcallTable::new();
    let echo = table.register(
        "echo",
        |_: &[u64; MAX_OCALL_ARGS], pin: &[u8], pout: &mut Vec<u8>| {
            pout.extend_from_slice(pin);
            pin.len() as i64
        },
    );
    let cpu = CpuSpec::paper_machine().with_logical_cpus(1);
    let cfg = ZcConfig::for_cpu(cpu);
    assert_eq!(cfg.max_workers(), cpu.logical_cpus);
    let rt = ZcRuntime::start(cfg, Arc::new(table), Enclave::new(cpu)).unwrap();
    std::thread::scope(|s| {
        for caller in 0..2u8 {
            let rt = &rt;
            s.spawn(move || {
                let mut out = Vec::new();
                for _ in 0..CALLS {
                    let (ret, _) = rt
                        .dispatch(&OcallRequest::new(echo, &[]), &[caller], &mut out)
                        .unwrap();
                    assert_eq!((ret, out.as_slice()), (1, &[caller][..]));
                }
            });
        }
    });
    let usage = rt.usage();
    assert!(usage.conserves(), "{usage:?}");
    assert_eq!(usage.completed, 2 * CALLS, "{usage:?}");
    rt.shutdown();
}

#[test]
fn intel_and_zc_stats_account_every_call() {
    let (_fs, table, funcs, enclave) = fixture();
    let intel = IntelSwitchless::start(
        IntelConfig::new(1, [funcs.fwrite]),
        Arc::clone(&table),
        enclave.clone(),
    )
    .unwrap();
    let mut out = Vec::new();
    let (fd, _) = intel
        .dispatch(&OcallRequest::new(funcs.fopen, &[1]), b"/a", &mut out)
        .unwrap();
    for _ in 0..50 {
        intel
            .dispatch(
                &OcallRequest::new(funcs.fwrite, &[fd as u64]),
                b"x",
                &mut out,
            )
            .unwrap();
    }
    intel
        .dispatch(
            &OcallRequest::new(funcs.fclose, &[fd as u64]),
            &[],
            &mut out,
        )
        .unwrap();
    let snap = intel.stats().snapshot();
    assert_eq!(snap.total_calls(), 52);
    assert_eq!(
        snap.regular, 2,
        "fopen/fclose are not switchless-configured"
    );
    intel.shutdown();
}
