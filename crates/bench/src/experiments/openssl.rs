//! Fig. 10 / §V-B: OpenSSL-substitute file encryption/decryption.
//!
//! Two enclave threads: one encrypts plaintext chunks (AES-256-CBC,
//! implemented from scratch in `zc-workloads`) and writes ciphertext, the
//! other decrypts ciphertext — `fopen`/`fread`/`fwrite`/`fclose` ocalls
//! around heavy in-enclave compute. Traces come from running the real
//! pipeline; AES work becomes the DES `pre_compute` of each `fwrite`.

use super::fscommon::{self, NamedMechanism};
use crate::table::{f2, f3, Table};
use zc_des::ocall::CallDesc;
use zc_des::{Mechanism, SimConfig, SimReport, WorkloadSpec};
use zc_workloads::crypto::{self, Aes256};
use zc_workloads::efile::{regular_fixture, EnclaveIo};
use zc_workloads::trace::{fs_trace_to_calls, HostCostModel, TraceRecorder};

/// Software AES-256 cost in cycles per byte (table-free implementation;
/// used as the in-enclave pre-compute of each chunk write).
pub const AES_CYCLES_PER_BYTE: u64 = 30;

/// Traces of the encrypt thread and the decrypt thread for a plaintext
/// file of `file_bytes`, processed in `chunk_bytes` reads.
#[must_use]
pub fn pipeline_traces(file_bytes: usize, chunk_bytes: usize) -> (Vec<CallDesc>, Vec<CallDesc>) {
    let (fs, disp, funcs) = regular_fixture();
    let plaintext: Vec<u8> = (0..file_bytes).map(|i| (i * 31 + 11) as u8).collect();
    fs.put_file("/plain", plaintext);
    let key = [0x42u8; crypto::KEY_SIZE];
    let aes = Aes256::new(&key);
    let iv = [7u8; crypto::BLOCK];

    let rec = TraceRecorder::new(disp);
    let io = EnclaveIo::new(&rec, funcs);
    crypto::encrypt_file(&io, &aes, &iv, "/plain", "/cipher", chunk_bytes).expect("encrypt");
    let enc_len = rec.len();
    crypto::decrypt_file(&io, &aes, &iv, "/cipher", "/restored").expect("decrypt");
    let full = rec.trace();
    let convert = |ops: &[zc_workloads::trace::TraceOp]| {
        fs_trace_to_calls(
            ops,
            &funcs,
            &HostCostModel::default(),
            |f| fscommon::class_of(f, &funcs),
            // AES work precedes each ciphertext/plaintext write.
            |op| {
                if op.func == funcs.fwrite {
                    op.payload_in as u64 * AES_CYCLES_PER_BYTE
                } else {
                    0
                }
            },
        )
    };
    (convert(&full[..enc_len]), convert(&full[enc_len..]))
}

/// The paper's Intel configurations for this benchmark plus `no_sl` and
/// `zc`.
#[must_use]
pub fn configs(workers: usize) -> Vec<NamedMechanism> {
    fscommon::lineup(
        &[
            ("fr", vec![fscommon::FREAD]),
            ("fw", vec![fscommon::FWRITE]),
            ("frw", vec![fscommon::FREAD, fscommon::FWRITE]),
            ("foc", vec![fscommon::FOPEN, fscommon::FCLOSE]),
            (
                "frwoc",
                vec![
                    fscommon::FREAD,
                    fscommon::FWRITE,
                    fscommon::FOPEN,
                    fscommon::FCLOSE,
                ],
            ),
        ],
        workers,
    )
}

/// Run the two-thread pipeline under one mechanism.
#[must_use]
pub fn run(enc: &[CallDesc], dec: &[CallDesc], mech: &NamedMechanism) -> SimReport {
    let workloads = vec![
        WorkloadSpec::ClosedLoop {
            pattern: enc.to_vec(),
            total_ops: enc.len() as u64,
        },
        WorkloadSpec::ClosedLoop {
            pattern: dec.to_vec(),
            total_ops: dec.len() as u64,
        },
    ];
    zc_des::run(&SimConfig::new(
        mech.mechanism.clone(),
        workloads,
        fscommon::CLASS_COUNT,
    ))
}

/// Fig. 10: runtime and CPU usage for every configuration.
#[must_use]
pub fn fig10(file_bytes: usize, chunk_bytes: usize, workers: usize) -> Table {
    let (enc, dec) = pipeline_traces(file_bytes, chunk_bytes);
    let mut table = Table::new(
        format!(
            "Fig 10: OpenSSL-substitute enc/dec of {} kB in {} B chunks, {workers} Intel workers",
            file_bytes / 1024,
            chunk_bytes
        ),
        &[
            "config",
            "runtime (s)",
            "%cpu",
            "switchless",
            "fallback",
            "regular",
        ],
    );
    for mech in configs(workers) {
        let r = run(&enc, &dec, &mech);
        table.row(vec![
            mech.label.clone(),
            f3(r.duration_secs()),
            f2(r.cpu_percent()),
            r.counters.switchless.to_string(),
            r.counters.fallback.to_string(),
            r.counters.regular.to_string(),
        ]);
    }
    table
}

/// §V-B residency: fraction of time the zc scheduler kept each worker
/// count (paper: 0/1/2/3/4 workers for 9.4/4.6/84.4/1.6/0 % of the run).
#[must_use]
pub fn zc_residency(file_bytes: usize, chunk_bytes: usize) -> Table {
    let (enc, dec) = pipeline_traces(file_bytes, chunk_bytes);
    let zc = NamedMechanism {
        label: "zc".into(),
        mechanism: Mechanism::Zc(zc_des::ZcSimParams::default()),
    };
    let r = run(&enc, &dec, &zc);
    let mut table = Table::new(
        "zc scheduler worker-count residency (paper §V-B)",
        &["workers", "% of lifetime"],
    );
    for (w, frac) in r.residency.fractions().iter().enumerate() {
        table.row(vec![w.to_string(), f2(frac * 100.0)]);
    }
    table
}

/// Emit Fig. 10 for 2 and 4 Intel workers and the §V-B zc residency
/// (`results/fig10_{openssl_{2,4}w,zc_residency}.csv`); `quick` shrinks
/// the paper's 8 MiB file and 16 KiB chunks.
pub fn emit(quick: bool) {
    let (file_bytes, chunk_bytes) = if quick {
        (256 * 1024, 4 * 1024)
    } else {
        (8 * 1024 * 1024, 16 * 1024)
    };
    for w in [2usize, 4] {
        fig10(file_bytes, chunk_bytes, w).emit(&format!("fig10_openssl_{w}w"));
    }
    zc_residency(file_bytes, chunk_bytes).emit("fig10_zc_residency");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_read_write_heavy_with_rare_opens() {
        let (enc, dec) = pipeline_traces(64 * 1024, 1024);
        for (name, t) in [("enc", &enc), ("dec", &dec)] {
            let opens = t.iter().filter(|c| c.class == fscommon::FOPEN).count();
            let reads = t.iter().filter(|c| c.class == fscommon::FREAD).count();
            let writes = t.iter().filter(|c| c.class == fscommon::FWRITE).count();
            assert_eq!(opens, 2, "{name}: one open per file");
            assert!(reads > 20 * opens, "{name}: reads must dwarf opens");
            assert!(writes > 10 * opens, "{name}: writes must dwarf opens");
        }
    }

    #[test]
    fn writes_carry_aes_pre_compute() {
        let (enc, _) = pipeline_traces(16 * 1024, 1024);
        let w = enc
            .iter()
            .find(|c| c.class == fscommon::FWRITE)
            .expect("has writes");
        assert!(
            w.pre_compute_cycles >= 1024 * AES_CYCLES_PER_BYTE,
            "AES work must precede writes: {}",
            w.pre_compute_cycles
        );
        let r = enc
            .iter()
            .find(|c| c.class == fscommon::FREAD)
            .expect("has reads");
        assert_eq!(r.pre_compute_cycles, 0);
    }

    #[test]
    fn zc_beats_the_misconfigured_foc() {
        let (enc, dec) = pipeline_traces(32 * 1024, 1024);
        let cfgs = configs(2);
        let find = |l: &str| cfgs.iter().find(|m| m.label == l).unwrap();
        let zc = run(&enc, &dec, find("zc"));
        let foc = run(&enc, &dec, find("i-foc-2"));
        assert!(
            zc.duration_cycles < foc.duration_cycles,
            "zc ({}) must beat i-foc-2 ({})",
            zc.duration_cycles,
            foc.duration_cycles
        );
    }

    #[test]
    fn residency_table_covers_all_counts() {
        let t = zc_residency(16 * 1024, 1024);
        assert_eq!(t.len(), 5, "0..=4 workers on the paper machine");
    }
}
