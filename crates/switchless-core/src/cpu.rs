//! Machine model: clock frequency, core count and SGX-specific costs.
//!
//! Every cost in this workspace is expressed in *CPU cycles* of the
//! modelled machine, so results are deterministic and comparable across
//! hosts. [`CpuSpec::paper_machine`] reproduces the evaluation machine of
//! the ZC-SWITCHLESS paper (§III, §V).

use serde::{Deserialize, Serialize};

/// Description of the (possibly simulated) machine running the enclave.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CpuSpec {
    /// Core clock frequency in Hz.
    pub freq_hz: u64,
    /// Number of logical CPUs (hardware threads).
    pub logical_cpus: usize,
    /// Cost of one enclave transition round trip (`T_es`), in cycles.
    ///
    /// The paper measures ~13 500 cycles on a Xeon E3-1275 v6 with SGX v1
    /// (§IV-A); regular ocalls cost one `T_es` relative to a switchless
    /// execution of the same host function.
    pub t_es_cycles: u64,
    /// Latency of one `asm("pause")`, in cycles (~140 on Skylake, §III-C).
    pub pause_cycles: u64,
}

impl CpuSpec {
    /// The machine used in the paper's evaluation: 4-core / 8-thread
    /// Xeon E3-1275 v6 at 3.8 GHz, `T_es` = 13 500, `pause` = 140.
    #[must_use]
    pub fn paper_machine() -> Self {
        CpuSpec {
            freq_hz: 3_800_000_000,
            logical_cpus: 8,
            t_es_cycles: 13_500,
            pause_cycles: 140,
        }
    }

    /// A machine spec matching the *host* core count but keeping the
    /// paper's SGX costs. Useful for running the real-thread runtime on
    /// arbitrary hardware.
    #[must_use]
    pub fn host_machine() -> Self {
        let cpus = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        CpuSpec {
            logical_cpus: cpus,
            ..Self::paper_machine()
        }
    }

    /// The same machine with a different logical CPU count (builder
    /// style). Derived quantities ([`CpuSpec::zc_max_workers`]) follow.
    /// Simulated machines may exceed the host: the DES kernel handles
    /// 128+ vCPUs.
    #[must_use]
    pub fn with_logical_cpus(mut self, logical_cpus: usize) -> Self {
        self.logical_cpus = logical_cpus.max(1);
        self
    }

    /// Convert a duration in milliseconds to cycles on this machine.
    #[must_use]
    pub fn quantum_cycles(&self, ms: u64) -> u64 {
        self.freq_hz / 1_000 * ms
    }

    /// Convert cycles to nanoseconds on this machine (rounded down).
    #[must_use]
    pub fn cycles_to_ns(&self, cycles: u64) -> u64 {
        // cycles * 1e9 / freq, computed without overflow for realistic
        // inputs (cycles < 2^53, freq >= 1 MHz).
        cycles.saturating_mul(1_000) / (self.freq_hz / 1_000_000)
    }

    /// Convert cycles to (fractional) seconds.
    #[must_use]
    pub fn cycles_to_secs(&self, cycles: u64) -> f64 {
        cycles as f64 / self.freq_hz as f64
    }

    /// The maximum worker-thread count the ZC scheduler will ever use:
    /// `N/2` where `N` is the logical CPU count (paper §IV-A).
    #[must_use]
    pub fn zc_max_workers(&self) -> usize {
        self.logical_cpus / 2
    }
}

impl Default for CpuSpec {
    fn default() -> Self {
        Self::paper_machine()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_machine_matches_published_numbers() {
        let cpu = CpuSpec::paper_machine();
        assert_eq!(cpu.freq_hz, 3_800_000_000);
        assert_eq!(cpu.logical_cpus, 8);
        assert_eq!(cpu.t_es_cycles, 13_500);
        assert_eq!(cpu.pause_cycles, 140);
        assert_eq!(cpu.zc_max_workers(), 4);
    }

    #[test]
    fn quantum_conversion() {
        let cpu = CpuSpec::paper_machine();
        // 10 ms at 3.8 GHz = 38 M cycles.
        assert_eq!(cpu.quantum_cycles(10), 38_000_000);
    }

    #[test]
    fn cycles_to_ns_rounds_down() {
        let cpu = CpuSpec::paper_machine();
        assert_eq!(cpu.cycles_to_ns(3_800_000), 1_000_000); // 1 ms
        assert_eq!(cpu.cycles_to_ns(3_799), 999);
    }

    #[test]
    fn cycles_to_secs_is_fractional() {
        let cpu = CpuSpec::paper_machine();
        let s = cpu.cycles_to_secs(3_800_000_000);
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn host_machine_uses_detected_cpus() {
        let cpu = CpuSpec::host_machine();
        assert!(cpu.logical_cpus >= 1);
        assert_eq!(cpu.t_es_cycles, CpuSpec::paper_machine().t_es_cycles);
    }

    #[test]
    fn default_is_paper_machine() {
        assert_eq!(CpuSpec::default(), CpuSpec::paper_machine());
    }
}
