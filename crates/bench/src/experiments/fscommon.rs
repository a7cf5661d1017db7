//! Shared vocabulary for the filesystem-workload experiments
//! (kissdb, OpenSSL-substitute): call classes and mechanism builders.

use sgx_sim::hostfs::FsFuncs;
use switchless_core::FuncId;
use zc_des::ocall::intel::IntelSimConfig;
use zc_des::{Mechanism, ZcSimParams};

/// Class index of `fopen`.
pub const FOPEN: usize = 0;
/// Class index of `fclose`.
pub const FCLOSE: usize = 1;
/// Class index of `fseeko`.
pub const FSEEKO: usize = 2;
/// Class index of `fread`.
pub const FREAD: usize = 3;
/// Class index of `fwrite`.
pub const FWRITE: usize = 4;
/// Number of filesystem call classes.
pub const CLASS_COUNT: usize = 5;

/// Map a registered fs function id to its class index.
#[must_use]
pub fn class_of(func: FuncId, funcs: &FsFuncs) -> usize {
    if func == funcs.fopen {
        FOPEN
    } else if func == funcs.fclose {
        FCLOSE
    } else if func == funcs.fseeko {
        FSEEKO
    } else if func == funcs.fread {
        FREAD
    } else {
        FWRITE
    }
}

/// A labelled mechanism configuration (one line of a paper figure).
#[derive(Debug, Clone)]
pub struct NamedMechanism {
    /// Figure label (`no_sl`, `i-fseeko-2`, `zc`, …).
    pub label: String,
    /// The mechanism.
    pub mechanism: Mechanism,
}

/// Build the standard mechanism lineup for an fs experiment:
/// `no_sl`, one Intel configuration per entry of `intel_sets` (labelled
/// `i-<name>-<workers>`), and `zc`.
#[must_use]
pub fn lineup(intel_sets: &[(&str, Vec<usize>)], workers: usize) -> Vec<NamedMechanism> {
    let mut out = vec![NamedMechanism {
        label: "no_sl".into(),
        mechanism: Mechanism::NoSl,
    }];
    for (name, classes) in intel_sets {
        out.push(NamedMechanism {
            label: format!("i-{name}-{workers}"),
            mechanism: Mechanism::Intel(IntelSimConfig::new(workers, classes.iter().copied())),
        });
    }
    out.push(NamedMechanism {
        label: "zc".into(),
        mechanism: Mechanism::Zc(ZcSimParams::default()),
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use zc_workloads::efile::regular_fixture;

    #[test]
    fn class_mapping_is_total() {
        let (_fs, _d, funcs) = regular_fixture();
        assert_eq!(class_of(funcs.fopen, &funcs), FOPEN);
        assert_eq!(class_of(funcs.fclose, &funcs), FCLOSE);
        assert_eq!(class_of(funcs.fseeko, &funcs), FSEEKO);
        assert_eq!(class_of(funcs.fread, &funcs), FREAD);
        assert_eq!(class_of(funcs.fwrite, &funcs), FWRITE);
    }

    #[test]
    fn lineup_builds_labels() {
        let l = lineup(&[("fseeko", vec![FSEEKO]), ("frw", vec![FREAD, FWRITE])], 2);
        let labels: Vec<&str> = l.iter().map(|m| m.label.as_str()).collect();
        assert_eq!(labels, vec!["no_sl", "i-fseeko-2", "i-frw-2", "zc"]);
    }
}
