//! Error type shared by all switchless-call runtimes.

use crate::func::FuncId;
use crate::overload::ShedReason;
use std::fmt;

/// Errors returned by ocall dispatch and runtime management.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SwitchlessError {
    /// The requested function id has not been registered in the
    /// [`OcallTable`](crate::OcallTable).
    UnknownFunc(FuncId),
    /// The runtime has been stopped; no further calls are accepted.
    RuntimeStopped,
    /// A caller-side buffer exceeded the untrusted pool's slot capacity.
    PayloadTooLarge {
        /// Requested payload size in bytes.
        requested: usize,
        /// Maximum supported payload size in bytes.
        capacity: usize,
    },
    /// Configuration rejected (e.g. zero workers for the Intel baseline
    /// with a non-empty switchless set).
    InvalidConfig(String),
    /// The enclave transition machinery failed and bounded retries were
    /// exhausted. Only produced under fault injection
    /// ([`Fault::TransitionFailure`](crate::Fault::TransitionFailure)).
    TransitionFailed {
        /// Transition attempts made, including the retries.
        attempts: u32,
    },
    /// The call was refused by the overload-control plane instead of
    /// being queued (see [`crate::overload`]). Retryable: the caller
    /// may back off and resubmit, ideally with a fresh deadline.
    Overloaded {
        /// Which admission check shed the call.
        reason: ShedReason,
    },
    /// The enclave died with this call in flight and the call is not
    /// idempotent: whether the host function executed is unknowable, so
    /// the recovery plane refuses it rather than guessing (see
    /// [`crate::recovery`]). Unlike a watchdog timeout this is *typed*
    /// loss: clients can distinguish retry-safe loss (idempotent calls
    /// are replayed transparently and never surface this) from
    /// execution-unknown loss, which needs an application-level check
    /// before any retry.
    EnclaveLost {
        /// Sequence tag of the in-flight call, for correlation with the
        /// intent journal and telemetry.
        in_flight_seq: u64,
    },
}

impl fmt::Display for SwitchlessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwitchlessError::UnknownFunc(id) => {
                write!(f, "unknown ocall function id {id}")
            }
            SwitchlessError::RuntimeStopped => write!(f, "switchless runtime stopped"),
            SwitchlessError::PayloadTooLarge {
                requested,
                capacity,
            } => write!(
                f,
                "ocall payload of {requested} bytes exceeds pool slot capacity {capacity}"
            ),
            SwitchlessError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SwitchlessError::TransitionFailed { attempts } => {
                write!(f, "enclave transition failed after {attempts} attempts")
            }
            SwitchlessError::Overloaded { reason } => {
                write!(f, "call shed by overload control: {}", reason.name())
            }
            SwitchlessError::EnclaveLost { in_flight_seq } => {
                write!(
                    f,
                    "enclave lost with non-idempotent call {in_flight_seq} in flight; execution state unknown"
                )
            }
        }
    }
}

impl std::error::Error for SwitchlessError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = SwitchlessError::UnknownFunc(FuncId(42));
        assert_eq!(e.to_string(), "unknown ocall function id 42");
        let e = SwitchlessError::PayloadTooLarge {
            requested: 100,
            capacity: 64,
        };
        assert!(e.to_string().contains("100"));
        assert!(e.to_string().contains("64"));
    }

    #[test]
    fn enclave_lost_carries_the_in_flight_seq() {
        let e = SwitchlessError::EnclaveLost { in_flight_seq: 41 };
        assert!(e.to_string().contains("41"));
        assert!(e.to_string().contains("unknown"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SwitchlessError>();
    }
}
