//! Ocall function identifiers, request/reply structures and the host
//! function table.
//!
//! An *ocall* asks the untrusted runtime to execute a host function on
//! behalf of enclave code. Requests use a compact plain-old-data layout
//! ([`OcallRequest`]) so they can be copied through shared untrusted
//! memory exactly like the C structures in the Intel SDK and the paper's
//! implementation: a function identifier, up to [`MAX_OCALL_ARGS`] scalar
//! arguments, and an optional byte payload (e.g. a write buffer).

use crate::error::SwitchlessError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Maximum number of scalar (register-sized) ocall arguments.
pub const MAX_OCALL_ARGS: usize = 6;

/// Identifier of a registered host function.
///
/// Obtained from [`OcallTable::register`]; stable for the lifetime of the
/// table.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct FuncId(pub u16);

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u16> for FuncId {
    fn from(v: u16) -> Self {
        FuncId(v)
    }
}

/// A switchless/regular ocall request: plain-old-data, copyable through
/// untrusted shared memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OcallRequest {
    /// Which registered host function to invoke.
    pub func: FuncId,
    /// Scalar arguments (semantics defined by the host function).
    pub args: [u64; MAX_OCALL_ARGS],
    /// Per-call monotonic sequence tag stamped by the dispatcher. An
    /// honest worker echoes it into [`OcallReply::seq`]; a stale or
    /// replayed reply carries a different tag and is discarded by the
    /// trusted-side guard (see [`crate::guard::ReplyGuard`]).
    pub seq: u64,
    /// Absolute expiry cycle of the call's deadline budget, or 0 for no
    /// deadline. Consulted only by the caller-side admission check
    /// ([`crate::overload`]); workers never read it.
    pub deadline_cycles: u64,
    /// Caller-declared replay safety: `true` when re-executing the
    /// call after an enclave loss is observably equivalent to one
    /// execution. Defaults to `false` (non-idempotent), so unknown
    /// calls are refused rather than replayed — see
    /// [`crate::recovery::IdempotencyClass`].
    pub idempotent: bool,
}

impl OcallRequest {
    /// Build a request with the given function and arguments.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_OCALL_ARGS`] arguments are supplied.
    #[must_use]
    pub fn new(func: FuncId, args: &[u64]) -> Self {
        assert!(
            args.len() <= MAX_OCALL_ARGS,
            "at most {MAX_OCALL_ARGS} ocall arguments supported, got {}",
            args.len()
        );
        let mut a = [0u64; MAX_OCALL_ARGS];
        a[..args.len()].copy_from_slice(args);
        OcallRequest {
            func,
            args: a,
            seq: 0,
            deadline_cycles: 0,
            idempotent: false,
        }
    }

    /// Builder-style sequence tag (dispatchers stamp one per call).
    #[must_use]
    pub fn with_seq(mut self, seq: u64) -> Self {
        self.seq = seq;
        self
    }

    /// Builder-style absolute deadline (expiry cycle on the machine
    /// clock; calls arriving after it are shed by admission).
    #[must_use]
    pub fn with_deadline_at(mut self, expires_at_cycles: u64) -> Self {
        self.deadline_cycles = expires_at_cycles;
        self
    }

    /// Builder-style declaration that the call is safe to replay after
    /// an enclave loss.
    #[must_use]
    pub fn with_idempotent(mut self) -> Self {
        self.idempotent = true;
        self
    }

    /// The call's recovery class, from the caller's declaration.
    #[must_use]
    pub fn idempotency_class(&self) -> crate::recovery::IdempotencyClass {
        if self.idempotent {
            crate::recovery::IdempotencyClass::Idempotent
        } else {
            crate::recovery::IdempotencyClass::NonIdempotent
        }
    }

    /// The call's deadline, if it carries one.
    #[must_use]
    pub fn deadline(&self) -> Option<crate::overload::Deadline> {
        (self.deadline_cycles > 0).then_some(crate::overload::Deadline {
            expires_at_cycles: self.deadline_cycles,
        })
    }
}

/// Reply written back by the worker or regular-ocall path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct OcallReply {
    /// Host function return value (errno-style: negative on failure).
    pub ret: i64,
    /// Number of payload bytes produced by the host function. Host-
    /// written: the guard cross-checks it against the bytes actually
    /// present before any copy-back.
    pub payload_len: u32,
    /// Echo of [`OcallRequest::seq`]; a mismatch marks the reply stale
    /// or replayed and the call re-routes through the fallback.
    pub seq: u64,
}

/// A host function executed in the untrusted runtime.
///
/// `args` are the scalar arguments from the request; `payload_in` holds
/// caller-supplied bytes already copied to untrusted memory; any produced
/// bytes are appended to `payload_out` (cleared by the dispatcher before
/// the call). The return value travels back in [`OcallReply::ret`].
pub trait HostFn: Send + Sync {
    /// Execute the host-side operation.
    fn call(
        &self,
        args: &[u64; MAX_OCALL_ARGS],
        payload_in: &[u8],
        payload_out: &mut Vec<u8>,
    ) -> i64;

    /// Human-readable name for diagnostics (e.g. `"fwrite"`).
    fn name(&self) -> &str {
        "<anonymous>"
    }
}

impl<F> HostFn for F
where
    F: Fn(&[u64; MAX_OCALL_ARGS], &[u8], &mut Vec<u8>) -> i64 + Send + Sync,
{
    fn call(
        &self,
        args: &[u64; MAX_OCALL_ARGS],
        payload_in: &[u8],
        payload_out: &mut Vec<u8>,
    ) -> i64 {
        self(args, payload_in, payload_out)
    }
}

struct Entry {
    name: String,
    f: Box<dyn HostFn>,
}

/// Registry of host functions addressable by [`FuncId`].
///
/// Populated before the runtime starts (registration is `&mut self`), then
/// shared immutably with worker threads — mirroring how EDL-generated
/// ocall tables are fixed at build time in the Intel SDK.
///
/// # Example
///
/// ```
/// use switchless_core::{OcallTable, OcallRequest};
///
/// let mut table = OcallTable::new();
/// let add = table.register("add", |args: &[u64; 6], _in: &[u8], _out: &mut Vec<u8>| {
///     (args[0] + args[1]) as i64
/// });
/// let mut out = Vec::new();
/// let ret = table.invoke(&OcallRequest::new(add, &[2, 3]), &[], &mut out)?;
/// assert_eq!(ret, 5);
/// # Ok::<(), switchless_core::SwitchlessError>(())
/// ```
#[derive(Default)]
pub struct OcallTable {
    entries: Vec<Entry>,
}

impl fmt::Debug for OcallTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OcallTable")
            .field(
                "functions",
                &self
                    .entries
                    .iter()
                    .map(|e| e.name.as_str())
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl OcallTable {
    /// Create an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a host function under `name`, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if more than `u16::MAX` functions are registered.
    pub fn register(&mut self, name: impl Into<String>, f: impl HostFn + 'static) -> FuncId {
        let id = u16::try_from(self.entries.len()).expect("too many registered ocall functions");
        self.entries.push(Entry {
            name: name.into(),
            f: Box::new(f),
        });
        FuncId(id)
    }

    /// Number of registered functions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no functions are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Name registered for `id`, if any.
    #[must_use]
    pub fn name(&self, id: FuncId) -> Option<&str> {
        self.entries.get(id.0 as usize).map(|e| e.name.as_str())
    }

    /// Invoke the host function for `req`.
    ///
    /// `payload_out` is cleared before the call. An already empty one
    /// is not written at all: on the switchless path its header sits in
    /// memory the caller shares, and a store there would move that
    /// cache line to the worker on every payload-free call.
    ///
    /// # Errors
    ///
    /// Returns [`SwitchlessError::UnknownFunc`] for an unregistered id.
    pub fn invoke(
        &self,
        req: &OcallRequest,
        payload_in: &[u8],
        payload_out: &mut Vec<u8>,
    ) -> Result<i64, SwitchlessError> {
        let entry = self
            .entries
            .get(req.func.0 as usize)
            .ok_or(SwitchlessError::UnknownFunc(req.func))?;
        if !payload_out.is_empty() {
            payload_out.clear();
        }
        Ok(entry.f.call(&req.args, payload_in, payload_out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_table() -> (OcallTable, FuncId) {
        let mut t = OcallTable::new();
        let id = t.register(
            "echo",
            |args: &[u64; MAX_OCALL_ARGS], pin: &[u8], pout: &mut Vec<u8>| {
                pout.extend_from_slice(pin);
                args[0] as i64
            },
        );
        (t, id)
    }

    #[test]
    fn register_and_invoke() {
        let (t, id) = echo_table();
        let mut out = Vec::new();
        let ret = t
            .invoke(&OcallRequest::new(id, &[7]), b"hello", &mut out)
            .unwrap();
        assert_eq!(ret, 7);
        assert_eq!(out, b"hello");
    }

    #[test]
    fn unknown_func_is_an_error() {
        let (t, _) = echo_table();
        let mut out = Vec::new();
        let err = t
            .invoke(&OcallRequest::new(FuncId(99), &[]), &[], &mut out)
            .unwrap_err();
        assert_eq!(err, SwitchlessError::UnknownFunc(FuncId(99)));
    }

    #[test]
    fn payload_out_is_cleared_between_calls() {
        let (t, id) = echo_table();
        // A stale reply is cleared before the host function runs...
        let mut out = vec![1, 2, 3];
        t.invoke(&OcallRequest::new(id, &[0]), b"x", &mut out)
            .unwrap();
        assert_eq!(out, b"x");
        // ...and an empty one stays empty.
        let mut out = Vec::new();
        t.invoke(&OcallRequest::new(id, &[0]), b"", &mut out)
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn ids_are_sequential() {
        let mut t = OcallTable::new();
        let a = t.register("a", |_: &[u64; 6], _: &[u8], _: &mut Vec<u8>| 0);
        let b = t.register("b", |_: &[u64; 6], _: &[u8], _: &mut Vec<u8>| 0);
        assert_eq!(a, FuncId(0));
        assert_eq!(b, FuncId(1));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_args_panics() {
        let _ = OcallRequest::new(FuncId(0), &[0; 7]);
    }

    #[test]
    fn request_pads_missing_args_with_zero() {
        let r = OcallRequest::new(FuncId(1), &[9]);
        assert_eq!(r.args, [9, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn sequence_tags_default_to_zero_and_build() {
        let r = OcallRequest::new(FuncId(1), &[]);
        assert_eq!(r.seq, 0);
        assert_eq!(r.with_seq(42).seq, 42);
        assert_eq!(OcallReply::default().seq, 0);
    }

    #[test]
    fn idempotency_defaults_conservative_and_builds() {
        use crate::recovery::IdempotencyClass;
        let r = OcallRequest::new(FuncId(1), &[]);
        assert!(!r.idempotent);
        assert_eq!(r.idempotency_class(), IdempotencyClass::NonIdempotent);
        let r = r.with_idempotent();
        assert_eq!(r.idempotency_class(), IdempotencyClass::Idempotent);
    }

    #[test]
    fn debug_shows_function_names() {
        let (t, _) = echo_table();
        assert!(format!("{t:?}").contains("echo"));
    }
}
