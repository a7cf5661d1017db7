//! lmbench-style syscall microbenchmarks (paper §V-C).
//!
//! The dynamic benchmark issues word-granularity `read`s of `/dev/zero`
//! and `write`s to `/dev/null` through the ocall layer, with a phase-
//! driven rate: 20 s of doubling load, 20 s constant, 20 s halving
//! (τ = 0.5 s periods). The real-runtime driver here mirrors the DES
//! phased workload so examples can run the same experiment on real
//! threads.

use crate::efile::{EnclaveIo, IoError};
use sgx_sim::hostfs::OpenMode;

/// Word size read/written per operation (one machine word, as in
/// lmbench's `bw_unix`-style loops).
pub const WORD: usize = 8;

/// Which lmbench call the driver issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `read(fd_zero, buf, 8)`.
    Read,
    /// `write(fd_null, buf, 8)`.
    Write,
}

/// A reader or writer bound to its device fd.
pub struct LmbenchDriver<'a> {
    io: EnclaveIo<'a>,
    fd: u64,
    kind: OpKind,
    ops: u64,
}

impl std::fmt::Debug for LmbenchDriver<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LmbenchDriver")
            .field("kind", &self.kind)
            .field("ops", &self.ops)
            .finish()
    }
}

impl<'a> LmbenchDriver<'a> {
    /// Open the appropriate device for `kind`.
    ///
    /// # Errors
    ///
    /// [`IoError`] if the device cannot be opened.
    pub fn open(io: EnclaveIo<'a>, kind: OpKind) -> Result<Self, IoError> {
        let fd = match kind {
            OpKind::Read => io.open("/dev/zero", OpenMode::Read)?,
            OpKind::Write => io.open("/dev/null", OpenMode::Write)?,
        };
        Ok(LmbenchDriver {
            io,
            fd,
            kind,
            ops: 0,
        })
    }

    /// Issue one word-sized operation.
    ///
    /// # Errors
    ///
    /// [`IoError`] on dispatch or host failure.
    pub fn op(&mut self) -> Result<(), IoError> {
        match self.kind {
            OpKind::Read => {
                let mut buf = Vec::with_capacity(WORD);
                let n = self.io.read(self.fd, WORD, &mut buf)?;
                debug_assert_eq!(n, WORD);
            }
            OpKind::Write => {
                let n = self.io.write(self.fd, &[0u8; WORD])?;
                debug_assert_eq!(n, WORD);
            }
        }
        self.ops += 1;
        Ok(())
    }

    /// Operations issued so far.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Close the device.
    ///
    /// # Errors
    ///
    /// [`IoError`] for an invalid descriptor.
    pub fn close(self) -> Result<(), IoError> {
        self.io.close(self.fd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::efile::regular_fixture;

    #[test]
    fn read_and_write_drivers_complete_ops() {
        let (fs, disp, funcs) = regular_fixture();
        let mut reader = LmbenchDriver::open(EnclaveIo::new(&disp, funcs), OpKind::Read).unwrap();
        let mut writer = LmbenchDriver::open(EnclaveIo::new(&disp, funcs), OpKind::Write).unwrap();
        for _ in 0..100 {
            reader.op().unwrap();
            writer.op().unwrap();
        }
        assert_eq!(reader.ops(), 100);
        assert_eq!(writer.ops(), 100);
        let (reads, writes, _) = fs.op_counts();
        assert_eq!(reads, 100);
        assert_eq!(writes, 100);
        reader.close().unwrap();
        writer.close().unwrap();
    }
}
