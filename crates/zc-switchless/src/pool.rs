//! Preallocated untrusted request pools (paper §IV-B).
//!
//! Callers allocate switchless-request payload space from their worker's
//! pool instead of ocall-ing `malloc` for every request — "using
//! preallocated memory pools prevents callers from performing ocalls to
//! allocate untrusted memory for each switchless request, which would
//! defeat the purpose of using a switchless system."
//!
//! When a pool is full it is *freed and reallocated via an ocall*: the
//! caller pays one enclave transition, the pool resets, and allocation
//! proceeds. These reallocations are the latency spikes visible in the
//! paper's Fig. 8.

use std::fmt;

/// Bump-allocated untrusted memory pool for one worker buffer.
pub struct RequestPool {
    buf: Vec<u8>,
    bump: usize,
    reallocs: u64,
}

impl fmt::Debug for RequestPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RequestPool")
            .field("capacity", &self.buf.len())
            .field("bump", &self.bump)
            .field("reallocs", &self.reallocs)
            .finish()
    }
}

/// Outcome of a pool allocation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolAlloc {
    /// Space reserved at the contained offset.
    Fit {
        /// Offset of the reserved range.
        offset: usize,
    },
    /// The pool was full and has been reset; the allocation now sits at
    /// offset 0 and the caller owes one reallocation ocall.
    AfterRealloc,
    /// The request exceeds the pool capacity outright.
    TooLarge,
}

impl RequestPool {
    /// Pool of `capacity` bytes (minimum 64).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        RequestPool {
            buf: vec![0u8; capacity.max(64)],
            bump: 0,
            reallocs: 0,
        }
    }

    /// Pool capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Bytes currently bump-allocated.
    #[must_use]
    pub fn used(&self) -> usize {
        self.bump
    }

    /// Number of full-pool reallocations so far.
    #[must_use]
    pub fn reallocs(&self) -> u64 {
        self.reallocs
    }

    /// Reserve `len` bytes.
    ///
    /// Returns [`PoolAlloc::AfterRealloc`] when the pool had to be freed
    /// and reallocated — the caller must charge one enclave transition
    /// (and record it) before using the space at offset 0.
    pub fn alloc(&mut self, len: usize) -> PoolAlloc {
        if len > self.buf.len() {
            return PoolAlloc::TooLarge;
        }
        if self.bump + len <= self.buf.len() {
            let offset = self.bump;
            // An empty reservation must not dirty the pool header.
            if len > 0 {
                self.bump += len;
            }
            PoolAlloc::Fit { offset }
        } else {
            // Full: free + reallocate (modelled as a reset; the real
            // system performs an ocall to do this).
            self.reallocs += 1;
            self.bump = len;
            PoolAlloc::AfterRealloc
        }
    }

    /// Write `data` at `offset` (previously returned by
    /// [`alloc`](RequestPool::alloc)) using the provided copy function
    /// (the boundary `memcpy`).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the pool.
    pub fn write_with(&mut self, offset: usize, data: &[u8], copy: impl FnOnce(&mut [u8], &[u8])) {
        copy(&mut self.buf[offset..offset + data.len()], data);
    }

    /// Read `len` bytes at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the pool.
    #[must_use]
    pub fn slice(&self, offset: usize, len: usize) -> &[u8] {
        &self.buf[offset..offset + len]
    }
}

impl Default for RequestPool {
    fn default() -> Self {
        RequestPool::new(switchless_core::config::DEFAULT_POOL_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_allocation_is_disjoint() {
        let mut p = RequestPool::new(100);
        let PoolAlloc::Fit { offset: a } = p.alloc(40) else {
            panic!("first alloc must fit")
        };
        let PoolAlloc::Fit { offset: b } = p.alloc(40) else {
            panic!("second alloc must fit")
        };
        assert_eq!(a, 0);
        assert_eq!(b, 40);
        assert_eq!(p.used(), 80);
    }

    #[test]
    fn exhaustion_triggers_realloc_and_resets() {
        let mut p = RequestPool::new(100);
        assert!(matches!(p.alloc(80), PoolAlloc::Fit { .. }));
        assert_eq!(p.alloc(40), PoolAlloc::AfterRealloc);
        assert_eq!(p.reallocs(), 1);
        assert_eq!(p.used(), 40, "post-realloc allocation sits at the start");
        // Next small alloc fits again without realloc.
        assert!(matches!(p.alloc(10), PoolAlloc::Fit { offset: 40 }));
    }

    #[test]
    fn oversized_requests_are_rejected() {
        let mut p = RequestPool::new(64);
        assert_eq!(p.alloc(65), PoolAlloc::TooLarge);
        assert_eq!(p.reallocs(), 0, "rejection is not a realloc");
    }

    #[test]
    fn write_and_read_back() {
        let mut p = RequestPool::new(64);
        let PoolAlloc::Fit { offset } = p.alloc(5) else {
            panic!()
        };
        p.write_with(offset, b"hello", |d, s| d.copy_from_slice(s));
        assert_eq!(p.slice(offset, 5), b"hello");
    }

    #[test]
    fn minimum_capacity_is_enforced() {
        let p = RequestPool::new(0);
        assert_eq!(p.capacity(), 64);
    }

    #[test]
    fn zero_length_alloc_always_fits() {
        let mut p = RequestPool::new(64);
        assert!(matches!(p.alloc(64), PoolAlloc::Fit { .. }));
        assert!(matches!(p.alloc(0), PoolAlloc::Fit { offset: 64 }));
    }
}
