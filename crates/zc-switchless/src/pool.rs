//! Untrusted request pools (paper §IV-B), sized by the traffic.
//!
//! Callers allocate switchless-request payload space from their worker's
//! pool instead of ocall-ing `malloc` for every request — "using
//! preallocated memory pools prevents callers from performing ocalls to
//! allocate untrusted memory for each switchless request, which would
//! defeat the purpose of using a switchless system."
//!
//! A payload short enough for the mailbox's inline window (DESIGN.md
//! §5) never reaches the pool: it rides the mailbox line beside the
//! request, and the pool is neither allocated from nor written. Only
//! longer payloads land here.
//!
//! A worker buffer carries one live request at a time (the mailbox,
//! DESIGN.md §5), so the pool is a ring: a request goes at the cursor,
//! and one that does not fit in the space left wraps to offset 0 for
//! free. The bytes it overwrites were last read in an earlier call's
//! `PROCESSING`, which ended before that caller released the buffer.
//! Only a payload larger than the whole pool frees and reallocates it
//! via an ocall, at the payload's next power of two: a buffer pays at
//! most ⌈log₂(largest payload / 64)⌉ of these in its life and keeps
//! less than twice its largest payload. (The paper's pool is a bump
//! allocator reallocated whenever full — the Fig. 8 spikes, which the
//! DES keeps modelling.)

use std::fmt;

/// Ring-allocated untrusted memory pool for one worker buffer.
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
    /// The payload outgrew the pool, which has been reallocated to fit
    /// it; the allocation sits at offset 0 and the caller owes one
    /// reallocation ocall.
    AfterRealloc,
    /// The payload is longer than a mailbox window can name
    /// (`u32::MAX` bytes); also the caller's outcome when injected
    /// exhaustion outlasts its retries.
    TooLarge,
}

impl RequestPool {
    /// Pool capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// End of the most recent request: where the next one goes if it
    /// fits in the space left.
    #[must_use]
    pub fn used(&self) -> usize {
        self.bump
    }

    /// Number of growth reallocations so far.
    #[must_use]
    pub fn reallocs(&self) -> u64 {
        self.reallocs
    }

    /// Reserve `len` bytes, overwriting any earlier request.
    ///
    /// Returns [`PoolAlloc::AfterRealloc`] when the pool had to grow —
    /// the caller must charge one enclave transition (and record it)
    /// before using the space at offset 0 — and [`PoolAlloc::TooLarge`],
    /// leaving the pool as it was, for a payload of more than
    /// `u32::MAX` bytes.
    pub fn alloc(&mut self, len: usize) -> PoolAlloc {
        if u32::try_from(len).is_err() {
            return PoolAlloc::TooLarge;
        }
        if len > self.buf.len() {
            // Free + reallocate (modelled as a fresh buffer; the real
            // system performs an ocall to do this).
            self.buf = vec![0u8; len.next_power_of_two()];
            self.reallocs += 1;
            self.bump = len;
            return PoolAlloc::AfterRealloc;
        }
        let offset = if self.bump + len <= self.buf.len() {
            self.bump
        } else {
            0
        };
        // An empty reservation must not dirty the pool header.
        if len > 0 {
            self.bump = offset + len;
        }
        PoolAlloc::Fit { offset }
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

    /// Read `len` bytes at `offset`, cut at the end of the pool: the
    /// window is read back from host-writable memory, so a scribbled
    /// one must read short, never panic.
    #[must_use]
    pub fn slice(&self, offset: usize, len: usize) -> &[u8] {
        let start = offset.min(self.buf.len());
        let end = start.saturating_add(len).min(self.buf.len());
        &self.buf[start..end]
    }
}

impl Default for RequestPool {
    /// An empty pool of 64 bytes (one cache line): the first payload
    /// larger than that grows it.
    fn default() -> Self {
        RequestPool {
            buf: vec![0u8; 64],
            bump: 0,
            reallocs: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_allocation_is_disjoint() {
        let mut p = RequestPool::default();
        assert_eq!(p.alloc(20), PoolAlloc::Fit { offset: 0 });
        assert_eq!(p.alloc(20), PoolAlloc::Fit { offset: 20 });
        assert_eq!(p.used(), 40);
    }

    #[test]
    fn a_wrap_never_counts_a_realloc() {
        let mut p = RequestPool::default();
        assert_eq!(p.alloc(40), PoolAlloc::Fit { offset: 0 });
        assert_eq!(p.alloc(40), PoolAlloc::Fit { offset: 0 }, "wraps");
        assert_eq!(p.alloc(24), PoolAlloc::Fit { offset: 40 });
        assert_eq!(
            p.alloc(1),
            PoolAlloc::Fit { offset: 0 },
            "exactly full wraps"
        );
        assert_eq!((p.reallocs(), p.capacity(), p.used()), (0, 64, 1));
    }

    #[test]
    fn growth_goes_to_the_next_power_of_two_and_counts_once() {
        let mut p = RequestPool::default();
        assert_eq!(p.alloc(65), PoolAlloc::AfterRealloc);
        assert_eq!((p.reallocs(), p.capacity(), p.used()), (1, 128, 65));
        // Anything up to the new capacity fits (wrapping) for free.
        assert_eq!(p.alloc(128), PoolAlloc::Fit { offset: 0 });
        assert_eq!(p.alloc(65), PoolAlloc::Fit { offset: 0 });
        assert_eq!(p.reallocs(), 1);
        // An exact power of two is its own ceiling.
        assert_eq!(p.alloc(4096), PoolAlloc::AfterRealloc);
        assert_eq!((p.reallocs(), p.capacity()), (2, 4096));
    }

    #[test]
    fn empty_alloc_leaves_the_header_alone_after_a_wrap_or_a_growth() {
        let mut p = RequestPool::default();
        let header = |p: &RequestPool| (p.used(), p.capacity());
        assert_eq!(p.alloc(0), PoolAlloc::Fit { offset: 0 });
        assert_eq!(header(&p), (0, 64));
        assert_eq!(p.alloc(100), PoolAlloc::AfterRealloc);
        assert_eq!(p.alloc(0), PoolAlloc::Fit { offset: 100 });
        assert_eq!(header(&p), (100, 128));
        assert_eq!(p.alloc(50), PoolAlloc::Fit { offset: 0 }, "wraps");
        assert_eq!(p.alloc(0), PoolAlloc::Fit { offset: 50 });
        assert_eq!(header(&p), (50, 128));
    }

    #[test]
    fn a_payload_no_window_can_name_is_refused_untouched() {
        let mut p = RequestPool::default();
        let len = u32::MAX as usize + 1;
        assert_eq!(p.alloc(len), PoolAlloc::TooLarge);
        assert_eq!((p.reallocs(), p.capacity(), p.used()), (0, 64, 0));
    }

    #[test]
    fn write_and_read_back() {
        let mut p = RequestPool::default();
        let PoolAlloc::Fit { offset } = p.alloc(5) else {
            panic!()
        };
        p.write_with(offset, b"hello", |d, s| d.copy_from_slice(s));
        assert_eq!(p.slice(offset, 5), b"hello");
    }
}
