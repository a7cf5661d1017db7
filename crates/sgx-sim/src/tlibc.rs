//! Trusted-libc model: Intel's vanilla `memcpy` versus the paper's
//! optimised copy (§IV-F).
//!
//! Intel's tlibc `memcpy` copies *word-by-word* when source and
//! destination are congruent modulo 8, and *byte-by-byte* otherwise —
//! which is why unaligned ocall buffers plateau around 0.4 GB/s in the
//! paper's Fig. 7. The paper's fix uses the hardware copy instruction
//! `rep movsb` (Intel optimisation manual §3.7.6.1).
//!
//! We reproduce both behaviours:
//!
//! * [`memcpy_vanilla`] mirrors tlibc's structure. The inner loops use
//!   `read_volatile`/`write_volatile` so LLVM cannot rewrite them into
//!   SIMD/`memcpy` — exactly one load+store per iteration, like the
//!   original compiled C.
//! * [`memcpy_zc`] delegates to `ptr::copy_nonoverlapping`, which lowers
//!   to the platform's optimal copy (`rep movsb` / SIMD) — the same
//!   effect as the paper's Listing 1.

use serde::{Deserialize, Serialize};

/// Which `memcpy` implementation crosses the enclave boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum MemcpyKind {
    /// Intel tlibc behaviour: word copy if `src ≡ dst (mod 8)`, byte copy
    /// otherwise.
    Vanilla,
    /// ZC-SWITCHLESS optimised copy (`rep movsb`-equivalent).
    #[default]
    Zc,
}

impl MemcpyKind {
    /// Copy `src` into `dst` using this implementation.
    ///
    /// # Panics
    ///
    /// Panics if `dst.len() != src.len()`.
    pub fn copy(self, dst: &mut [u8], src: &[u8]) {
        match self {
            MemcpyKind::Vanilla => memcpy_vanilla(dst, src),
            MemcpyKind::Zc => memcpy_zc(dst, src),
        }
    }
}

/// Intel tlibc-style `memcpy`: word-by-word for congruent buffers,
/// byte-by-byte otherwise.
///
/// # Panics
///
/// Panics if `dst.len() != src.len()`.
pub fn memcpy_vanilla(dst: &mut [u8], src: &[u8]) {
    assert_eq!(
        dst.len(),
        src.len(),
        "memcpy length mismatch: dst {} vs src {}",
        dst.len(),
        src.len()
    );
    let n = src.len();
    if n == 0 {
        return;
    }
    let d = dst.as_mut_ptr();
    let s = src.as_ptr();
    // tlibc: word copy only possible when both pointers can be aligned to
    // the word size simultaneously, i.e. congruent mod 8.
    if (d as usize) % 8 == (s as usize) % 8 {
        unsafe { copy_congruent_words(d, s, n) }
    } else {
        unsafe { copy_bytes_volatile(d, s, n) }
    }
}

/// Word-by-word volatile copy for congruent pointers: byte prefix up to
/// the first 8-byte boundary, `u64` body, byte tail.
///
/// # Safety
///
/// `d` and `s` must be valid for `n` bytes and non-overlapping, with
/// `d % 8 == s % 8`.
unsafe fn copy_congruent_words(d: *mut u8, s: *const u8, n: usize) {
    let mut i = 0usize;
    let misalign = (s as usize) % 8;
    if misalign != 0 {
        let prefix = (8 - misalign).min(n);
        while i < prefix {
            d.add(i).write_volatile(s.add(i).read_volatile());
            i += 1;
        }
    }
    while i + 8 <= n {
        let w = (s.add(i) as *const u64).read_volatile();
        (d.add(i) as *mut u64).write_volatile(w);
        i += 8;
    }
    while i < n {
        d.add(i).write_volatile(s.add(i).read_volatile());
        i += 1;
    }
}

/// Byte-by-byte volatile copy (the tlibc unaligned slow path).
///
/// # Safety
///
/// `d` and `s` must be valid for `n` bytes and non-overlapping.
unsafe fn copy_bytes_volatile(d: *mut u8, s: *const u8, n: usize) {
    for i in 0..n {
        d.add(i).write_volatile(s.add(i).read_volatile());
    }
}

/// ZC-SWITCHLESS optimised `memcpy`: hardware copy, alignment-oblivious.
///
/// # Panics
///
/// Panics if `dst.len() != src.len()`.
pub fn memcpy_zc(dst: &mut [u8], src: &[u8]) {
    assert_eq!(
        dst.len(),
        src.len(),
        "memcpy length mismatch: dst {} vs src {}",
        dst.len(),
        src.len()
    );
    // Slices never overlap (&mut aliasing rules), so the nonoverlapping
    // intrinsic — which lowers to rep movsb / SIMD — is sound.
    unsafe {
        std::ptr::copy_nonoverlapping(src.as_ptr(), dst.as_mut_ptr(), src.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 + 7) as u8).collect()
    }

    /// Build `(dst, src)` pairs with controlled `mod 8` phases inside
    /// over-allocated buffers.
    fn with_phases(n: usize, dphase: usize, sphase: usize, f: impl FnOnce(&mut [u8], &[u8])) {
        let src_buf = {
            let mut b = vec![0u8; n + 16];
            let off = (8 - (b.as_ptr() as usize) % 8) % 8 + sphase;
            b[off..off + n].copy_from_slice(&pattern(n));
            (b, off)
        };
        let mut dst_buf = vec![0u8; n + 16];
        let doff = (8 - (dst_buf.as_ptr() as usize) % 8) % 8 + dphase;
        let (sb, soff) = src_buf;
        let src = &sb[soff..soff + n];
        f(&mut dst_buf[doff..doff + n], src);
        assert_eq!(&dst_buf[doff..doff + n], src, "copy corrupted data");
    }

    #[test]
    fn vanilla_congruent_copies_correctly() {
        for n in [0, 1, 7, 8, 9, 63, 64, 65, 1000] {
            for phase in 0..8 {
                with_phases(n, phase, phase, memcpy_vanilla);
            }
        }
    }

    #[test]
    fn vanilla_incongruent_copies_correctly() {
        for n in [1, 8, 17, 255, 1024] {
            with_phases(n, 0, 3, memcpy_vanilla);
            with_phases(n, 5, 2, memcpy_vanilla);
        }
    }

    #[test]
    fn zc_copies_correctly_any_alignment() {
        for n in [0, 1, 9, 4096] {
            for (dp, sp) in [(0, 0), (1, 5), (3, 3), (7, 0)] {
                with_phases(n, dp, sp, memcpy_zc);
            }
        }
    }

    #[test]
    fn kind_dispatch() {
        let src = pattern(100);
        let mut d1 = vec![0u8; 100];
        let mut d2 = vec![0u8; 100];
        MemcpyKind::Vanilla.copy(&mut d1, &src);
        MemcpyKind::Zc.copy(&mut d2, &src);
        assert_eq!(d1, src);
        assert_eq!(d2, src);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn vanilla_length_mismatch_panics() {
        memcpy_vanilla(&mut [0u8; 2], &[1u8; 3]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn zc_length_mismatch_panics() {
        memcpy_zc(&mut [0u8; 4], &[1u8; 3]);
    }

    #[test]
    fn default_kind_is_zc() {
        assert_eq!(MemcpyKind::default(), MemcpyKind::Zc);
    }
}
