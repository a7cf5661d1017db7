//! Exhaustive equivalence tests of the tlibc boundary-copy models
//! (paper §IV-F).
//!
//! The Fig. 7 plateau exists because Intel's vanilla `memcpy` switches
//! between a word path (pointers congruent mod 8) and a byte path — so
//! the *correctness* of both our models has to hold at every alignment
//! phase and at every size that straddles the prefix/word-body/tail
//! thresholds. Both copies are checked against a naive index-loop
//! oracle across alignment offsets `0..16` for source and destination
//! (covering every congruent and incongruent phase pair twice) and a
//! size ladder spanning the 8-byte word boundaries.

use sgx_sim::tlibc::{memcpy_vanilla, memcpy_zc, MemcpyKind};

/// Sizes straddling every interesting threshold: empty, sub-word, the
/// word boundary itself, word ±1, multi-word ±1, and page-ish bulk.
const SIZES: &[usize] = &[
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32, 33, 63, 64, 65, 127, 128, 129,
    255, 256, 257, 4095, 4096, 4097,
];

/// Alignment phases for each pointer: two full trips around mod 8 so
/// congruent (`doff % 8 == soff % 8`) and incongruent pairs both occur
/// at small and large absolute offsets.
const OFFSETS: std::ops::Range<usize> = 0..16;

/// An 8-byte-aligned byte arena of at least `n + 16` usable bytes.
fn arena(n: usize) -> Vec<u64> {
    vec![0u64; n / 8 + 4]
}

fn bytes(a: &mut [u64]) -> &mut [u8] {
    unsafe { std::slice::from_raw_parts_mut(a.as_mut_ptr().cast::<u8>(), a.len() * 8) }
}

fn pattern(n: usize, seed: usize) -> Vec<u8> {
    (0..n)
        .map(|i| (i.wrapping_mul(31) + seed.wrapping_mul(17) + 7) as u8)
        .collect()
}

#[test]
fn memcpy_vanilla_and_zc_agree_across_alignments_and_sizes() {
    for &n in SIZES {
        let data = pattern(n, n);
        for doff in OFFSETS {
            for soff in OFFSETS {
                let mut src_a = arena(n + 16);
                let src_b = bytes(&mut src_a);
                src_b[soff..soff + n].copy_from_slice(&data);

                // Oracle: the std copy (independent of both models).
                let mut oracle = vec![0u8; n];
                oracle.copy_from_slice(&src_b[soff..soff + n]);

                let mut d1_a = arena(n + 16);
                let d1 = bytes(&mut d1_a);
                memcpy_vanilla(&mut d1[doff..doff + n], &src_b[soff..soff + n]);
                assert_eq!(
                    &d1[doff..doff + n],
                    &oracle[..],
                    "vanilla memcpy wrong at n={n} doff={doff} soff={soff} \
                     (congruent={})",
                    doff % 8 == soff % 8
                );
                // Copy must not scribble outside the destination range.
                assert!(
                    d1[..doff].iter().all(|&b| b == 0),
                    "vanilla underflow at n={n}"
                );
                assert!(
                    d1[doff + n..].iter().all(|&b| b == 0),
                    "vanilla overflow at n={n}"
                );

                let mut d2_a = arena(n + 16);
                let d2 = bytes(&mut d2_a);
                memcpy_zc(&mut d2[doff..doff + n], &src_b[soff..soff + n]);
                assert_eq!(
                    &d2[doff..doff + n],
                    &oracle[..],
                    "zc memcpy wrong at n={n} doff={doff} soff={soff}"
                );
                assert!(d2[..doff].iter().all(|&b| b == 0), "zc underflow at n={n}");
                assert!(
                    d2[doff + n..].iter().all(|&b| b == 0),
                    "zc overflow at n={n}"
                );

                // Source must be untouched.
                assert_eq!(
                    &src_b[soff..soff + n],
                    &data[..],
                    "source clobbered at n={n}"
                );
            }
        }
    }
}

#[test]
fn memcpy_kind_dispatch_matches_free_functions() {
    let data = pattern(257, 3);
    for kind in [MemcpyKind::Vanilla, MemcpyKind::Zc] {
        let mut dst = vec![0u8; data.len()];
        kind.copy(&mut dst, &data);
        assert_eq!(dst, data, "{kind:?} dispatch must copy faithfully");
    }
}
