//! The workspace's one FNV-1a (64-bit).
//!
//! Deterministic across processes and platforms, unlike `DefaultHasher`,
//! so it backs everything that must mean the same thing in two runs: the
//! persistent store's cache keys (`pom_dse::cache::StableHasher`), the
//! `bench-poly` DSE fingerprints, the differential suites' corpus file
//! names, and the FM row signatures in [`crate::fm`].

/// The 64-bit FNV offset basis (the hash of the empty string).
pub const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// The 64-bit FNV prime.
pub const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the running hash `h`, one byte per step.
#[inline]
pub fn extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// FNV-1a over a raw byte string (no length prefix).
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    extend(OFFSET_BASIS, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_vectors() {
        assert_eq!(fnv1a64(b""), OFFSET_BASIS);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(extend(fnv1a64(b"foo"), b"bar"), fnv1a64(b"foobar"));
    }
}
