//! Small integer mixing utilities shared by the hash implementations.

/// SplitMix64 step: advances `state` and returns the next pseudo-random
/// value. Used to derive independent sub-seeds from a single `u64` seed.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derive the `i`-th sub-seed from `seed` (stateless form of
/// [`splitmix64`]).
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    let mut s = seed ^ i.wrapping_mul(0xa076_1d64_78bd_642f);
    splitmix64(&mut s)
}

/// Read a little-endian `u64` from `bytes[offset..offset + 8]`.
#[inline]
pub fn read_u64_le(bytes: &[u8], offset: usize) -> u64 {
    u64::from_le_bytes(bytes[offset..offset + 8].try_into().unwrap())
}

/// Read a little-endian `u32` from `bytes[offset..offset + 4]`.
#[inline]
pub fn read_u32_le(bytes: &[u8], offset: usize) -> u32 {
    u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = 42;
        let mut b = 42;
        for _ in 0..10 {
            assert_eq!(splitmix64(&mut a), splitmix64(&mut b));
        }
        assert_eq!(a, b);
    }

    #[test]
    fn splitmix_reference_vector() {
        // Known-answer test against the original public-domain C
        // implementation by Sebastiano Vigna, seeded with 0.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(&mut s), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(splitmix64(&mut s), 0x06c4_5d18_8009_454f);
    }

    #[test]
    fn sub_seeds_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000 {
            assert!(seen.insert(sub_seed(99, i)), "duplicate sub-seed at {i}");
        }
    }

    #[test]
    fn read_helpers() {
        let bytes = [1u8, 2, 3, 4, 5, 6, 7, 8, 9];
        assert_eq!(read_u64_le(&bytes, 0), 0x0807060504030201);
        assert_eq!(read_u64_le(&bytes, 1), 0x0908070605040302);
        assert_eq!(read_u32_le(&bytes, 0), 0x04030201);
        assert_eq!(read_u32_le(&bytes, 5), 0x09080706);
    }
}
