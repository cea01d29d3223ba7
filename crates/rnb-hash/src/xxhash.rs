//! xxHash64, implemented from the reference specification.

use crate::mix::{read_u32_le, read_u64_le};

const PRIME64_1: u64 = 0x9e37_79b1_85eb_ca87;
const PRIME64_2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const PRIME64_3: u64 = 0x1656_67b1_9e37_79f9;
const PRIME64_4: u64 = 0x85eb_ca77_c2b2_ae63;
const PRIME64_5: u64 = 0x27d4_eb2f_1656_67c5;

#[inline]
fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME64_2))
        .rotate_left(31)
        .wrapping_mul(PRIME64_1)
}

#[inline]
fn merge_round(acc: u64, val: u64) -> u64 {
    (acc ^ round(0, val))
        .wrapping_mul(PRIME64_1)
        .wrapping_add(PRIME64_4)
}

#[inline]
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(PRIME64_2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME64_3);
    h ^ (h >> 32)
}

/// One-shot xxHash64 of `input` with `seed`.
pub fn xxh64(input: &[u8], seed: u64) -> u64 {
    let len = input.len();
    let mut h: u64;
    let mut offset = 0;

    if len >= 32 {
        let mut v1 = seed.wrapping_add(PRIME64_1).wrapping_add(PRIME64_2);
        let mut v2 = seed.wrapping_add(PRIME64_2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(PRIME64_1);
        while offset + 32 <= len {
            v1 = round(v1, read_u64_le(input, offset));
            v2 = round(v2, read_u64_le(input, offset + 8));
            v3 = round(v3, read_u64_le(input, offset + 16));
            v4 = round(v4, read_u64_le(input, offset + 24));
            offset += 32;
        }
        h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        h = merge_round(h, v1);
        h = merge_round(h, v2);
        h = merge_round(h, v3);
        h = merge_round(h, v4);
    } else {
        h = seed.wrapping_add(PRIME64_5);
    }

    h = h.wrapping_add(len as u64);

    while offset + 8 <= len {
        h ^= round(0, read_u64_le(input, offset));
        h = h
            .rotate_left(27)
            .wrapping_mul(PRIME64_1)
            .wrapping_add(PRIME64_4);
        offset += 8;
    }
    if offset + 4 <= len {
        h ^= (read_u32_le(input, offset) as u64).wrapping_mul(PRIME64_1);
        h = h
            .rotate_left(23)
            .wrapping_mul(PRIME64_2)
            .wrapping_add(PRIME64_3);
        offset += 4;
    }
    while offset < len {
        h ^= (input[offset] as u64).wrapping_mul(PRIME64_5);
        h = h.rotate_left(11).wrapping_mul(PRIME64_1);
        offset += 1;
    }

    avalanche(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known-answer vectors from the reference xxHash implementation
    /// (`xxhsum` / the xxhash-rust and twox-hash test suites).
    #[test]
    fn xxh64_known_answers() {
        assert_eq!(xxh64(b"", 0), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"a", 0), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(xxh64(b"as", 0), 0x1c33_0fb2_d66b_e179);
        assert_eq!(xxh64(b"asd", 0), 0x631c_37ce_72a9_7393);
        assert_eq!(xxh64(b"asdf", 0), 0x4158_72f5_99ce_a71e);
        // Exercises the 32-byte stripe loop:
        assert_eq!(
            xxh64(
                b"Call me Ishmael. Some years ago--never mind how long precisely-",
                0
            ),
            0x02a2_e854_70d6_fd96
        );
    }

    #[test]
    fn xxh64_seeded_known_answer() {
        // Vector with a non-zero seed (from the twox-hash test suite).
        assert_eq!(xxh64(b"", 0xae05_4331_1b70_2d91), 0x4b6a_04fc_df7a_4672);
    }

    #[test]
    fn all_lengths_hash_without_panic_and_differ() {
        let data: Vec<u8> = (0..=255u8).collect();
        let mut seen = std::collections::HashSet::new();
        for len in 0..data.len() {
            assert!(
                seen.insert(xxh64(&data[..len], 1)),
                "collision at len {len}"
            );
        }
    }
}
