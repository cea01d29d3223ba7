//! Little-endian word reads for the xxHash64 implementation.

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
    fn read_helpers() {
        let bytes = [1u8, 2, 3, 4, 5, 6, 7, 8, 9];
        assert_eq!(read_u64_le(&bytes, 0), 0x0807060504030201);
        assert_eq!(read_u64_le(&bytes, 1), 0x0908070605040302);
        assert_eq!(read_u32_le(&bytes, 0), 0x04030201);
        assert_eq!(read_u32_le(&bytes, 5), 0x09080706);
    }
}
