//! Item-id ↔ wire-key mapping.

use rnb_hash::ItemId;

/// Longest wire key: `item:` plus the 20 digits of `u64::MAX`.
const MAX_ITEM_KEY: usize = 25;

/// Append the wire key of `item` (`item:<decimal>`) to `out`. The
/// request path writes every key of a transaction into one pooled line
/// through this, so a key costs no allocation and no formatter.
pub(crate) fn write_item_key(item: ItemId, out: &mut Vec<u8>) {
    // Written backwards from the end — digits, then the prefix — so the
    // key goes out in one copy.
    let mut key = [0u8; MAX_ITEM_KEY];
    let mut at = key.len();
    let mut rest = item;
    loop {
        at -= 1;
        key[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    for &byte in b"item:".iter().rev() {
        at -= 1;
        key[at] = byte;
    }
    out.extend_from_slice(&key[at..]);
}

/// The wire key of an item id (`item:<decimal>`).
pub fn item_key(item: ItemId) -> Vec<u8> {
    let mut key = Vec::with_capacity(MAX_ITEM_KEY);
    write_item_key(item, &mut key);
    key
}

/// Parse a wire key back to an item id (for tooling and tests).
pub fn parse_item_key(key: &[u8]) -> Option<ItemId> {
    let text = std::str::from_utf8(key).ok()?;
    text.strip_prefix("item:")?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        for item in [0u64, 1, 42, u64::MAX] {
            assert_eq!(parse_item_key(&item_key(item)), Some(item));
        }
    }

    proptest::proptest! {
        /// The integer writer is `format!`'s decimal, `item_key` is the
        /// writer, and `parse_item_key` inverts both, over all of `u64`.
        #[test]
        fn writer_formatter_and_parser_agree(item in proptest::prelude::any::<u64>()) {
            let mut written = b"get ".to_vec();
            write_item_key(item, &mut written);
            proptest::prop_assert_eq!(&written[4..], format!("item:{item}").as_bytes());
            proptest::prop_assert_eq!(item_key(item), &written[4..]);
            proptest::prop_assert!(written.len() - 4 <= MAX_ITEM_KEY);
            proptest::prop_assert_eq!(parse_item_key(&written[4..]), Some(item));
        }
    }

    #[test]
    fn rejects_foreign_keys() {
        assert_eq!(parse_item_key(b"other:1"), None);
        assert_eq!(parse_item_key(b"item:abc"), None);
        assert_eq!(parse_item_key(&[0xff]), None);
    }
}
