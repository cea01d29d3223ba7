//! Byte-level mutation fuzzing of the incremental request parser
//! (`protocol::next_request`), the ROADMAP fuzz-depth carry-over item.
//!
//! Three properties, each checked against arbitrary bytes AND against
//! byte-level mutations of well-formed pipelined request streams (the
//! adversarial inputs most likely to sit near the parser's edges):
//!
//! 1. **No panics** — the parser is on the serving path (xtask R1); a
//!    panicking parse is a remote crash.
//! 2. **Progress** — `Request`/`Error` always consume at least one byte
//!    and never more than the buffer holds, so the serving loop
//!    cannot spin or overrun; `Incomplete` consumes nothing by
//!    contract; `Desync` closes the connection.
//! 3. **Truncation stability** — feeding the same stream byte by byte
//!    must classify each request exactly once and identically however
//!    the reads are chopped: once some prefix yields a non-`Incomplete`
//!    result, every longer prefix yields the *same* variant with the
//!    same `consumed` (and payload, for `Request`). This pins the
//!    Desync-vs-recoverable-Error boundary across every truncation
//!    point — a TCP segmentation change can never flip a recoverable
//!    error into a connection kill or vice versa.

use proptest::prelude::*;
use rnb_store::protocol::{next_request, NextRequest, MAX_REQUEST_LINE};

/// A classification that can be compared across prefix lengths (borrow
/// of the line/data is reduced to owned bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Outcome {
    Request {
        line: Vec<u8>,
        data: Vec<u8>,
        consumed: usize,
    },
    Error {
        msg: String,
        consumed: usize,
    },
    Desync,
}

fn classify(buf: &[u8]) -> Option<Outcome> {
    match next_request(buf) {
        NextRequest::Incomplete => None,
        NextRequest::Request {
            line,
            data,
            consumed,
            ..
        } => Some(Outcome::Request {
            line: line.to_vec(),
            data: data.to_vec(),
            consumed,
        }),
        NextRequest::Error { msg, consumed } => Some(Outcome::Error { msg, consumed }),
        NextRequest::Desync => Some(Outcome::Desync),
    }
}

/// Progress invariant for one parse over one buffer.
fn check_progress(buf: &[u8]) {
    if let Some(outcome) = classify(buf) {
        match outcome {
            Outcome::Request { consumed, .. } | Outcome::Error { consumed, .. } => {
                assert!(consumed >= 1, "zero-byte consume would spin the drain loop");
                assert!(
                    consumed <= buf.len(),
                    "consumed {consumed} > buffered {}",
                    buf.len()
                );
            }
            Outcome::Desync => {} // connection closes; nothing drained
        }
    }
}

/// Truncation stability: classify every prefix of `stream`; the first
/// non-`Incomplete` classification must be reproduced verbatim by every
/// longer prefix (including the full buffer).
fn check_truncation_stability(stream: &[u8]) {
    check_stability_at(stream, 0..=stream.len());
}

/// [`check_truncation_stability`] over the prefixes of `stream` of the
/// given ascending lengths only.
fn check_stability_at(stream: &[u8], lens: impl IntoIterator<Item = usize>) {
    let mut first: Option<(usize, Outcome)> = None;
    for len in lens {
        let prefix = &stream[..len];
        check_progress(prefix);
        match (&first, classify(prefix)) {
            (None, Some(outcome)) => first = Some((len, outcome)),
            (Some((at, expect)), got) => {
                let got = got.unwrap_or_else(|| {
                    panic!("prefix {len} regressed to Incomplete (decided at {at})")
                });
                assert_eq!(
                    &got, expect,
                    "classification flipped between prefix {at} and {len}"
                );
            }
            (None, None) => {}
        }
    }
}

/// A well-formed request picked by index, exercising every command
/// shape including data blocks.
fn template(which: usize, key: &str, flags: u32, payload: &[u8]) -> Vec<u8> {
    match which % 6 {
        0 => format!("get {key}\r\n").into_bytes(),
        1 => format!("gets {key} {key}2\r\n").into_bytes(),
        2 => {
            let mut v = format!("set {key} {flags} 0 {}\r\n", payload.len()).into_bytes();
            v.extend_from_slice(payload);
            v.extend_from_slice(b"\r\n");
            v
        }
        3 => {
            let mut v = format!("cas {key} {flags} 0 {} 99\r\n", payload.len()).into_bytes();
            v.extend_from_slice(payload);
            v.extend_from_slice(b"\r\n");
            v
        }
        4 => format!("delete {key}\r\n").into_bytes(),
        _ => b"version\r\n".to_vec(),
    }
}

/// Request lines at the [`MAX_REQUEST_LINE`] cap: a `get` whose line,
/// terminator included, is exactly the cap long is served; one byte
/// longer is `Desync`, terminated or not, and so is a flood of blank
/// lines, which count towards the cap. Every prefix shorter than the cap
/// is `Incomplete`. Each stream is checked at the prefixes around the
/// cap and at a stride elsewhere (every prefix of a megabyte would take
/// minutes).
#[test]
fn request_line_cap_classifies_stably() {
    let mut at_cap = b"get".to_vec();
    while at_cap.len() + 26 < MAX_REQUEST_LINE - 2 {
        at_cap.extend_from_slice(b" item:18446744073709551615");
    }
    at_cap.resize(MAX_REQUEST_LINE - 2, b'7');
    at_cap.extend_from_slice(b"\r\n");
    let mut past_cap = at_cap.clone();
    past_cap.insert(4, b'7');
    let unterminated = &past_cap[..past_cap.len() - 2];
    let flood = b"\r\n".repeat(MAX_REQUEST_LINE / 2);
    let served = Outcome::Request {
        line: at_cap[..MAX_REQUEST_LINE - 2].to_vec(),
        data: Vec::new(),
        consumed: MAX_REQUEST_LINE,
    };
    for (stream, want) in [
        (&at_cap[..], served),
        (&past_cap[..], Outcome::Desync),
        (unterminated, Outcome::Desync),
        (&flood[..], Outcome::Desync),
    ] {
        let stream = [stream, &b"version\r\n"[..]].concat();
        let near_cap = MAX_REQUEST_LINE - 3..MAX_REQUEST_LINE + 3;
        let mut lens: Vec<usize> = (0..stream.len()).step_by(65_521).chain(near_cap).collect();
        lens.push(stream.len());
        lens.sort_unstable();
        check_stability_at(&stream, lens);
        assert_eq!(classify(&stream), Some(want));
        assert_eq!(classify(&stream[..MAX_REQUEST_LINE - 1]), None);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// Property 1+2 on fully arbitrary bytes.
    #[test]
    fn arbitrary_bytes_never_panic_and_make_progress(
        buf in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        check_progress(&buf);
    }

    /// Property 3 on arbitrary bytes: even garbage classifies stably
    /// across truncation points.
    #[test]
    fn arbitrary_bytes_classify_stably(
        buf in proptest::collection::vec(any::<u8>(), 0..80),
    ) {
        check_truncation_stability(&buf);
    }

    /// Properties 1-3 on byte-level mutations of a well-formed pipelined
    /// stream: flip, insert, or delete a single byte and the parser must
    /// still make progress and classify each truncation point stably.
    #[test]
    fn mutated_streams_classify_stably(
        shapes in proptest::collection::vec((0usize..6, 0u32..1000), 1..4),
        key in "[a-zA-Z0-9_.-]{1,12}",
        payload in proptest::collection::vec(any::<u8>(), 0..24),
        mutation in 0usize..4,
        position in 0usize..256,
        byte in any::<u8>(),
    ) {
        // Payload bytes may not contain the block terminator mid-value:
        // memcached's framing is length-prefixed, so any byte is legal —
        // keep them all, that is the point of the fuzz.
        let mut stream = Vec::new();
        for &(which, flags) in &shapes {
            stream.extend_from_slice(&template(which, &key, flags, &payload));
        }
        match mutation {
            0 if !stream.is_empty() => {
                let at = position % stream.len();
                stream[at] ^= byte | 1; // guaranteed to change the byte
            }
            1 => {
                let at = position % (stream.len() + 1);
                stream.insert(at, byte);
            }
            2 if !stream.is_empty() => {
                stream.remove(position % stream.len());
            }
            _ => {} // unmutated well-formed stream
        }
        check_truncation_stability(&stream);
    }

    /// Unmutated well-formed streams must classify as `Request` (never
    /// `Error`/`Desync`) at the full-buffer truncation point, and
    /// consume the exact bytes of the first request. Payloads are
    /// non-empty: a `bytes 0` storage command returns at the command
    /// line and its empty data block's CRLF is later skipped as a blank
    /// line (the stream stays in sync but `consumed` is two short of
    /// the encoded length), so the exact-length walk would misreport.
    #[test]
    fn well_formed_streams_parse_cleanly(
        shapes in proptest::collection::vec((0usize..6, 0u32..1000), 1..4),
        key in "[a-zA-Z0-9_.-]{1,12}",
        payload in proptest::collection::vec(any::<u8>(), 1..24),
    ) {
        let mut stream = Vec::new();
        let mut lens = Vec::new();
        for &(which, flags) in &shapes {
            let req = template(which, &key, flags, &payload);
            lens.push(req.len());
            stream.extend_from_slice(&req);
        }
        // Walk the whole pipeline: each request consumes exactly its
        // encoded length.
        let mut offset = 0usize;
        for len in lens {
            match next_request(&stream[offset..]) {
                NextRequest::Request { consumed, .. } => {
                    prop_assert_eq!(consumed, len);
                    offset += consumed;
                }
                other => prop_assert!(false, "well-formed request mis-parsed: {:?}", other),
            }
        }
        prop_assert_eq!(offset, stream.len());
    }
}
