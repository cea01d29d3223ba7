//! The memcached **text protocol** subset used by the experiments:
//! `get` (multi-key), `set`, `delete`, `stats`, `version`, `quit`.
//!
//! Reference: memcached's `doc/protocol.txt`. Requests are CRLF-terminated
//! lines whose tokens are separated by ASCII blanks (keys are bytes: a
//! non-ASCII Unicode space belongs to its key); `set` is followed by a
//! data block of the declared length plus CRLF.
//!
//! Parsing is zero-copy: [`parse_command`] returns a [`Command`] that
//! *borrows* the request line — keys are `&[u8]` slices into it, and a
//! `get`'s key list is a [`GetKeys`] cursor rather than a
//! `Vec<Vec<u8>>`, counted and validated in one byte scan. Paired with [`next_request`] cutting requests out of
//! a connection's pooled input buffer, the serving loop runs
//! allocation-free at steady state (proven by the `zero_alloc_serve`
//! integration test). [`read_line`] is a blocking, allocating line
//! reader for tests and tools; the client parses replies in place.

// Wire-format module: every narrowing here changes what goes on the wire,
// so lossy `as` casts are denied — use `try_from` and surface the error.
// xtask lint rule R3 enforces the same contract textually.
#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]

use std::io::{self, BufRead, Write};

/// Which storage verb a `set`-shaped command carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreVerb {
    /// Unconditional store.
    Set,
    /// Store only if absent.
    Add,
    /// Store only if present.
    Replace,
}

/// The key list of a `get`/`gets`, borrowed from the request line.
/// Iterating yields each key as a `&[u8]` slice into the line.
#[derive(Debug, Clone, Copy)]
pub struct GetKeys<'a> {
    /// Line bytes after the verb (possibly whitespace-led).
    tail: &'a [u8],
    /// Number of keys (counted during parse).
    count: usize,
}

impl<'a> GetKeys<'a> {
    /// Number of keys in the request.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True if there are no keys ([`parse_command`] rejects that form,
    /// but the type stands alone).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The keys, as slices borrowed from the request line.
    pub fn iter(&self) -> impl Iterator<Item = &'a [u8]> + 'a {
        self.tail
            .split(u8::is_ascii_whitespace)
            .filter(|key| !key.is_empty())
    }
}

impl PartialEq for GetKeys<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count && self.iter().eq(other.iter())
    }
}

impl Eq for GetKeys<'_> {}

/// A parsed request line, borrowing from the line buffer it was parsed
/// out of.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command<'a> {
    /// `get <key>+` / `gets <key>+` — multi-key get (one *transaction* in
    /// paper terms). `gets` additionally returns the CAS token.
    Get {
        /// Requested keys (slices into the request line).
        keys: GetKeys<'a>,
        /// True for `gets` (include CAS tokens in the reply).
        with_cas: bool,
    },
    /// `set|add|replace <key> <flags> <exptime> <bytes> [noreply]`.
    Set {
        /// Which conditional variant.
        verb: StoreVerb,
        /// Entry key.
        key: &'a [u8],
        /// Opaque client flags.
        flags: u32,
        /// Expiry in seconds. Signed, per memcached: 0 = never, negative
        /// = already expired (stored, then immediately invisible);
        /// memcached's absolute-time form for values > 30 days is not
        /// needed by the experiments.
        exptime: i64,
        /// Data block length that follows.
        bytes: usize,
        /// Suppress the reply line.
        noreply: bool,
    },
    /// `cas <key> <flags> <exptime> <bytes> <cas> [noreply]`.
    Cas {
        /// Entry key.
        key: &'a [u8],
        /// Opaque client flags.
        flags: u32,
        /// Expiry in seconds (0 = never, negative = already expired).
        exptime: i64,
        /// Data block length that follows.
        bytes: usize,
        /// The token from a previous `gets`.
        cas: u64,
        /// Suppress the reply line.
        noreply: bool,
    },
    /// `incr <key> <delta>` / `decr <key> <delta>`.
    Arith {
        /// Entry key.
        key: &'a [u8],
        /// Unsigned delta.
        delta: u64,
        /// True for `decr`.
        negative: bool,
        /// Suppress the reply line.
        noreply: bool,
    },
    /// `delete <key> [noreply]`.
    Delete {
        /// Entry key.
        key: &'a [u8],
        /// Suppress the reply line.
        noreply: bool,
    },
    /// `stats`.
    Stats,
    /// `version`.
    Version,
    /// `quit` — close the connection.
    Quit,
}

/// Maximum key length (memcached's limit).
pub const MAX_KEY_LEN: usize = 250;

/// Parse one request line (without the trailing CRLF). The returned
/// [`Command`] borrows `line`; nothing is copied.
pub fn parse_command(line: &[u8]) -> Result<Command<'_>, String> {
    let text = std::str::from_utf8(line).map_err(|_| "non-utf8 command line".to_string())?;
    let mut parts = text.split_ascii_whitespace();
    let verb = parts.next().ok_or_else(|| "empty command".to_string())?;
    match verb {
        "get" | "gets" => {
            // The verb is the first token, so `find` locates it exactly;
            // everything after it is the key list.
            let base = text.find(verb).unwrap_or(0) + verb.len();
            let tail = &line[base..];
            let count = count_keys(tail)?;
            if count == 0 {
                return Err("get requires at least one key".into());
            }
            Ok(Command::Get {
                keys: GetKeys { tail, count },
                with_cas: verb == "gets",
            })
        }
        "set" | "add" | "replace" | "cas" => {
            let key = parts.next().ok_or("missing key")?.as_bytes();
            validate_key(key)?;
            let flags: u32 = parts
                .next()
                .ok_or("missing flags")?
                .parse()
                .map_err(|_| "bad flags")?;
            // Signed: memcached treats a negative exptime as "expire
            // immediately", and clients do send -1.
            let exptime: i64 = parts
                .next()
                .ok_or("missing exptime")?
                .parse()
                .map_err(|_| "bad exptime")?;
            let bytes: usize = parts
                .next()
                .ok_or("missing bytes")?
                .parse()
                .map_err(|_| "bad bytes")?;
            let cas: u64 = if verb == "cas" {
                parts
                    .next()
                    .ok_or("cas: missing token")?
                    .parse()
                    .map_err(|_| "bad cas token")?
            } else {
                0
            };
            let noreply = match parts.next() {
                None => false,
                Some("noreply") => true,
                Some(other) => return Err(format!("{verb}: unexpected token {other:?}")),
            };
            Ok(match verb {
                "cas" => Command::Cas {
                    key,
                    flags,
                    exptime,
                    bytes,
                    cas,
                    noreply,
                },
                "add" => Command::Set {
                    verb: StoreVerb::Add,
                    key,
                    flags,
                    exptime,
                    bytes,
                    noreply,
                },
                "replace" => Command::Set {
                    verb: StoreVerb::Replace,
                    key,
                    flags,
                    exptime,
                    bytes,
                    noreply,
                },
                _ => Command::Set {
                    verb: StoreVerb::Set,
                    key,
                    flags,
                    exptime,
                    bytes,
                    noreply,
                },
            })
        }
        "incr" | "decr" => {
            let key = parts.next().ok_or("missing key")?.as_bytes();
            validate_key(key)?;
            let delta: u64 = parts
                .next()
                .ok_or("missing delta")?
                .parse()
                .map_err(|_| "bad delta")?;
            let noreply = match parts.next() {
                None => false,
                Some("noreply") => true,
                Some(other) => return Err(format!("{verb}: unexpected token {other:?}")),
            };
            Ok(Command::Arith {
                key,
                delta,
                negative: verb == "decr",
                noreply,
            })
        }
        "delete" => {
            let key = parts.next().ok_or("delete: missing key")?.as_bytes();
            validate_key(key)?;
            let noreply = match parts.next() {
                None => false,
                Some("noreply") => true,
                Some(other) => return Err(format!("delete: unexpected token {other:?}")),
            };
            Ok(Command::Delete { key, noreply })
        }
        "stats" => Ok(Command::Stats),
        "version" => Ok(Command::Version),
        "quit" => Ok(Command::Quit),
        other => Err(format!("unknown command {other:?}")),
    }
}

fn validate_key(key: &[u8]) -> Result<(), String> {
    if key.is_empty() {
        return Err("empty key".into());
    }
    check_key(key.len(), key.iter().any(|&b| is_bad_key_byte(b)))
}

/// A byte no key may hold: a control character, a space or DEL.
fn is_bad_key_byte(b: u8) -> bool {
    b <= b' ' || b == 0x7f
}

/// [`validate_key`]'s verdict on a non-empty key of `len` bytes, `bad`
/// if any of them [`is_bad_key_byte`]: the length is judged first.
fn check_key(len: usize, bad: bool) -> Result<(), String> {
    if len > MAX_KEY_LEN {
        return Err(format!("key longer than {MAX_KEY_LEN}"));
    }
    if bad {
        return Err("key contains control or space characters".into());
    }
    Ok(())
}

/// Count the keys of a `get` line's `tail`, validating each, in one byte
/// scan: keys are the runs between ASCII whitespace, and the first
/// invalid key's error is the one [`validate_key`] gives it.
fn count_keys(tail: &[u8]) -> Result<usize, String> {
    let (mut count, mut len, mut bad) = (0usize, 0usize, false);
    for &b in tail {
        if b.is_ascii_whitespace() {
            if len > 0 {
                check_key(len, bad)?;
                count += 1;
                len = 0;
            }
        } else {
            len += 1;
            bad |= is_bad_key_byte(b);
        }
    }
    if len > 0 {
        check_key(len, bad)?;
        count += 1;
    }
    Ok(count)
}

/// Read one CRLF (or bare-LF) terminated line, terminator stripped.
/// `Ok(None)` on clean EOF.
pub fn read_line<R: BufRead>(reader: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut buf = Vec::with_capacity(64);
    if reader.read_until(b'\n', &mut buf)? == 0 {
        return Ok(None);
    }
    while matches!(buf.last(), Some(b'\n') | Some(b'\r')) {
        buf.pop();
    }
    Ok(Some(buf))
}

/// Upper bound on a data block either side will buffer: a `set`/`cas`
/// payload in the server's incremental parser, a `VALUE` payload in the
/// client's reply parser (memcached's default item limit is 1 MiB;
/// 16 MiB leaves headroom for experiments while still bounding a
/// malicious length field).
pub const MAX_DATA_BLOCK: usize = 16 << 20;

/// One step of incremental request extraction from a byte buffer.
/// Borrows from the buffer it was parsed out of; nothing is copied.
#[derive(Debug)]
pub enum NextRequest<'a> {
    /// The buffer does not yet hold a complete request; read more bytes
    /// and try again. Nothing was consumed.
    Incomplete,
    /// A complete request. `line` is the exact slice [`parse_command`]
    /// saw (every key of `cmd` borrows from it), `data` is the
    /// `set`/`cas` payload without its CRLF (empty otherwise), and
    /// `consumed` is the total bytes to drain — terminators and any
    /// skipped blank lines included.
    Request {
        /// The request line, terminator stripped.
        line: &'a [u8],
        /// The parsed command, borrowing `line`.
        cmd: Command<'a>,
        /// `set`/`cas` payload (without trailing CRLF); empty otherwise.
        data: &'a [u8],
        /// Bytes of the buffer this request consumed.
        consumed: usize,
    },
    /// A complete line that failed to parse: answer
    /// `CLIENT_ERROR <msg>` and drain `consumed` bytes — the connection
    /// stays usable.
    Error {
        /// Parse error text for the `CLIENT_ERROR` reply.
        msg: String,
        /// Bytes of the buffer the bad line consumed.
        consumed: usize,
    },
    /// Unrecoverable framing violation (data block not CRLF-terminated,
    /// a `bytes` field beyond [`MAX_DATA_BLOCK`], or no request line
    /// within [`MAX_REQUEST_LINE`] bytes): the stream is desynced and
    /// the connection must close.
    Desync,
}

/// Upper bound on the bytes [`next_request`] scans for a request line,
/// leading blank lines and terminator included. 1 MiB holds a `get` of
/// about 40,000 keys of the longest form `rnb-client` sends (`item:`
/// and 20 digits); a peer that sends more without ending its line is
/// cut off instead of growing its connection's input forever.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// Try to extract one complete request from the front of `buf`.
///
/// Blank lines ahead of the request are skipped silently (their bytes
/// are folded into `consumed`). A request line that does not end within
/// the first [`MAX_REQUEST_LINE`] bytes is [`NextRequest::Desync`],
/// whether or not its terminator has arrived yet.
/// The caller drains `consumed` bytes after handling the result; on
/// [`NextRequest::Incomplete`] nothing may be drained.
pub fn next_request(buf: &[u8]) -> NextRequest<'_> {
    let scanned = &buf[..buf.len().min(MAX_REQUEST_LINE)];
    let mut offset = 0usize;
    loop {
        let rest = &buf[offset..];
        let Some(nl) = scanned[offset..].iter().position(|&b| b == b'\n') else {
            return if scanned.len() == MAX_REQUEST_LINE {
                NextRequest::Desync
            } else {
                NextRequest::Incomplete
            };
        };
        // Strip the terminator the way `read_line` does: the LF and any
        // trailing CRs.
        let mut line_end = nl;
        while line_end > 0 && rest[line_end - 1] == b'\r' {
            line_end -= 1;
        }
        let after_line = offset + nl + 1;
        if line_end == 0 {
            // Blank line: skip and keep scanning.
            offset = after_line;
            continue;
        }
        let line = &rest[..line_end];
        let cmd = match parse_command(line) {
            Ok(cmd) => cmd,
            Err(msg) => {
                return NextRequest::Error {
                    msg,
                    consumed: after_line,
                }
            }
        };
        let body = match cmd {
            Command::Set { bytes, .. } | Command::Cas { bytes, .. } => bytes,
            _ => 0,
        };
        if body == 0 {
            return NextRequest::Request {
                line,
                cmd,
                data: &[],
                consumed: after_line,
            };
        }
        if body > MAX_DATA_BLOCK {
            return NextRequest::Desync;
        }
        // Data block: `body` payload bytes plus the CRLF terminator.
        let end = after_line + body + 2;
        if buf.len() < end {
            return NextRequest::Incomplete;
        }
        if &buf[end - 2..end] != b"\r\n" {
            return NextRequest::Desync;
        }
        return NextRequest::Request {
            line,
            cmd,
            data: &buf[after_line..end - 2],
            consumed: end,
        };
    }
}

/// The token that asks the server not to answer a storage command.
const NOREPLY: &[u8] = b" noreply";

/// Room for the numbers of a stanza line: at most four, each a space and
/// up to 20 digits, then the `noreply` token and the CRLF.
const STANZA_HEAD: usize = 4 * 21 + NOREPLY.len() + 2;

/// Append a space and `value` in decimal at `head[*len..]`.
fn push_decimal(head: &mut [u8; STANZA_HEAD], len: &mut usize, mut value: u64) {
    head[*len] = b' ';
    let start = *len + 1;
    let mut end = start;
    loop {
        // Least significant digit first, put right below.
        head[end] = b'0' + u8::try_from(value % 10).unwrap_or(0);
        end += 1;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    head[start..end].reverse();
    *len = end;
}

/// Write one stanza that carries a data block: `start` (a verb and its
/// space), `key`, ` <n>` for each of `numbers` (at most four), ` noreply`
/// if `noreply`, CRLF, `data`, CRLF. A `VALUE` of a get reply and a
/// storage command (`set <key> <flags> 0 <bytes>`) are both this shape.
/// The numbers are formatted by hand: this runs once per item of every
/// get reply and every stored op, and `write!` costs more than the rest
/// of the stanza.
pub(crate) fn write_stanza<W: Write>(
    w: &mut W,
    start: &[u8],
    key: &[u8],
    numbers: &[u64],
    noreply: bool,
    data: &[u8],
) -> io::Result<()> {
    let mut head = [0u8; STANZA_HEAD];
    let mut len = 0;
    for &number in numbers.iter().take(4) {
        push_decimal(&mut head, &mut len, number);
    }
    for &byte in NOREPLY.iter().filter(|_| noreply) {
        head[len] = byte;
        len += 1;
    }
    head[len] = b'\r';
    head[len + 1] = b'\n';
    w.write_all(start)?;
    w.write_all(key)?;
    w.write_all(&head[..len + 2])?;
    w.write_all(data)?;
    w.write_all(b"\r\n")
}

/// Write one `VALUE` stanza of a get response. `cas` adds the token
/// (the `gets` reply form).
pub fn write_value<W: Write>(
    w: &mut W,
    key: &[u8],
    flags: u32,
    data: &[u8],
    cas: Option<u64>,
) -> io::Result<()> {
    let bytes = u64::try_from(data.len()).unwrap_or_default();
    let numbers = [u64::from(flags), bytes, cas.unwrap_or_default()];
    let numbers = if cas.is_some() {
        &numbers[..]
    } else {
        &numbers[..2]
    };
    write_stanza(w, b"VALUE ", key, numbers, false, data)
}

/// Most bytes a [`write_value`] stanza adds to its key and data: the
/// verb, up to three numbers (flags, length, CAS token) and two CRLFs.
pub const VALUE_FRAME: usize = b"VALUE ".len() + 3 * 21 + 4;

/// Terminate a get/stats response.
pub fn write_end<W: Write>(w: &mut W) -> io::Result<()> {
    w.write_all(reply::END)
}

/// Canned reply lines.
pub mod reply {
    /// The last line of a get or stats reply.
    pub const END: &[u8] = b"END\r\n";
    /// Reply to a successful `set`/`add`/`replace`/`cas`.
    pub const STORED: &[u8] = b"STORED\r\n";
    /// Reply to a conditional store whose condition failed
    /// (`add` on existing / `replace` on missing).
    pub const NOT_STORED: &[u8] = b"NOT_STORED\r\n";
    /// Reply to a `cas` with a stale token.
    pub const EXISTS: &[u8] = b"EXISTS\r\n";
    /// Reply to a `set` refused for memory.
    pub const OOM: &[u8] = b"SERVER_ERROR out of memory storing object\r\n";
    /// Reply to a successful `delete`.
    pub const DELETED: &[u8] = b"DELETED\r\n";
    /// Reply to a `delete`/`cas`/`incr` of a missing key.
    pub const NOT_FOUND: &[u8] = b"NOT_FOUND\r\n";
    /// Reply to `incr`/`decr` on a non-numeric value.
    pub const NON_NUMERIC: &[u8] =
        b"CLIENT_ERROR cannot increment or decrement non-numeric value\r\n";
    /// Version banner.
    pub const VERSION: &[u8] = b"VERSION rnb-store 0.1.0\r\n";
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys_of(cmd: &Command<'_>) -> Vec<Vec<u8>> {
        match cmd {
            Command::Get { keys, .. } => keys.iter().map(<[u8]>::to_vec).collect(),
            other => panic!("expected a get, got {other:?}"),
        }
    }

    #[test]
    fn parse_get_multi() {
        let cmd = parse_command(b"get a bb ccc").unwrap();
        assert_eq!(
            keys_of(&cmd),
            vec![b"a".to_vec(), b"bb".to_vec(), b"ccc".to_vec()]
        );
        assert!(matches!(
            cmd,
            Command::Get {
                with_cas: false,
                ..
            }
        ));
        let cmd = parse_command(b"gets a").unwrap();
        assert!(matches!(cmd, Command::Get { with_cas: true, .. }));
    }

    #[test]
    fn parse_set_with_and_without_noreply() {
        let cmd = parse_command(b"set mykey 7 0 10").unwrap();
        assert_eq!(
            cmd,
            Command::Set {
                verb: StoreVerb::Set,
                key: b"mykey",
                flags: 7,
                exptime: 0,
                bytes: 10,
                noreply: false
            }
        );
        let cmd = parse_command(b"set mykey 0 0 3 noreply").unwrap();
        assert!(matches!(cmd, Command::Set { noreply: true, .. }));
    }

    #[test]
    fn parse_negative_exptime() {
        // Regression: exptime was parsed as u32, so memcached's signed
        // "-1 = already expired" form answered CLIENT_ERROR bad exptime.
        let cmd = parse_command(b"set mykey 7 -1 10").unwrap();
        assert_eq!(
            cmd,
            Command::Set {
                verb: StoreVerb::Set,
                key: b"mykey",
                flags: 7,
                exptime: -1,
                bytes: 10,
                noreply: false
            }
        );
        assert!(matches!(
            parse_command(b"cas k 1 -30 5 42").unwrap(),
            Command::Cas { exptime: -30, .. }
        ));
        assert!(matches!(
            parse_command(b"add k 0 -1 5").unwrap(),
            Command::Set {
                verb: StoreVerb::Add,
                exptime: -1,
                ..
            }
        ));
        assert!(parse_command(b"set k 0 - 5").is_err(), "bare dash");
        assert!(parse_command(b"set k 0 -x 5").is_err());
    }

    #[test]
    fn parse_add_replace_cas_arith() {
        assert!(matches!(
            parse_command(b"add k 0 0 5").unwrap(),
            Command::Set {
                verb: StoreVerb::Add,
                ..
            }
        ));
        assert!(matches!(
            parse_command(b"replace k 0 60 5").unwrap(),
            Command::Set {
                verb: StoreVerb::Replace,
                exptime: 60,
                ..
            }
        ));
        assert_eq!(
            parse_command(b"cas k 1 0 5 42").unwrap(),
            Command::Cas {
                key: b"k",
                flags: 1,
                exptime: 0,
                bytes: 5,
                cas: 42,
                noreply: false
            }
        );
        assert_eq!(
            parse_command(b"incr n 3").unwrap(),
            Command::Arith {
                key: b"n",
                delta: 3,
                negative: false,
                noreply: false
            }
        );
        assert!(matches!(
            parse_command(b"decr n 1 noreply").unwrap(),
            Command::Arith {
                negative: true,
                noreply: true,
                ..
            }
        ));
        assert!(
            parse_command(b"cas k 1 0 5").is_err(),
            "cas requires a token"
        );
        assert!(parse_command(b"incr n").is_err());
        assert!(parse_command(b"incr n x").is_err());
    }

    #[test]
    fn parse_delete_stats_version_quit() {
        assert_eq!(
            parse_command(b"delete k").unwrap(),
            Command::Delete {
                key: b"k",
                noreply: false
            }
        );
        assert_eq!(parse_command(b"stats").unwrap(), Command::Stats);
        assert_eq!(parse_command(b"version").unwrap(), Command::Version);
        assert_eq!(parse_command(b"quit").unwrap(), Command::Quit);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_command(b"").is_err());
        assert!(parse_command(b"bogus x").is_err());
        assert!(parse_command(b"get").is_err());
        assert!(parse_command(b"set k x 0 5").is_err());
        assert!(parse_command(b"set k 0 0 5 replyno").is_err());
        assert!(parse_command(&[0xff, 0xfe]).is_err());
    }

    #[test]
    fn key_validation() {
        let long = vec![b'k'; 251];
        assert!(parse_command(&[b"get ", &long[..]].concat()).is_err());
        let ok = vec![b'k'; 250];
        assert!(parse_command(&[b"get ", &ok[..]].concat()).is_ok());
    }

    #[test]
    fn read_line_handles_crlf_lf_eof() {
        let mut cursor = io::Cursor::new(b"abc\r\ndef\nxyz".to_vec());
        assert_eq!(read_line(&mut cursor).unwrap(), Some(b"abc".to_vec()));
        assert_eq!(read_line(&mut cursor).unwrap(), Some(b"def".to_vec()));
        assert_eq!(read_line(&mut cursor).unwrap(), Some(b"xyz".to_vec()));
        assert_eq!(read_line(&mut cursor).unwrap(), None);
    }

    mod fuzz {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            /// The parser never panics on arbitrary input.
            #[test]
            fn parse_never_panics(line in proptest::collection::vec(any::<u8>(), 0..120)) {
                let _ = parse_command(&line);
            }

            /// Well-formed generated commands parse to the right variant.
            #[test]
            fn valid_commands_parse(
                key in "[a-zA-Z0-9_.-]{1,40}",
                flags in any::<u32>(),
                bytes in 0usize..65536,
                delta in any::<u64>(),
            ) {
                let set = format!("set {key} {flags} 0 {bytes}");
                let set_ok = matches!(
                    parse_command(set.as_bytes()),
                    Ok(Command::Set { verb: StoreVerb::Set, .. })
                );
                prop_assert!(set_ok);
                let get = format!("get {key}");
                let get_ok = matches!(parse_command(get.as_bytes()), Ok(Command::Get { .. }));
                prop_assert!(get_ok);
                let incr = format!("incr {key} {delta}");
                let incr_ok =
                    matches!(parse_command(incr.as_bytes()), Ok(Command::Arith { .. }));
                prop_assert!(incr_ok);
            }

            /// Get key lists of any shape: iter() yields exactly the
            /// generated keys, in order, however they are spaced.
            #[test]
            fn get_keys_iter_yields_the_keys(
                keys in proptest::collection::vec("[a-zA-Z0-9_.-]{1,20}", 1..12),
                pad in proptest::collection::vec(0usize..3, 1..13),
            ) {
                let mut line = String::from("get");
                for (i, k) in keys.iter().enumerate() {
                    for _ in 0..1 + pad.get(i).copied().unwrap_or(0) {
                        line.push(if i % 2 == 0 { ' ' } else { '\t' });
                    }
                    line.push_str(k);
                }
                let parsed = parse_command(line.as_bytes()).unwrap();
                let Command::Get { keys: got, .. } = parsed else {
                    panic!("not a get");
                };
                prop_assert_eq!(got.len(), keys.len());
                let by_iter: Vec<&[u8]> = got.iter().collect();
                let want: Vec<&[u8]> = keys.iter().map(String::as_bytes).collect();
                prop_assert_eq!(by_iter, want);
            }

            /// The one-scan key count answers every `get` line exactly
            /// as splitting on ASCII whitespace and validating each key
            /// does: the same count, or the same first error.
            #[test]
            fn get_key_scan_matches_split_and_validate(
                tail in proptest::collection::vec(
                    prop_oneof![
                        Just(b' '), Just(b'\t'), Just(b'\r'), Just(0x0b_u8), Just(0x0c_u8),
                        Just(0x01_u8), Just(0x7f_u8), Just(b'k'), Just(b'~'), Just(0xc3_u8),
                    ],
                    0..600,
                ),
            ) {
                let by_split = tail
                    .split(u8::is_ascii_whitespace)
                    .filter(|key| !key.is_empty())
                    .try_fold(0usize, |n, key| validate_key(key).map(|()| n + 1));
                prop_assert_eq!(count_keys(&tail), by_split);
            }

            /// Binary values of any content survive a write_value/read
            /// round-trip through the wire format.
            #[test]
            fn value_roundtrip(
                key in "[a-z0-9]{1,30}",
                data in proptest::collection::vec(any::<u8>(), 0..2000),
                flags in any::<u32>(),
            ) {
                let mut wire = Vec::new();
                write_value(&mut wire, key.as_bytes(), flags, &data, None).unwrap();
                let mut cursor = std::io::Cursor::new(wire);
                let header = read_line(&mut cursor).unwrap().unwrap();
                let text = String::from_utf8(header).unwrap();
                let mut parts = text.split_whitespace();
                prop_assert_eq!(parts.next(), Some("VALUE"));
                prop_assert_eq!(parts.next(), Some(key.as_str()));
                prop_assert_eq!(parts.next().unwrap().parse::<u32>().unwrap(), flags);
                let len: usize = parts.next().unwrap().parse().unwrap();
                prop_assert_eq!(len, data.len());
                let at = usize::try_from(cursor.position()).unwrap();
                let block = &cursor.get_ref()[at..];
                prop_assert_eq!(&block[..len], &data[..]);
                prop_assert_eq!(&block[len..], b"\r\n");
            }
        }
    }

    #[test]
    fn value_stanza_format() {
        let mut out = Vec::new();
        write_value(&mut out, b"k1", 9, b"0123456789", None).unwrap();
        write_end(&mut out).unwrap();
        assert_eq!(&out[..], b"VALUE k1 9 10\r\n0123456789\r\nEND\r\n");
        let mut with_cas = Vec::new();
        write_value(&mut with_cas, b"k1", 9, b"ab", Some(77)).unwrap();
        assert_eq!(&with_cas[..], b"VALUE k1 9 2 77\r\nab\r\n");
        // The hand-rolled decimals at their extremes: zero and all digits.
        let mut widest = Vec::new();
        write_value(&mut widest, b"k", u32::MAX, b"", Some(u64::MAX)).unwrap();
        assert_eq!(
            &widest[..],
            b"VALUE k 4294967295 0 18446744073709551615\r\n\r\n"
        );
        // VALUE_FRAME bounds the frame, even with a length of 20 digits.
        assert!(widest.len() - 1 + 19 <= VALUE_FRAME);
        // A storage command is the same stanza; four numbers, all digits,
        // and the widest line of all carries `noreply` too.
        let mut cas = Vec::new();
        let numbers = [u64::from(u32::MAX), 0, u64::MAX, u64::MAX];
        write_stanza(&mut cas, b"cas ", b"k", &numbers, false, b"v").unwrap();
        let line = b"cas k 4294967295 0 18446744073709551615 18446744073709551615\r\nv\r\n";
        assert_eq!(&cas[..], line);
        let mut quiet = Vec::new();
        write_stanza(&mut quiet, b"cas ", b"k", &numbers, true, b"v").unwrap();
        let line = b"cas k 4294967295 0 18446744073709551615 18446744073709551615 noreply\r\nv\r\n";
        assert_eq!(&quiet[..], line);
        let Ok(Command::Cas { noreply: true, .. }) = parse_command(&line[..line.len() - 5]) else {
            panic!("the server must read its own noreply form");
        };
    }

    #[test]
    fn tokens_split_on_ascii_whitespace_only() {
        // Keys are bytes: a non-ASCII Unicode space is part of the key,
        // not a separator (the wire format knows ASCII blanks only).
        let line = "get a\u{2003}b\tc".as_bytes();
        let Ok(Command::Get { keys, .. }) = parse_command(line) else {
            panic!("not a get");
        };
        let got: Vec<&[u8]> = keys.iter().collect();
        assert_eq!(got, ["a\u{2003}b".as_bytes(), b"c"]);
    }

    #[test]
    fn get_key_errors_keep_their_text() {
        let err = |line: &[u8]| parse_command(line).unwrap_err();
        let long = [&b"get ok "[..], &[b'k'; 251][..], b" "].concat();
        assert_eq!(err(&long), "key longer than 250");
        assert_eq!(
            err(b"get ok key toolong"),
            "key contains control or space characters"
        );
        assert_eq!(err(b"get  \t "), "get requires at least one key");
        assert_eq!(err(b"get a \xff"), "non-utf8 command line");
    }

    #[test]
    fn next_request_simple_line() {
        match next_request(b"version\r\nget a\r\n") {
            NextRequest::Request {
                cmd: Command::Version,
                data,
                consumed,
                ..
            } => {
                assert!(data.is_empty());
                assert_eq!(consumed, 9);
            }
            other => panic!("expected version, got {other:?}"),
        }
    }

    #[test]
    fn next_request_incomplete_line_consumes_nothing() {
        assert!(matches!(next_request(b""), NextRequest::Incomplete));
        assert!(matches!(next_request(b"get a"), NextRequest::Incomplete));
        assert!(matches!(
            next_request(b"set k 0 0 2\r\nx"),
            NextRequest::Incomplete
        ));
        // Payload present but terminator still in flight.
        assert!(matches!(
            next_request(b"set k 0 0 2\r\nxy\r"),
            NextRequest::Incomplete
        ));
    }

    #[test]
    fn next_request_set_with_data_block() {
        let buf = b"set k 3 0 2\r\nxy\r\nget k\r\n";
        match next_request(buf) {
            NextRequest::Request {
                cmd: Command::Set { key, bytes, .. },
                data,
                consumed,
                ..
            } => {
                assert_eq!(key, b"k");
                assert_eq!(bytes, 2);
                assert_eq!(data, b"xy");
                assert_eq!(consumed, 17);
            }
            other => panic!("expected set, got {other:?}"),
        }
    }

    #[test]
    fn next_request_get_keys_borrow_the_returned_line() {
        match next_request(b"get aa b\r\n") {
            NextRequest::Request {
                line,
                cmd: Command::Get { keys, .. },
                ..
            } => {
                assert_eq!(line, b"get aa b");
                let got: Vec<&[u8]> = keys.iter().collect();
                assert_eq!(got, vec![&b"aa"[..], &b"b"[..]]);
            }
            other => panic!("expected get, got {other:?}"),
        }
    }

    #[test]
    fn next_request_skips_blank_lines_and_counts_them() {
        match next_request(b"\r\n\nversion\r\n") {
            NextRequest::Request {
                cmd: Command::Version,
                consumed,
                ..
            } => assert_eq!(consumed, 12),
            other => panic!("expected version, got {other:?}"),
        }
    }

    #[test]
    fn next_request_parse_error_keeps_connection() {
        match next_request(b"frobnicate\r\nversion\r\n") {
            NextRequest::Error { msg, consumed } => {
                assert!(msg.contains("unknown command"), "{msg}");
                assert_eq!(consumed, 12);
            }
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn next_request_desync_on_bad_terminator_or_huge_block() {
        assert!(matches!(
            next_request(b"set k 0 0 2\r\nxyQQget k\r\n"),
            NextRequest::Desync
        ));
        let huge = format!("set k 0 0 {}\r\n", MAX_DATA_BLOCK + 1);
        assert!(matches!(next_request(huge.as_bytes()), NextRequest::Desync));
    }
}
