//! Blocking client for the memcached text protocol.
//!
//! Replies are parsed where they land: a status line or a `VALUE`
//! header is read in place in the [`BufReader`]'s buffer, and a data
//! block is handed to the caller as a slice of that buffer. Only a line
//! or block that straddles the buffer's end is copied, into one
//! per-connection spill buffer. [`StoreClient::recv_values`] is the one
//! `get` reply parser of the workspace; the `Vec`-returning entry points
//! collect from it.

use crate::protocol::{write_stanza, MAX_DATA_BLOCK};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// Read-buffer size. A `get` reply is parsed in place only while it
/// sits whole in this buffer, and std's 8 KiB default is smaller than
/// one bundled transaction of 1 KiB values (ten of them already spill);
/// 32 KiB holds a transaction of thirty. The pages are touched only as
/// far as replies actually reach.
const READ_BUF: usize = 32 << 10;

/// Longest reply line accepted. The longest legitimate one is a `VALUE`
/// header carrying a 250-byte key; a peer that streams bytes without a
/// line end is cut off here instead of growing the spill buffer forever.
const MAX_REPLY_LINE: usize = 4096;

/// A blocking connection to a [`crate::StoreServer`] (or any
/// text-protocol memcached).
pub struct StoreClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// Holds the one reply line or data block that straddles the end of
    /// `reader`'s buffer; everything else is parsed in place.
    spill: Vec<u8>,
}

/// One operation of a pipelined storage burst
/// ([`StoreClient::send_storage_batch`] /
/// [`StoreClient::recv_storage_batch`]). Borrows the caller's key and
/// value bytes: the send half copies them straight into the socket
/// buffer, so a burst costs no per-op allocation.
#[derive(Debug, Clone, Copy)]
pub enum StorageOp<'a> {
    /// `set key flags 0 len[ noreply]` + data block → `STORED`, or
    /// nothing at all when quiet.
    Set {
        /// Key bytes (no spaces or control characters).
        key: &'a [u8],
        /// Value bytes.
        value: &'a [u8],
        /// Opaque client flags echoed back on reads.
        flags: u32,
        /// Quiet: the server answers nothing, whatever the outcome, so
        /// the receive half reads nothing for it either.
        noreply: bool,
    },
    /// `delete key` → `DELETED` / `NOT_FOUND`.
    Delete {
        /// Key bytes.
        key: &'a [u8],
    },
}

fn proto_err(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The reader's buffered bytes, reading from the socket only when there
/// are none; an empty read is the peer closing mid-reply.
fn buffered(reader: &mut BufReader<TcpStream>) -> io::Result<&[u8]> {
    let buf = reader.fill_buf()?;
    if buf.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed",
        ));
    }
    Ok(buf)
}

fn line_end(buf: &[u8]) -> Option<usize> {
    buf.iter().position(|&b| b == b'\n')
}

/// Slow path of line reading: gather the next line, terminator
/// included, into `spill`, consuming it from `reader`. Bounded, so a
/// peer that never ends its line is an error and not a memory leak.
fn spill_line(reader: &mut BufReader<TcpStream>, spill: &mut Vec<u8>) -> io::Result<()> {
    spill.clear();
    loop {
        let buf = buffered(reader)?;
        let (take, done) = match line_end(buf) {
            Some(nl) => (nl + 1, true),
            None => (buf.len(), false),
        };
        if spill.len() + take > MAX_REPLY_LINE {
            return Err(proto_err(format!(
                "reply line longer than {MAX_REPLY_LINE} bytes"
            )));
        }
        spill.extend_from_slice(&buf[..take]);
        reader.consume(take);
        if done {
            return Ok(());
        }
    }
}

/// The unsigned decimal number at the front of `rest` and what follows
/// it; `None` without a digit or on overflow.
fn leading_decimal(rest: &[u8]) -> Option<(u64, &[u8])> {
    let mut number = 0u64;
    let mut digits = 0;
    for &byte in rest {
        let digit = byte.wrapping_sub(b'0');
        if digit > 9 {
            break;
        }
        number = number.checked_mul(10)?.checked_add(u64::from(digit))?;
        digits += 1;
    }
    (digits > 0).then_some((number, &rest[digits..]))
}

/// One line of a `get` reply.
enum GetLine<'a> {
    /// `END`: the reply is complete.
    End,
    /// `VALUE <key> <flags> <len> [<cas>]`: a data block of `len` bytes
    /// follows.
    Value {
        key: &'a [u8],
        flags: u32,
        len: usize,
        cas: u64,
    },
}

/// One forward pass over the `get` reply line at the front of `buf`:
/// the line and its length, terminator included. `Ok(None)` when `buf`
/// does not start with a whole well-formed line — it may be cut short by
/// the buffer's end, or it may be no reply line at all; the caller tells
/// by completing it. The length of the block is the peer's word for how
/// much to read next, so it is bounded here, before anything is sized by
/// it.
fn parse_get_line(buf: &[u8], with_cas: bool) -> io::Result<Option<(GetLine<'_>, usize)>> {
    // Where the line ends, if nothing but its terminator is left of it.
    let ends_at = |rest: &[u8]| {
        let rest = rest.strip_prefix(b"\r").unwrap_or(rest);
        Some(buf.len() - rest.strip_prefix(b"\n")?.len())
    };
    let Some(rest) = buf.strip_prefix(b"VALUE ") else {
        let end = buf.strip_prefix(b"END").and_then(ends_at);
        return Ok(end.map(|used| (GetLine::End, used)));
    };
    let fields = || {
        let key_len = rest.iter().position(|&b| b == b' ')?;
        let (key, rest) = (&rest[..key_len], &rest[key_len + 1..]);
        let (flags, rest) = leading_decimal(rest)?;
        let (len, rest) = leading_decimal(rest.strip_prefix(b" ")?)?;
        let (cas, rest) = if with_cas {
            leading_decimal(rest.strip_prefix(b" ")?)?
        } else {
            (0, rest)
        };
        (!key.is_empty()).then_some((key, flags, len, cas, ends_at(rest)?))
    };
    let Some((key, flags, len, cas, used)) = fields() else {
        return Ok(None);
    };
    let flags = u32::try_from(flags).map_err(|_| proto_err("VALUE flags out of range".into()))?;
    let len = usize::try_from(len)
        .ok()
        .filter(|len| *len <= MAX_DATA_BLOCK)
        .ok_or_else(|| proto_err(format!("VALUE length over the {MAX_DATA_BLOCK}-byte limit")))?;
    let line = GetLine::Value {
        key,
        flags,
        len,
        cas,
    };
    Ok(Some((line, used)))
}

/// Index of the requested key a `VALUE` line answers. The server
/// answers in request order, so the key at `cursor` is the usual match;
/// a key the server skipped as a miss moves the match forward, and the
/// scan wraps so a peer that reorders is still served. `None`: no
/// requested key matches.
fn locate<'k>(
    key: &[u8],
    count: usize,
    key_at: &impl Fn(usize) -> &'k [u8],
    cursor: &mut usize,
) -> Option<usize> {
    let from = if *cursor < count { *cursor } else { 0 };
    let found = (from..count).chain(0..from).find(|&i| key_at(i) == key)?;
    *cursor = found + 1;
    Some(found)
}

impl StoreClient {
    /// Connect to `addr`.
    pub fn connect(addr: SocketAddr) -> io::Result<StoreClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(StoreClient {
            reader: BufReader::with_capacity(READ_BUF, stream.try_clone()?),
            writer: BufWriter::new(stream),
            spill: Vec::new(),
        })
    }

    /// `set key flags 0 len` + data. Errors on a non-`STORED` reply.
    pub fn set(&mut self, key: &[u8], value: &[u8], flags: u32) -> io::Result<()> {
        self.write_storage(b"set ", key, value, flags, None, false)?;
        self.writer.flush()?;
        self.reply_line(|line| match line {
            b"STORED" => Ok(()),
            other => Err(proto_err(format!(
                "set failed: {}",
                String::from_utf8_lossy(other)
            ))),
        })
    }

    /// Multi-get. Returns, per requested key, `Some((data, flags))` on a
    /// hit and `None` on a miss. An empty key slice is answered locally
    /// with `Ok(vec![])` — no wire round-trip (and no panic: this is
    /// caller input, not a library invariant).
    #[allow(clippy::type_complexity)]
    pub fn get_multi(&mut self, keys: &[&[u8]]) -> io::Result<Vec<Option<(Vec<u8>, u32)>>> {
        self.send_gets(keys, false)?;
        self.recv_get_multi(keys)
    }

    /// `gets` multi-get: like [`StoreClient::get_multi`] but each hit also
    /// carries its CAS token.
    #[allow(clippy::type_complexity)]
    pub fn gets_multi(&mut self, keys: &[&[u8]]) -> io::Result<Vec<Option<(Vec<u8>, u32, u64)>>> {
        self.send_gets(keys, true)?;
        self.collect_values(keys, true, |data, flags, cas| (data, flags, cas))
    }

    /// Pipelining half 1: send a multi-get request without reading the
    /// reply. Pair each call with [`StoreClient::recv_get_multi`] (same
    /// keys, same order) on this connection; interleaving other
    /// operations between the two desyncs the stream.
    pub fn send_get_multi(&mut self, keys: &[&[u8]]) -> io::Result<()> {
        self.send_gets(keys, false)
    }

    /// Pipelining half 2: read the reply to an earlier
    /// [`StoreClient::send_get_multi`] with the same keys.
    #[allow(clippy::type_complexity)]
    pub fn recv_get_multi(&mut self, keys: &[&[u8]]) -> io::Result<Vec<Option<(Vec<u8>, u32)>>> {
        self.collect_values(keys, false, |data, flags, _cas| (data, flags))
    }

    fn send_gets(&mut self, keys: &[&[u8]], with_cas: bool) -> io::Result<()> {
        if keys.is_empty() {
            return Ok(());
        }
        self.writer
            .write_all(if with_cas { b"gets" } else { b"get" })?;
        for key in keys {
            self.writer.write_all(b" ")?;
            self.writer.write_all(key)?;
        }
        self.writer.write_all(b"\r\n")?;
        self.writer.flush()
    }

    /// [`StoreClient::recv_values`] collected into one owned slot per
    /// requested key.
    fn collect_values<T>(
        &mut self,
        keys: &[&[u8]],
        with_cas: bool,
        hit: impl Fn(Vec<u8>, u32, u64) -> T,
    ) -> io::Result<Vec<Option<T>>> {
        let mut out: Vec<Option<T>> = keys.iter().map(|_| None).collect();
        self.recv_values(
            keys.len(),
            |i| keys[i],
            with_cas,
            |i, data, flags, cas| out[i] = Some(hit(data.to_vec(), flags, cas)),
        )?;
        Ok(out)
    }

    /// Send request bytes the caller has already encoded (one or more
    /// whole command lines) with a single write, bypassing the write
    /// buffer's copy. Pair a `get`/`gets` line with
    /// [`StoreClient::recv_values`] over the same keys.
    pub fn send_request(&mut self, request: &[u8]) -> io::Result<()> {
        // Every operation ends flushed, so nothing can overtake.
        self.writer.flush()?;
        self.writer.get_mut().write_all(request)
    }

    /// Read one `get`/`gets` reply — `VALUE` blocks up to `END` — and
    /// hand each hit to `hit(index, data, flags, cas)`, where `index` is
    /// the position of the answered key among the `count` requested
    /// ones (`key_at(i)` is the i-th) and `data` borrows the connection's
    /// read buffer: nothing is allocated or copied unless a line or a
    /// block straddles the buffer's end. A key requested twice is
    /// answered twice and each answer fills its own index; keys that
    /// missed are simply never handed over. `cas` is 0 without
    /// `with_cas`. `count == 0` means nothing was sent, so nothing is
    /// read.
    ///
    /// Errors leave the stream desynced and the connection must not be
    /// reused: a `VALUE` for a key that was not requested (the telltale
    /// of a reply left over from an earlier, failed request), a block
    /// not CRLF-terminated, a length over [`MAX_DATA_BLOCK`], or any
    /// other line.
    pub fn recv_values<'k>(
        &mut self,
        count: usize,
        key_at: impl Fn(usize) -> &'k [u8],
        with_cas: bool,
        mut hit: impl FnMut(usize, &[u8], u32, u64),
    ) -> io::Result<()> {
        if count == 0 {
            return Ok(());
        }
        let StoreClient { reader, spill, .. } = self;
        let mut cursor = 0;
        loop {
            // The header: in place when the buffer holds its whole line
            // (then `skip` bytes of header stay unconsumed, so that the
            // block can be taken from the same buffer). Otherwise the
            // line is completed in the spill buffer, where it must parse.
            let buf = buffered(reader)?;
            let (line, skip) = match parse_get_line(buf, with_cas)? {
                Some(parsed) => parsed,
                None => {
                    spill_line(reader, spill)?;
                    let (line, _) = parse_get_line(spill, with_cas)?.ok_or_else(|| {
                        proto_err(format!(
                            "unexpected get reply: {}",
                            String::from_utf8_lossy(spill).trim_end()
                        ))
                    })?;
                    (line, 0)
                }
            };
            let GetLine::Value {
                key,
                flags,
                len,
                cas,
            } = line
            else {
                reader.consume(skip);
                return Ok(());
            };
            let index = locate(key, count, &key_at, &mut cursor).ok_or_else(|| {
                proto_err(format!(
                    "VALUE for unrequested key {:?}",
                    String::from_utf8_lossy(key)
                ))
            })?;

            // The block and its CRLF, in place when the buffer holds
            // them whole (`used` bytes of it are then spent), spilled
            // otherwise. `len` is bounded, so `len + 2` cannot overflow.
            let need = len + 2;
            let buf = buffered(reader)?;
            let (block, used) = if buf.len() >= skip + need {
                (&buf[skip..skip + need], skip + need)
            } else {
                reader.consume(skip);
                spill.clear();
                spill.resize(need, 0);
                reader.read_exact(spill)?;
                (&spill[..], 0)
            };
            if &block[len..] != b"\r\n" {
                return Err(proto_err("data block not CRLF-terminated".into()));
            }
            hit(index, &block[..len], flags, cas);
            reader.consume(used);
        }
    }

    /// Read one reply line (terminator stripped) and hand it to `read`
    /// where it lies: in the read buffer, or in the spill buffer when it
    /// straddles the buffer's end.
    fn reply_line<T>(&mut self, read: impl FnOnce(&[u8]) -> io::Result<T>) -> io::Result<T> {
        let StoreClient { reader, spill, .. } = self;
        let buf = buffered(reader)?;
        match line_end(buf) {
            Some(nl) => {
                let out = read(buf[..nl].trim_ascii_end());
                reader.consume(nl + 1);
                out
            }
            None => {
                spill_line(reader, spill)?;
                read(spill.trim_ascii_end())
            }
        }
    }

    /// One storage command with its data block: `<verb> key flags 0
    /// len[ token][ noreply]`, the numbers formatted by hand (`write!`
    /// costs more than the rest of the command). `verb` ends in its space.
    fn write_storage(
        &mut self,
        verb: &[u8],
        key: &[u8],
        value: &[u8],
        flags: u32,
        token: Option<u64>,
        noreply: bool,
    ) -> io::Result<()> {
        let bytes = u64::try_from(value.len()).unwrap_or_default();
        let numbers = [u64::from(flags), 0, bytes, token.unwrap_or_default()];
        let numbers = if token.is_some() {
            &numbers[..]
        } else {
            &numbers[..3]
        };
        write_stanza(&mut self.writer, verb, key, numbers, noreply, value)
    }

    /// Pipelining half 1 of the write path: write every storage command
    /// of `ops` into the socket with a single flush, without reading any
    /// reply. Pair each call with [`StoreClient::recv_storage_batch`]
    /// (same ops, same order) on this connection; interleaving other
    /// operations between the two halves desyncs the stream. An empty
    /// burst sends nothing. `ops` is a slice or any iterator of ops, so a
    /// caller can build them as they go out instead of collecting them.
    pub fn send_storage_batch<'a, I>(&mut self, ops: I) -> io::Result<()>
    where
        I: IntoIterator,
        I::Item: Borrow<StorageOp<'a>>,
    {
        for op in ops {
            match *op.borrow() {
                StorageOp::Set {
                    key,
                    value,
                    flags,
                    noreply,
                } => self.write_storage(b"set ", key, value, flags, None, noreply)?,
                StorageOp::Delete { key } => {
                    self.writer.write_all(b"delete ")?;
                    self.writer.write_all(key)?;
                    self.writer.write_all(b"\r\n")?;
                }
            }
        }
        self.writer.flush()
    }

    /// Pipelining half 2 of the write path: read one status line per
    /// acknowledged op of an earlier [`StoreClient::send_storage_batch`]
    /// with the same ops. `acks` is cleared and refilled positionally:
    /// `true` for `STORED`/`DELETED` and for a quiet op, which is
    /// answered by nothing and so reads nothing; `false` for a `delete`
    /// that found nothing. Any other reply (e.g. `SERVER_ERROR out of
    /// memory`) is a protocol error — the stream may hold further
    /// replies, so the caller must treat the connection as broken.
    pub fn recv_storage_batch<'a, I>(&mut self, ops: I, acks: &mut Vec<bool>) -> io::Result<()>
    where
        I: IntoIterator,
        I::Item: Borrow<StorageOp<'a>>,
    {
        acks.clear();
        for op in ops {
            if let StorageOp::Set { noreply: true, .. } = op.borrow() {
                acks.push(true);
                continue;
            }
            let ack = self.reply_line(|line| match (op.borrow(), line) {
                (StorageOp::Set { .. }, b"STORED") => Ok(true),
                (StorageOp::Delete { .. }, b"DELETED") => Ok(true),
                (StorageOp::Delete { .. }, b"NOT_FOUND") => Ok(false),
                (StorageOp::Set { .. }, other) => Err(proto_err(format!(
                    "batched set: {}",
                    String::from_utf8_lossy(other)
                ))),
                (StorageOp::Delete { .. }, other) => Err(proto_err(format!(
                    "batched delete: {}",
                    String::from_utf8_lossy(other)
                ))),
            })?;
            acks.push(ack);
        }
        Ok(())
    }

    /// `add`: true if stored (key was absent).
    pub fn add(&mut self, key: &[u8], value: &[u8], flags: u32) -> io::Result<bool> {
        self.store_like(b"add ", key, value, flags, None)
    }

    /// `replace`: true if stored (key existed).
    pub fn replace(&mut self, key: &[u8], value: &[u8], flags: u32) -> io::Result<bool> {
        self.store_like(b"replace ", key, value, flags, None)
    }

    /// `cas`: `Ok(true)` if swapped, `Ok(false)` on a stale token or a
    /// missing key.
    pub fn cas(&mut self, key: &[u8], value: &[u8], flags: u32, token: u64) -> io::Result<bool> {
        self.store_like(b"cas ", key, value, flags, Some(token))
    }

    fn store_like(
        &mut self,
        verb: &[u8],
        key: &[u8],
        value: &[u8],
        flags: u32,
        token: Option<u64>,
    ) -> io::Result<bool> {
        self.write_storage(verb, key, value, flags, token, false)?;
        self.writer.flush()?;
        self.reply_line(|line| match line {
            b"STORED" => Ok(true),
            b"NOT_STORED" | b"EXISTS" | b"NOT_FOUND" => Ok(false),
            other => Err(proto_err(format!(
                "{}: {}",
                String::from_utf8_lossy(verb).trim_end(),
                String::from_utf8_lossy(other)
            ))),
        })
    }

    /// `incr`/`decr`; `Ok(None)` if the key is missing.
    pub fn arith(&mut self, key: &[u8], delta: u64, negative: bool) -> io::Result<Option<u64>> {
        write!(self.writer, "{} ", if negative { "decr" } else { "incr" })?;
        self.writer.write_all(key)?;
        write!(self.writer, " {delta}\r\n")?;
        self.writer.flush()?;
        self.reply_line(|line| {
            if line == b"NOT_FOUND" {
                return Ok(None);
            }
            match leading_decimal(line.trim_ascii()) {
                Some((value, [])) => Ok(Some(value)),
                _ => Err(proto_err(format!(
                    "arith reply: {}",
                    String::from_utf8_lossy(line)
                ))),
            }
        })
    }

    /// `delete key`; true if the server deleted it.
    pub fn delete(&mut self, key: &[u8]) -> io::Result<bool> {
        self.writer.write_all(b"delete ")?;
        self.writer.write_all(key)?;
        self.writer.write_all(b"\r\n")?;
        self.writer.flush()?;
        self.reply_line(|line| match line {
            b"DELETED" => Ok(true),
            b"NOT_FOUND" => Ok(false),
            other => Err(proto_err(format!(
                "delete: {}",
                String::from_utf8_lossy(other)
            ))),
        })
    }

    /// `stats` as a name → value map.
    pub fn stats(&mut self) -> io::Result<HashMap<String, String>> {
        self.writer.write_all(b"stats\r\n")?;
        self.writer.flush()?;
        let mut out = HashMap::new();
        loop {
            let text = self.expect_line()?;
            if text == "END" {
                break;
            }
            let mut parts = text.split_whitespace();
            if parts.next() != Some("STAT") {
                return Err(proto_err(format!("unexpected stats reply: {text}")));
            }
            let name = parts.next().unwrap_or_default().to_string();
            let value = parts.next().unwrap_or_default().to_string();
            out.insert(name, value);
        }
        Ok(out)
    }

    /// `version` banner.
    pub fn version(&mut self) -> io::Result<String> {
        self.writer.write_all(b"version\r\n")?;
        self.writer.flush()?;
        self.expect_line()
    }

    /// Send a raw line and return the single reply line (test helper for
    /// error paths).
    pub fn raw_command(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        self.expect_line()
    }

    /// The next reply line as owned text (the rare, free-form replies).
    fn expect_line(&mut self) -> io::Result<String> {
        self.reply_line(|line| Ok(String::from_utf8_lossy(line).into_owned()))
    }
}

// Client behaviour is exercised end-to-end in `server::tests` and the
// load-generator tests; unit tests here cover argument validation.
#[cfg(test)]
mod tests {
    use super::*;

    use std::io::Read;
    use std::net::TcpListener;
    use std::sync::mpsc;

    #[test]
    fn connect_to_closed_port_fails() {
        // Port 1 on loopback is essentially never listening.
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        assert!(StoreClient::connect(addr).is_err());
    }

    /// A scripted one-connection "server": accepts, reads one request,
    /// writes `reply` verbatim, holds the socket open until the client
    /// is done. The receiver fires once the whole reply is written, so
    /// a test that waits for it knows what the client's reads will find.
    fn scripted_server(reply: Vec<u8>) -> (SocketAddr, mpsc::Receiver<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (written, wait) = mpsc::channel();
        std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut buf = [0u8; 512];
            let _ = conn.read(&mut buf);
            conn.write_all(&reply).unwrap();
            let _ = written.send(());
            // Hold until the client disconnects.
            let _ = conn.read(&mut buf);
        });
        (addr, wait)
    }

    fn fake_server(reply: &'static [u8]) -> SocketAddr {
        scripted_server(reply.to_vec()).0
    }

    /// `get` `keys` from a server scripted to answer `reply`.
    #[allow(clippy::type_complexity)]
    fn get_from(reply: &'static [u8], keys: &[&[u8]]) -> io::Result<Vec<Option<(Vec<u8>, u32)>>> {
        StoreClient::connect(fake_server(reply))
            .unwrap()
            .get_multi(keys)
    }

    #[test]
    fn empty_key_slice_is_answered_locally() {
        // Regression: this used to `assert!` — a library panic reachable
        // from caller input. The fake server never responds, so any wire
        // round-trip would hang or error; `Ok(vec![])` proves no bytes
        // moved.
        let addr = fake_server(b"");
        let mut client = StoreClient::connect(addr).unwrap();
        assert_eq!(client.get_multi(&[]).unwrap(), vec![]);
        assert_eq!(client.gets_multi(&[]).unwrap(), vec![]);
        // The connection is still usable for the pipelined halves too.
        client.send_get_multi(&[]).unwrap();
        assert_eq!(client.recv_get_multi(&[]).unwrap(), vec![]);
    }

    #[test]
    fn storage_batch_halves_round_trip() {
        // One flush carries the whole burst; one status line per
        // acknowledged op comes back positionally, none for a quiet one.
        let addr = fake_server(b"STORED\r\nDELETED\r\nNOT_FOUND\r\n");
        let mut client = StoreClient::connect(addr).unwrap();
        let set = |key, noreply| StorageOp::Set {
            key,
            value: b"v1",
            flags: 7,
            noreply,
        };
        let ops = [
            set(b"a", false),
            set(b"q", true),
            StorageOp::Delete { key: b"a" },
            StorageOp::Delete { key: b"ghost" },
        ];
        client.send_storage_batch(&ops).unwrap();
        let mut acks = Vec::new();
        client.recv_storage_batch(&ops, &mut acks).unwrap();
        assert_eq!(acks, vec![true, true, true, false]);
        // A burst of quiet ops alone reads nothing: the scripted server
        // has no reply left, so a read would hang.
        client.send_storage_batch(&ops[1..2]).unwrap();
        client.recv_storage_batch(&ops[1..2], &mut acks).unwrap();
        assert_eq!(acks, vec![true]);
        // An empty burst moves no bytes in either half.
        client.send_storage_batch(&[]).unwrap();
        client.recv_storage_batch(&[], &mut acks).unwrap();
        assert!(acks.is_empty());
    }

    #[test]
    fn storage_batch_rejects_unexpected_status() {
        // NOT_FOUND answers a delete, never a set: surfacing the
        // mismatch is what lets callers mark the connection broken.
        let addr = fake_server(b"NOT_FOUND\r\n");
        let mut client = StoreClient::connect(addr).unwrap();
        let ops = [StorageOp::Set {
            key: b"k",
            value: b"v",
            flags: 0,
            noreply: false,
        }];
        client.send_storage_batch(&ops).unwrap();
        let mut acks = Vec::new();
        let err = client.recv_storage_batch(&ops, &mut acks).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("batched set"), "{err}");
    }

    #[test]
    fn unrequested_value_key_is_a_protocol_error() {
        // Regression: a VALUE for a key we never requested (the telltale
        // of a desynced stream) used to be silently dropped.
        let addr = fake_server(b"VALUE ghost 0 2\r\nxy\r\nEND\r\n");
        let mut client = StoreClient::connect(addr).unwrap();
        let err = client.get_multi(&[b"real"]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("ghost"), "{err}");
    }

    #[test]
    fn each_answer_fills_its_own_slot() {
        // A key requested twice is answered twice, in request order.
        let hit = |data: &[u8]| Some((data.to_vec(), 0));
        let got = get_from(
            b"VALUE a 0 1\r\n1\r\nVALUE b 0 1\r\n2\r\nVALUE a 0 1\r\n3\r\nEND\r\n",
            &[b"a", b"b", b"a"],
        );
        assert_eq!(got.unwrap(), vec![hit(b"1"), hit(b"2"), hit(b"3")]);
        // A miss in between moves the match forward, not the slot.
        let got = get_from(
            b"VALUE a 0 1\r\n1\r\nVALUE a 0 1\r\n3\r\nEND\r\n",
            &[b"a", b"b", b"a"],
        );
        assert_eq!(got.unwrap(), vec![hit(b"1"), None, hit(b"3")]);
        // A peer that answers out of request order is still served.
        let got = get_from(
            b"VALUE c 7 1\r\n3\r\nVALUE a 0 1\r\n1\r\nEND\r\n",
            &[b"a", b"b", b"c"],
        );
        assert_eq!(
            got.unwrap(),
            vec![hit(b"1"), None, Some((b"3".to_vec(), 7))]
        );
    }

    #[test]
    fn malformed_get_replies_are_protocol_errors() {
        for (reply, what) in [
            (&b"VALUE k 0 2\r\nxyZZEND\r\n"[..], "not CRLF-terminated"),
            (b"VALUE k 0\r\nxy\r\nEND\r\n", "reply: VALUE k 0"),
            (b"VALUE  0 2\r\nxy\r\nEND\r\n", "reply: VALUE  0 2"),
            (
                b"VALUE k 4294967296 2\r\nxy\r\nEND\r\n",
                "flags out of range",
            ),
            (b"VALUE k 0 -2\r\nxy\r\nEND\r\n", "reply: VALUE k 0 -2"),
            (b"VALUE k 0 2 \r\nxy\r\nEND\r\n", "reply: VALUE k 0 2"),
            (b"ENDED\r\n", "reply: ENDED"),
            (b"SERVER_ERROR busy\r\n", "reply: SERVER_ERROR busy"),
        ] {
            let err = get_from(reply, &[b"k"]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}");
            assert!(err.to_string().ends_with(what), "{what}: {err}");
        }
        // `gets` needs its token; a bare LF ends a line as well as CRLF.
        let reply = b"VALUE k 0 2\nxy\r\nEND\n";
        let mut client = StoreClient::connect(fake_server(reply)).unwrap();
        let err = client.gets_multi(&[b"k"]).unwrap_err();
        assert!(err.to_string().ends_with("reply: VALUE k 0 2"), "{err}");
        let got = get_from(reply, &[b"k"]).unwrap();
        assert_eq!(got, vec![Some((b"xy".to_vec(), 0))]);
    }

    #[test]
    fn hostile_value_length_is_refused_not_allocated() {
        // Regression: the length of a VALUE line used to size a buffer
        // unchecked, so one bad reply panicked (capacity overflow) or
        // aborted (out of memory) the calling process.
        for (reply, what) in [
            (&b"VALUE k 0 18446744073709551615\r\n"[..], "limit"),
            (b"VALUE k 0 18446744073709551616\r\n", "unexpected"),
            (b"VALUE k 0 1099511627776\r\n", "limit"),
            (b"VALUE k 0 16777217\r\n", "limit"),
        ] {
            let err = get_from(reply, &[b"k"]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(what), "{err}");
        }
    }

    #[test]
    fn block_straddling_the_read_buffer_is_spilled() {
        // The second block is as long as the whole read buffer, so it
        // cannot be parsed in place wherever the reads happen to fall.
        let big: Vec<u8> = (0..READ_BUF).map(|i| (i % 251) as u8).collect();
        let mut reply = b"VALUE a 3 3\r\nabc\r\n".to_vec();
        reply.extend_from_slice(format!("VALUE b 0 {}\r\n", big.len()).as_bytes());
        reply.extend_from_slice(&big);
        reply.extend_from_slice(b"\r\nVALUE c 0 1\r\nz\r\nEND\r\n");
        let (addr, _) = scripted_server(reply);
        let mut client = StoreClient::connect(addr).unwrap();
        let got = client.get_multi(&[b"a", b"b", b"c"]).unwrap();
        assert_eq!(got[0], Some((b"abc".to_vec(), 3)));
        assert_eq!(got[1].as_ref().map(|(data, _)| &data[..]), Some(&big[..]));
        assert_eq!(got[2], Some((b"z".to_vec(), 0)));
        assert_eq!(client.spill.len(), big.len() + 2, "the block was spilled");
    }

    #[test]
    fn header_split_across_two_reads_is_spilled() {
        // The first value ends four bytes short of the read buffer, so
        // the buffer's first fill ends inside the second header. The
        // client reads only after the whole reply is written, so that
        // fill takes all the buffer holds.
        let first_header = format!("VALUE a 0 {}\r\n", READ_BUF - 100);
        let pad = READ_BUF - 4 - 2 - first_header.len();
        let first_header = format!("VALUE a 0 {pad}\r\n");
        let mut reply = first_header.into_bytes();
        reply.resize(reply.len() + pad, b'p');
        reply.extend_from_slice(b"\r\n");
        assert_eq!(reply.len(), READ_BUF - 4);
        reply.extend_from_slice(b"VALUE b 9 2\r\nhi\r\nEND\r\n");
        let (addr, written) = scripted_server(reply);
        let mut client = StoreClient::connect(addr).unwrap();
        client.send_get_multi(&[b"a", b"b"]).unwrap();
        written.recv().unwrap();
        let got = client.recv_get_multi(&[b"a", b"b"]).unwrap();
        assert_eq!(got[0].as_ref().map(|(data, _)| data.len()), Some(pad));
        assert_eq!(got[1], Some((b"hi".to_vec(), 9)));
        assert_eq!(client.spill, b"VALUE b 9 2\r\n", "the header was spilled");
    }

    #[test]
    fn endless_reply_line_is_cut_off() {
        let (addr, _) = scripted_server(vec![b'x'; 2 * MAX_REPLY_LINE]);
        let err = StoreClient::connect(addr).unwrap().version().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
