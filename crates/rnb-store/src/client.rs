//! Blocking client for the memcached text protocol.

use crate::protocol::read_line;
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};

/// A blocking connection to a [`crate::StoreServer`] (or any
/// text-protocol memcached).
pub struct StoreClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

/// One operation of a pipelined storage burst
/// ([`StoreClient::send_storage_batch`] /
/// [`StoreClient::recv_storage_batch`]). Borrows the caller's key and
/// value bytes: the send half copies them straight into the socket
/// buffer, so a burst costs no per-op allocation.
#[derive(Debug, Clone, Copy)]
pub enum StorageOp<'a> {
    /// `set key flags 0 len` + data block → `STORED`.
    Set {
        /// Key bytes (no spaces or control characters).
        key: &'a [u8],
        /// Value bytes.
        value: &'a [u8],
        /// Opaque client flags echoed back on reads.
        flags: u32,
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

impl StoreClient {
    /// Connect to `addr`.
    pub fn connect(addr: SocketAddr) -> io::Result<StoreClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(StoreClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    /// `set key flags 0 len` + data. Errors on a non-`STORED` reply.
    pub fn set(&mut self, key: &[u8], value: &[u8], flags: u32) -> io::Result<()> {
        self.writer.write_all(b"set ")?;
        self.writer.write_all(key)?;
        write!(self.writer, " {flags} 0 {}\r\n", value.len())?;
        self.writer.write_all(value)?;
        self.writer.write_all(b"\r\n")?;
        self.writer.flush()?;
        let line = self.expect_line()?;
        if line != b"STORED" {
            return Err(proto_err(format!(
                "set failed: {}",
                String::from_utf8_lossy(&line)
            )));
        }
        Ok(())
    }

    /// Multi-get. Returns, per requested key, `Some((data, flags))` on a
    /// hit and `None` on a miss. An empty key slice is answered locally
    /// with `Ok(vec![])` — no wire round-trip (and no panic: this is
    /// caller input, not a library invariant).
    #[allow(clippy::type_complexity)]
    pub fn get_multi(&mut self, keys: &[&[u8]]) -> io::Result<Vec<Option<(Vec<u8>, u32)>>> {
        let full = self.gets_inner(keys, false)?;
        Ok(full
            .into_iter()
            .map(|o| o.map(|(d, f, _)| (d, f)))
            .collect())
    }

    /// `gets` multi-get: like [`StoreClient::get_multi`] but each hit also
    /// carries its CAS token.
    #[allow(clippy::type_complexity)]
    pub fn gets_multi(&mut self, keys: &[&[u8]]) -> io::Result<Vec<Option<(Vec<u8>, u32, u64)>>> {
        self.gets_inner(keys, true)
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
        let full = self.recv_gets(keys, false)?;
        Ok(full
            .into_iter()
            .map(|o| o.map(|(d, f, _)| (d, f)))
            .collect())
    }

    #[allow(clippy::type_complexity)]
    fn gets_inner(
        &mut self,
        keys: &[&[u8]],
        with_cas: bool,
    ) -> io::Result<Vec<Option<(Vec<u8>, u32, u64)>>> {
        self.send_gets(keys, with_cas)?;
        self.recv_gets(keys, with_cas)
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

    #[allow(clippy::type_complexity)]
    fn recv_gets(
        &mut self,
        keys: &[&[u8]],
        with_cas: bool,
    ) -> io::Result<Vec<Option<(Vec<u8>, u32, u64)>>> {
        if keys.is_empty() {
            // Nothing was sent for an empty request, so read nothing.
            return Ok(Vec::new());
        }
        // Fill response slots positionally: each VALUE reply is matched
        // against the requested keys directly, so the hot path neither
        // copies key bytes nor re-hashes them into a map.
        let mut out: Vec<Option<(Vec<u8>, u32, u64)>> = vec![None; keys.len()];
        loop {
            let line = self.expect_line()?;
            if line == b"END" {
                break;
            }
            // Borrows the line unless it needs repair; tokens split the
            // way the server splits them, on ASCII blanks.
            let text = String::from_utf8_lossy(&line);
            let mut parts = text.split_ascii_whitespace();
            if parts.next() != Some("VALUE") {
                return Err(proto_err(format!("unexpected get reply: {text}")));
            }
            let key = parts
                .next()
                .ok_or_else(|| proto_err("VALUE missing key".into()))?;
            let flags: u32 = parts
                .next()
                .and_then(|f| f.parse().ok())
                .ok_or_else(|| proto_err("VALUE missing flags".into()))?;
            let len: usize = parts
                .next()
                .and_then(|l| l.parse().ok())
                .ok_or_else(|| proto_err("VALUE missing length".into()))?;
            let cas: u64 = if with_cas {
                parts
                    .next()
                    .and_then(|c| c.parse().ok())
                    .ok_or_else(|| proto_err("VALUE missing cas token".into()))?
            } else {
                0
            };
            let data = crate::protocol::read_data_block(&mut self.reader, len)?;
            let key_bytes = key.as_bytes();
            let matches = keys.iter().filter(|k| **k == key_bytes).count();
            if matches == 0 {
                // A VALUE for a key we never asked for is a desync
                // symptom (e.g. a reply of an earlier, failed request
                // still in the pipe). Surfacing it — instead of silently
                // dropping the body — is what lets callers notice a
                // broken connection and reconnect.
                return Err(proto_err(format!(
                    "VALUE for unrequested key {:?}",
                    String::from_utf8_lossy(key_bytes)
                )));
            }
            let mut left = matches;
            let mut pending = Some((data, flags, cas));
            for (k, slot) in keys.iter().zip(out.iter_mut()) {
                if *k != key_bytes {
                    continue;
                }
                left -= 1;
                *slot = if left == 0 {
                    pending.take()
                } else {
                    // Duplicate requested keys each receive an owned copy;
                    // unique-key requests always take the move above.
                    pending.clone()
                };
            }
        }
        Ok(out)
    }

    /// Pipelining half 1 of the write path: write every storage command
    /// of `ops` into the socket with a single flush, without reading any
    /// reply. Pair each call with [`StoreClient::recv_storage_batch`]
    /// (same ops, same order) on this connection; interleaving other
    /// operations between the two halves desyncs the stream. An empty
    /// burst sends nothing.
    pub fn send_storage_batch(&mut self, ops: &[StorageOp<'_>]) -> io::Result<()> {
        if ops.is_empty() {
            return Ok(());
        }
        for op in ops {
            match *op {
                StorageOp::Set { key, value, flags } => {
                    self.writer.write_all(b"set ")?;
                    self.writer.write_all(key)?;
                    write!(self.writer, " {flags} 0 {}\r\n", value.len())?;
                    self.writer.write_all(value)?;
                    self.writer.write_all(b"\r\n")?;
                }
                StorageOp::Delete { key } => {
                    self.writer.write_all(b"delete ")?;
                    self.writer.write_all(key)?;
                    self.writer.write_all(b"\r\n")?;
                }
            }
        }
        self.writer.flush()
    }

    /// Pipelining half 2 of the write path: read one status line per op
    /// of an earlier [`StoreClient::send_storage_batch`] with the same
    /// ops. `acks` is cleared and refilled positionally: `true` for
    /// `STORED`/`DELETED`, `false` for a `delete` that found nothing.
    /// Any other reply (e.g. `SERVER_ERROR out of memory`) is a protocol
    /// error — the stream may hold further replies, so the caller must
    /// treat the connection as broken.
    pub fn recv_storage_batch(
        &mut self,
        ops: &[StorageOp<'_>],
        acks: &mut Vec<bool>,
    ) -> io::Result<()> {
        acks.clear();
        for op in ops {
            let line = self.expect_line()?;
            let ack = match (op, line.as_slice()) {
                (StorageOp::Set { .. }, b"STORED") => true,
                (StorageOp::Delete { .. }, b"DELETED") => true,
                (StorageOp::Delete { .. }, b"NOT_FOUND") => false,
                (StorageOp::Set { .. }, other) => {
                    return Err(proto_err(format!(
                        "batched set: {}",
                        String::from_utf8_lossy(other)
                    )));
                }
                (StorageOp::Delete { .. }, other) => {
                    return Err(proto_err(format!(
                        "batched delete: {}",
                        String::from_utf8_lossy(other)
                    )));
                }
            };
            acks.push(ack);
        }
        Ok(())
    }

    /// `add`: true if stored (key was absent).
    pub fn add(&mut self, key: &[u8], value: &[u8], flags: u32) -> io::Result<bool> {
        self.store_like("add", key, value, flags, None)
    }

    /// `replace`: true if stored (key existed).
    pub fn replace(&mut self, key: &[u8], value: &[u8], flags: u32) -> io::Result<bool> {
        self.store_like("replace", key, value, flags, None)
    }

    /// `cas`: `Ok(true)` if swapped, `Ok(false)` on a stale token or a
    /// missing key.
    pub fn cas(&mut self, key: &[u8], value: &[u8], flags: u32, token: u64) -> io::Result<bool> {
        self.store_like("cas", key, value, flags, Some(token))
    }

    fn store_like(
        &mut self,
        verb: &str,
        key: &[u8],
        value: &[u8],
        flags: u32,
        token: Option<u64>,
    ) -> io::Result<bool> {
        write!(self.writer, "{verb} ")?;
        self.writer.write_all(key)?;
        match token {
            Some(t) => write!(self.writer, " {flags} 0 {} {t}\r\n", value.len())?,
            None => write!(self.writer, " {flags} 0 {}\r\n", value.len())?,
        }
        self.writer.write_all(value)?;
        self.writer.write_all(b"\r\n")?;
        self.writer.flush()?;
        let line = self.expect_line()?;
        match line.as_slice() {
            b"STORED" => Ok(true),
            b"NOT_STORED" | b"EXISTS" | b"NOT_FOUND" => Ok(false),
            other => Err(proto_err(format!(
                "{verb}: {}",
                String::from_utf8_lossy(other)
            ))),
        }
    }

    /// `incr`/`decr`; `Ok(None)` if the key is missing.
    pub fn arith(&mut self, key: &[u8], delta: u64, negative: bool) -> io::Result<Option<u64>> {
        write!(self.writer, "{} ", if negative { "decr" } else { "incr" })?;
        self.writer.write_all(key)?;
        write!(self.writer, " {delta}\r\n")?;
        self.writer.flush()?;
        let line = self.expect_line()?;
        if line == b"NOT_FOUND" {
            return Ok(None);
        }
        let text = String::from_utf8_lossy(&line).into_owned();
        text.trim()
            .parse::<u64>()
            .map(Some)
            .map_err(|_| proto_err(format!("arith reply: {text}")))
    }

    /// `delete key`; true if the server deleted it.
    pub fn delete(&mut self, key: &[u8]) -> io::Result<bool> {
        self.writer.write_all(b"delete ")?;
        self.writer.write_all(key)?;
        self.writer.write_all(b"\r\n")?;
        self.writer.flush()?;
        let line = self.expect_line()?;
        match line.as_slice() {
            b"DELETED" => Ok(true),
            b"NOT_FOUND" => Ok(false),
            other => Err(proto_err(format!(
                "delete: {}",
                String::from_utf8_lossy(other)
            ))),
        }
    }

    /// `stats` as a name → value map.
    pub fn stats(&mut self) -> io::Result<HashMap<String, String>> {
        self.writer.write_all(b"stats\r\n")?;
        self.writer.flush()?;
        let mut out = HashMap::new();
        loop {
            let line = self.expect_line()?;
            if line == b"END" {
                break;
            }
            let text = String::from_utf8_lossy(&line).into_owned();
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
        let line = self.expect_line()?;
        Ok(String::from_utf8_lossy(&line).into_owned())
    }

    /// Send a raw line and return the single reply line (test helper for
    /// error paths).
    pub fn raw_command(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        let reply = self.expect_line()?;
        Ok(String::from_utf8_lossy(&reply).into_owned())
    }

    fn expect_line(&mut self) -> io::Result<Vec<u8>> {
        read_line(&mut self.reader)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))
    }
}

// Client behaviour is exercised end-to-end in `server::tests` and the
// load-generator tests; unit tests here cover argument validation.
#[cfg(test)]
mod tests {
    use super::*;

    use std::io::Read;
    use std::net::TcpListener;

    #[test]
    fn connect_to_closed_port_fails() {
        // Port 1 on loopback is essentially never listening.
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        assert!(StoreClient::connect(addr).is_err());
    }

    /// A scripted one-connection "server": accepts, optionally reads one
    /// line, writes `reply` verbatim, holds the socket open until the
    /// client is done.
    fn fake_server(reply: &'static [u8]) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut buf = [0u8; 512];
            let _ = conn.read(&mut buf);
            conn.write_all(reply).unwrap();
            // Hold until the client disconnects.
            let _ = conn.read(&mut buf);
        });
        addr
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
        // One flush carries the whole burst; one status line per op
        // comes back positionally.
        let addr = fake_server(b"STORED\r\nDELETED\r\nNOT_FOUND\r\n");
        let mut client = StoreClient::connect(addr).unwrap();
        let ops = [
            StorageOp::Set {
                key: b"a",
                value: b"v1",
                flags: 7,
            },
            StorageOp::Delete { key: b"a" },
            StorageOp::Delete { key: b"ghost" },
        ];
        client.send_storage_batch(&ops).unwrap();
        let mut acks = Vec::new();
        client.recv_storage_batch(&ops, &mut acks).unwrap();
        assert_eq!(acks, vec![true, true, false]);
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
}
