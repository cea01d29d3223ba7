//! TCP server speaking the memcached text protocol.
//!
//! Architecture (see README "Serving path architecture"): connections
//! are **multiplexed over a fixed pool of worker threads**, and those
//! are all the threads there are. Every idle connection and the listener
//! sit in one kernel readiness set (`poller.rs`); the workers sleep in it,
//! so tens of thousands of mostly-idle sockets cost buffers — not
//! blocked threads, and not a single system call while nothing arrives.
//! The worker the kernel wakes for a socket owns it alone until it parks
//! it again. For the listener that means accepting everything pending;
//! for a connection it serves a *burst*: read, execute every complete
//! buffered request ([`drain_input`], incremental parsing via
//! [`protocol::next_request`]), answer the batch with one `write_all`,
//! and keep reading until the connection goes quiet for a short linger —
//! then park it and sleep again. Each worker owns one [`ConnScratch`],
//! so the command loop is allocation-free at steady state (proven by the
//! `zero_alloc_serve` integration test, which drives [`drain_input`]
//! over in-memory bytes).

use crate::poller::{Conn, Parked, Poller, Wake};
use crate::protocol::{self, reply, Command, NextRequest, StoreVerb};
use crate::shard::{ArithOutcome, CasOutcome, SetOutcome, Value};
use crate::store::{GetScratch, SetEntry, Store};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a worker read waits for the next request before the
/// connection is parked. Continuously active connections therefore stay
/// with their worker at two system calls per transaction; only the first
/// request after a quiet spell pays the kernel wake-up.
const WORKER_LINGER: Duration = Duration::from_millis(2);

/// Bound on a write to a client that stopped reading its responses: the
/// write errors out and the connection closes instead of wedging the
/// worker (and shutdown) indefinitely.
const WRITE_STALL: Duration = Duration::from_secs(5);

/// Reads a worker spends on one connection before parking it behind
/// whatever else is ready, so a connection that never goes quiet cannot
/// starve the others of a worker.
const BURST_READS: usize = 64;

/// Tuning knobs for [`StoreServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads — all the threads the server runs. Each owns its
    /// scratch buffers and serves one ready socket at a time.
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        // At least 4 workers even on small machines: tests (and the
        // paper's load generator) hold several concurrent connections.
        let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        ServerConfig {
            workers: cpus.max(4),
        }
    }
}

/// Live-connection count. Each connection is owned by exactly one
/// party (the readiness set or a worker), and whichever retires it
/// decrements exactly once — so the count is exact, not a high-water
/// mark, and one socket costs one fd (no registry duplicate, which
/// matters at 10k+ connections under an fd rlimit).
#[derive(Default)]
struct ConnCount(AtomicUsize);

impl ConnCount {
    fn register(&self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }

    fn deregister(&self, n: usize) {
        self.0.fetch_sub(n, Ordering::SeqCst);
    }

    fn len(&self) -> usize {
        self.0.load(Ordering::SeqCst)
    }
}

/// What the workers share.
struct Shared {
    store: Arc<Store>,
    poller: Poller,
    shutdown: AtomicBool,
    registry: ConnCount,
}

/// A running store server. Dropping the handle shuts the server down,
/// closing live connections (so tests can inject server failures).
pub struct StoreServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl StoreServer {
    /// Start a server for `store` on a loopback port chosen by the OS.
    pub fn start(store: Arc<Store>) -> io::Result<StoreServer> {
        Self::start_with(store, 0, ServerConfig::default())
    }

    /// Start on a specific loopback port (0 = OS-chosen).
    pub fn start_on(store: Arc<Store>, port: u16) -> io::Result<StoreServer> {
        Self::start_with(store, port, ServerConfig::default())
    }

    /// Start with explicit [`ServerConfig`] knobs.
    pub fn start_with(
        store: Arc<Store>,
        port: u16,
        config: ServerConfig,
    ) -> io::Result<StoreServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        // Whichever worker wins the listener's event accepts until
        // `WouldBlock`.
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            store,
            poller: Poller::new()?,
            shutdown: AtomicBool::new(false),
            registry: ConnCount::default(),
        });
        shared.poller.park(Parked::Listener(listener))?;
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Ok(StoreServer {
            addr,
            shared,
            workers,
        })
    }

    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served store.
    pub fn store(&self) -> &Arc<Store> {
        &self.shared.store
    }

    /// Connections currently open (parked in the readiness set or being
    /// served by a worker). Exact: returns to zero once all clients
    /// disconnect and a worker has seen each EOF.
    pub fn live_connections(&self) -> usize {
        self.shared.registry.len()
    }

    /// Total serving threads: the worker pool, nothing else. Independent
    /// of the connection count — the C10K property the readiness set
    /// exists for.
    pub fn thread_count(&self) -> usize {
        self.workers.len()
    }

    /// Graceful shutdown: stop accepting new connections, keep serving
    /// the live ones until their clients disconnect (or `deadline`
    /// nominal wait expires), then tear the server down. Unlike
    /// [`StoreServer::shutdown`] — which models a crash and may close a
    /// connection with requests still buffered — a drained shutdown
    /// never truncates: every request whose bytes arrived before the
    /// client's half-close is executed and its reply flushed, because
    /// connections are only retired on EOF/error while draining.
    ///
    /// The deadline bounds how long the drain waits for clients that
    /// never disconnect; it is a nominal wait (counted in 1 ms parked
    /// intervals, no wall-clock read), after which the remaining
    /// connections are closed abruptly as in a plain `shutdown`.
    pub fn shutdown_drain(&mut self, deadline: Duration) {
        if !self.shared.shutdown.load(Ordering::SeqCst) {
            self.shared.poller.close_listener();
            // Workers keep serving while we wait for the registry to
            // empty: each connection drains its buffered requests and
            // retires on EOF when its client hangs up.
            let step = Duration::from_millis(1);
            let mut waited = Duration::ZERO;
            while self.shared.registry.len() > 0 && waited < deadline {
                std::thread::park_timeout(step);
                waited += step;
            }
        }
        self.shutdown();
    }

    /// Stop accepting connections, close every live connection, and join
    /// all serving threads. Clients with open connections observe I/O
    /// errors on their next operation — a crashed server, from their
    /// point of view.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Sleeping workers wake and exit; one in mid-burst sees the flag
        // after its current read (bounded by the linger) or write
        // (bounded by the stall timeout).
        self.shared.poller.wake();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        let parked = self.shared.poller.close_all();
        self.shared.registry.deregister(parked);
    }
}

impl Drop for StoreServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A worker's life: sleep in the readiness set, serve the socket the
/// kernel hands over, park it again.
fn worker_loop(shared: &Shared) {
    let stats = shared.store.raw_stats();
    let mut scratch = ConnScratch::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match shared.poller.wait(stats) {
            Ok(Wake::Woken) => {}
            Ok(Wake::Ready(token, Parked::Listener(listener))) => {
                accept_pending(shared, &listener);
                // Only registering a closed descriptor can fail here.
                let _ = shared.poller.repark(token, Parked::Listener(listener));
            }
            Ok(Wake::Ready(token, Parked::Conn(mut conn))) => {
                if !serve_burst(&shared.store, &mut conn, &mut scratch, &shared.shutdown) {
                    drop(conn);
                    shared.poller.release(token);
                    shared.registry.deregister(1);
                } else if shared.poller.repark(token, Parked::Conn(conn)).is_ok() {
                    stats.conn_rearms.fetch_add(1, Ordering::Relaxed);
                } else {
                    shared.registry.deregister(1);
                }
            }
            // The readiness set itself failed; nothing can reach this
            // worker any more.
            Err(_) => break,
        }
    }
}

/// Accept every pending connection and park it.
fn accept_pending(shared: &Shared, listener: &TcpListener) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let Ok(conn) = Conn::new(stream, WORKER_LINGER, WRITE_STALL) else {
                    continue;
                };
                shared.registry.register();
                if shared.poller.park(Parked::Conn(conn)).is_err() {
                    shared.registry.deregister(1);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // `WouldBlock`: the backlog is empty. Any other failure (fd
            // exhaustion, an aborted handshake) ends the round the same
            // way: whatever is still pending fires the re-armed listener
            // again.
            Err(_) => break,
        }
    }
}

/// memcached `exptime` semantics for the range the experiments use:
/// 0 = never expires, negative = already expired (the entry is stored,
/// then immediately invisible), otherwise relative seconds.
fn ttl_of(exptime: i64) -> Option<Duration> {
    match exptime {
        0 => None,
        t if t < 0 => Some(Duration::ZERO),
        t => Some(Duration::from_secs(t.unsigned_abs())),
    }
}

/// Scratch for the multi-get execution path, grouped so
/// [`execute_command`] can borrow it alongside the response buffer.
#[derive(Debug, Default)]
struct GetPathScratch {
    /// `(start, end)` offsets of each get key within the request line.
    key_ranges: Vec<(usize, usize)>,
    /// Shard-batching scratch for the multi-get.
    get: GetScratch,
    /// Multi-get results, in request key order.
    values: Vec<Option<Value>>,
}

impl GetPathScratch {
    const fn new() -> Self {
        GetPathScratch {
            key_ranges: Vec::new(),
            get: GetScratch::new(),
            values: Vec::new(),
        }
    }
}

/// A plain `set` waiting in the current storage run, held as offset
/// ranges into the connection input buffer (no key/value copies).
#[derive(Debug, Clone, Copy)]
struct PendingSet {
    /// `(start, end)` of the key within the input buffer.
    key: (usize, usize),
    /// `(start, end)` of the data block within the input buffer.
    data: (usize, usize),
    flags: u32,
    exptime: i64,
    noreply: bool,
}

/// A `delete` waiting in the current storage run.
#[derive(Debug, Clone, Copy)]
struct PendingDelete {
    /// `(start, end)` of the key within the input buffer.
    key: (usize, usize),
    noreply: bool,
}

/// Scratch for the burst drain's storage batching: consecutive plain
/// `set` (or `delete`) requests of a pipelined burst are collected here
/// and applied through [`Store::set_multi_with`] /
/// [`Store::delete_multi_with`] as one shard-batched run — one lock and
/// one clock read per touched shard instead of one per command.
#[derive(Debug, Default)]
struct WriteBatchScratch {
    /// Pending plain-`set` run (empty whenever `deletes` is non-empty).
    sets: Vec<PendingSet>,
    /// Pending `delete` run (empty whenever `sets` is non-empty).
    deletes: Vec<PendingDelete>,
    /// Shard-batching scratch for the run.
    batch: GetScratch,
    /// Per-entry outcomes of a flushed set run.
    outcomes: Vec<SetOutcome>,
    /// Per-key outcomes of a flushed delete run.
    deleted: Vec<bool>,
}

impl WriteBatchScratch {
    const fn new() -> Self {
        WriteBatchScratch {
            sets: Vec::new(),
            deletes: Vec::new(),
            batch: GetScratch::new(),
            outcomes: Vec::new(),
            deleted: Vec::new(),
        }
    }
}

/// Per-worker (connection-reused) buffers for the command loop.
/// Everything grows to steady-state sizes and is then reused verbatim —
/// the loop performs no allocation once warm.
#[derive(Debug, Default)]
pub struct ConnScratch {
    /// Multi-get execution scratch.
    gets: GetPathScratch,
    /// Storage-run batching scratch.
    writes: WriteBatchScratch,
    /// Replies of the last [`drain_input`]; one `write_all` per batch.
    response: Vec<u8>,
    /// Socket read staging.
    net: Vec<u8>,
}

impl ConnScratch {
    /// Fresh scratch; buffers size themselves on first use.
    pub const fn new() -> Self {
        ConnScratch {
            gets: GetPathScratch::new(),
            writes: WriteBatchScratch::new(),
            response: Vec::new(),
            net: Vec::new(),
        }
    }

    /// The replies the last [`drain_input`] produced, in request order.
    pub fn response(&self) -> &[u8] {
        &self.response
    }
}

/// What [`execute_command`] tells the command loop to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reply {
    /// Keep serving the connection.
    Continue,
    /// `quit`: close after flushing the response so far.
    Quit,
}

/// Execute one parsed command against the store, appending any reply to
/// `response`. `line` must be the exact slice [`protocol::parse_command`]
/// saw (get-key ranges index into it) and `data` the `set`/`cas`
/// payload.
fn execute_command(
    store: &Store,
    line: &[u8],
    cmd: &Command<'_>,
    data: &[u8],
    gets: &mut GetPathScratch,
    response: &mut Vec<u8>,
) -> io::Result<Reply> {
    match cmd {
        Command::Get { keys, with_cas } => {
            let GetPathScratch {
                key_ranges,
                get,
                values,
            } = gets;
            key_ranges.clear();
            key_ranges.extend(keys.ranges());
            store.get_multi_with(
                get,
                key_ranges.len(),
                |i| {
                    let (s, e) = key_ranges[i];
                    &line[s..e]
                },
                values,
            );
            for (&(s, e), value) in key_ranges.iter().zip(values.iter()) {
                if let Some(v) = value {
                    let cas = with_cas.then_some(v.cas);
                    protocol::write_value(response, &line[s..e], v.flags, &v.data, cas)?;
                }
            }
            protocol::write_end(response)?;
            // Drop the value Arcs now: a later same-length `set` can
            // then overwrite in place instead of reallocating.
            values.clear();
        }
        Command::Set {
            verb,
            key,
            flags,
            exptime,
            noreply,
            ..
        } => {
            let ttl = ttl_of(*exptime);
            let outcome = match verb {
                StoreVerb::Set => Some(store.set_with_ttl(key, data, *flags, false, ttl)),
                StoreVerb::Add => store.add(key, data, *flags, ttl),
                StoreVerb::Replace => store.replace(key, data, *flags, ttl),
            };
            if !noreply {
                response.extend_from_slice(match outcome {
                    Some(SetOutcome::Stored { .. }) => reply::STORED,
                    Some(SetOutcome::OutOfMemory) => reply::OOM,
                    None => reply::NOT_STORED,
                });
            }
        }
        Command::Cas {
            key,
            flags,
            exptime,
            cas,
            noreply,
            ..
        } => {
            let outcome = store.cas(key, data, *flags, *cas, ttl_of(*exptime));
            if !noreply {
                response.extend_from_slice(match outcome {
                    CasOutcome::Stored => reply::STORED,
                    CasOutcome::Exists => reply::EXISTS,
                    CasOutcome::NotFound => reply::NOT_FOUND,
                    CasOutcome::OutOfMemory => reply::OOM,
                });
            }
        }
        Command::Arith {
            key,
            delta,
            negative,
            noreply,
        } => {
            let outcome = store.arith(key, *delta, *negative);
            if !noreply {
                match outcome {
                    ArithOutcome::Value(v) => write!(response, "{v}\r\n")?,
                    ArithOutcome::NotFound => response.extend_from_slice(reply::NOT_FOUND),
                    ArithOutcome::NonNumeric => response.extend_from_slice(reply::NON_NUMERIC),
                }
            }
        }
        Command::Delete { key, noreply } => {
            let deleted = store.delete(key);
            if !noreply {
                response.extend_from_slice(if deleted {
                    reply::DELETED
                } else {
                    reply::NOT_FOUND
                });
            }
        }
        Command::Stats => {
            for (name, value) in store.stats().stat_lines() {
                write!(response, "STAT {name} {value}\r\n")?;
            }
            protocol::write_end(response)?;
        }
        Command::Version => response.extend_from_slice(reply::VERSION),
        Command::Quit => return Ok(Reply::Quit),
    }
    Ok(Reply::Continue)
}

/// Absolute `(start, end)` of `part` within the connection input
/// buffer, given that `part` is a subslice of the parser's view, which
/// itself starts at offset `base` of the input buffer. Plain address
/// arithmetic — no bytes are copied or re-scanned.
fn abs_range(view: &[u8], part: &[u8], base: usize) -> (usize, usize) {
    let start = part.as_ptr() as usize - view.as_ptr() as usize + base;
    debug_assert!(
        start + part.len() <= base + view.len(),
        "request part escapes the parsed view"
    );
    (start, start + part.len())
}

/// Apply the pending plain-`set` run as one shard-batched store call and
/// append the replies in request order. No-op on an empty run.
fn flush_pending_sets(
    store: &Store,
    writes: &mut WriteBatchScratch,
    input: &[u8],
    response: &mut Vec<u8>,
) {
    if writes.sets.is_empty() {
        return;
    }
    let WriteBatchScratch {
        sets,
        batch,
        outcomes,
        ..
    } = writes;
    store.set_multi_with(
        batch,
        sets.len(),
        |i| {
            let p = sets[i];
            SetEntry {
                key: &input[p.key.0..p.key.1],
                value: &input[p.data.0..p.data.1],
                flags: p.flags,
                pinned: false,
                ttl: ttl_of(p.exptime),
            }
        },
        outcomes,
    );
    for (p, outcome) in sets.iter().zip(outcomes.iter()) {
        if !p.noreply {
            response.extend_from_slice(match outcome {
                SetOutcome::Stored { .. } => reply::STORED,
                SetOutcome::OutOfMemory => reply::OOM,
            });
        }
    }
    sets.clear();
}

/// Apply the pending `delete` run as one shard-batched store call and
/// append the replies in request order. No-op on an empty run.
fn flush_pending_deletes(
    store: &Store,
    writes: &mut WriteBatchScratch,
    input: &[u8],
    response: &mut Vec<u8>,
) {
    if writes.deletes.is_empty() {
        return;
    }
    let WriteBatchScratch {
        deletes,
        batch,
        deleted,
        ..
    } = writes;
    store.delete_multi_with(
        batch,
        deletes.len(),
        |i| {
            let p = deletes[i];
            &input[p.key.0..p.key.1]
        },
        deleted,
    );
    for (p, was_there) in deletes.iter().zip(deleted.iter()) {
        if !p.noreply {
            response.extend_from_slice(if *was_there {
                reply::DELETED
            } else {
                reply::NOT_FOUND
            });
        }
    }
    deletes.clear();
}

/// Execute every complete request at the front of `input` — the one
/// command loop, with no socket in it. The replies replace
/// `scratch.response` in request order (the caller answers a pipelined
/// burst with one write, not one per request); returns how many bytes of
/// `input` were used up and whether to close the connection afterwards
/// (`quit` or a framing desync).
///
/// Runs of consecutive plain `set` (or `delete`) requests — the shape a
/// pipelined [`crate::StoreClient::send_storage_batch`] burst produces —
/// are not executed one by one: they are collected as offset ranges and
/// applied through [`Store::set_multi_with`] / [`Store::delete_multi_with`]
/// when the run ends, so a storage burst costs one lock (and one clock
/// read) per touched shard instead of one per command. Replies stay in
/// request order because a run is always flushed before any other
/// command (or error report) appends its reply.
pub fn drain_input(
    store: &Store,
    input: &[u8],
    scratch: &mut ConnScratch,
) -> io::Result<(usize, bool)> {
    let ConnScratch {
        gets,
        writes,
        response,
        net: _,
    } = scratch;
    let mut consumed_total = 0usize;
    let mut close = false;
    response.clear();
    writes.sets.clear();
    writes.deletes.clear();
    loop {
        let view = &input[consumed_total..];
        match protocol::next_request(view) {
            NextRequest::Incomplete => break,
            NextRequest::Desync => {
                close = true;
                break;
            }
            NextRequest::Error { msg, consumed } => {
                flush_pending_sets(store, writes, input, response);
                flush_pending_deletes(store, writes, input, response);
                write!(response, "CLIENT_ERROR {msg}\r\n")?;
                consumed_total += consumed;
            }
            NextRequest::Request {
                line,
                cmd,
                data,
                consumed,
            } => {
                match &cmd {
                    Command::Set {
                        verb: StoreVerb::Set,
                        key,
                        flags,
                        exptime,
                        noreply,
                        ..
                    } => {
                        flush_pending_deletes(store, writes, input, response);
                        writes.sets.push(PendingSet {
                            key: abs_range(view, key, consumed_total),
                            data: abs_range(view, data, consumed_total),
                            flags: *flags,
                            exptime: *exptime,
                            noreply: *noreply,
                        });
                        consumed_total += consumed;
                        continue;
                    }
                    Command::Delete { key, noreply } => {
                        flush_pending_sets(store, writes, input, response);
                        writes.deletes.push(PendingDelete {
                            key: abs_range(view, key, consumed_total),
                            noreply: *noreply,
                        });
                        consumed_total += consumed;
                        continue;
                    }
                    _ => {
                        flush_pending_sets(store, writes, input, response);
                        flush_pending_deletes(store, writes, input, response);
                    }
                }
                consumed_total += consumed;
                if execute_command(store, line, &cmd, data, gets, response)? == Reply::Quit {
                    close = true;
                    break;
                }
            }
        }
    }
    flush_pending_sets(store, writes, input, response);
    flush_pending_deletes(store, writes, input, response);
    Ok((consumed_total, close))
}

/// Serve a connection the readiness set reported ready until it goes
/// quiet: read, execute what is buffered, answer with one `write_all`,
/// and read again until the linger expires or the burst cap is reached.
/// Returns true if the connection should be parked again, false if it
/// should close.
fn serve_burst(
    store: &Store,
    conn: &mut Conn,
    scratch: &mut ConnScratch,
    shutdown: &AtomicBool,
) -> bool {
    let stats = store.raw_stats();
    for _ in 0..BURST_READS {
        match conn.read_more(&mut scratch.net) {
            Ok(0) => return false,
            Ok(n) => {
                stats.bytes_read.fetch_add(n as u64, Ordering::Relaxed);
            }
            // Linger expired with no traffic: back to sleep.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return true
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
        let Ok((consumed, close)) = drain_input(store, conn.input(), scratch) else {
            return false;
        };
        conn.consume(consumed);
        if !scratch.response.is_empty() {
            if conn.stream().write_all(&scratch.response).is_err() {
                return false;
            }
            stats
                .bytes_written
                .fetch_add(scratch.response.len() as u64, Ordering::Relaxed);
        }
        if close || shutdown.load(Ordering::SeqCst) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{StorageOp, StoreClient};
    use crate::clock::TestClock;
    use std::net::TcpStream;

    fn start() -> (StoreServer, StoreClient) {
        let server = StoreServer::start(Arc::new(Store::new(1 << 22))).unwrap();
        let client = StoreClient::connect(server.addr()).unwrap();
        (server, client)
    }

    #[test]
    fn pipelined_storage_bursts_over_tcp() {
        let (_server, mut client) = start();
        let keys: Vec<Vec<u8>> = (0..40).map(|i| format!("bk{i}").into_bytes()).collect();
        let vals: Vec<Vec<u8>> = (0..40).map(|i| format!("bv{i}").into_bytes()).collect();
        let sets: Vec<StorageOp<'_>> = keys
            .iter()
            .zip(&vals)
            .map(|(k, v)| StorageOp::Set {
                key: k,
                value: v,
                flags: 5,
            })
            .collect();
        let mut acks = Vec::new();
        client.send_storage_batch(&sets).unwrap();
        client.recv_storage_batch(&sets, &mut acks).unwrap();
        assert_eq!(acks.len(), 40);
        assert!(acks.iter().all(|&a| a), "every set should be STORED");
        let key_refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        let got = client.get_multi(&key_refs).unwrap();
        for (i, g) in got.iter().enumerate() {
            let (data, flags) = g.as_ref().unwrap();
            assert_eq!(data, &vals[i]);
            assert_eq!(*flags, 5);
        }
        // The server counted one cmd_set per batched op, exactly like
        // the sequential path would.
        let stats = client.stats().unwrap();
        assert_eq!(stats.get("cmd_set").map(String::as_str), Some("40"));

        let dels: Vec<StorageOp<'_>> = keys.iter().map(|k| StorageOp::Delete { key: k }).collect();
        client.send_storage_batch(&dels).unwrap();
        client.recv_storage_batch(&dels, &mut acks).unwrap();
        assert!(acks.iter().all(|&a| a), "every delete should hit");
        client.send_storage_batch(&dels).unwrap();
        client.recv_storage_batch(&dels, &mut acks).unwrap();
        assert!(acks.iter().all(|&a| !a), "second delete round all misses");
    }

    #[test]
    fn batched_storage_runs_keep_reply_order() {
        // One pipelined burst mixing set/get/delete/garbage: the drain
        // batches the storage runs but every reply must still arrive in
        // request order, and a get between two sets of the same key must
        // observe the first one (runs flush before any other command).
        let (server, _client) = start();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(
                b"set a 0 0 1\r\nx\r\nget a\r\nset a 0 0 1\r\ny\r\n\
                  delete a\r\ndelete a\r\nfrobnicate\r\nversion\r\n",
            )
            .unwrap();
        let mut reader = io::BufReader::new(stream);
        let mut lines = Vec::new();
        for _ in 0..9 {
            let line = protocol::read_line(&mut reader).unwrap().unwrap();
            lines.push(String::from_utf8_lossy(&line).into_owned());
        }
        assert_eq!(lines[0], "STORED");
        assert_eq!(lines[1], "VALUE a 0 1");
        assert_eq!(lines[2], "x");
        assert_eq!(lines[3], "END");
        assert_eq!(lines[4], "STORED");
        assert_eq!(lines[5], "DELETED");
        assert_eq!(lines[6], "NOT_FOUND");
        assert!(lines[7].starts_with("CLIENT_ERROR"), "{}", lines[7]);
        assert!(lines[8].contains("rnb-store"), "{}", lines[8]);
    }

    #[test]
    fn batched_noreply_sets_stay_silent() {
        let (server, _client) = start();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(b"set quiet 0 0 1 noreply\r\nq\r\nset loud 0 0 1\r\nl\r\nget quiet\r\n")
            .unwrap();
        let mut reader = io::BufReader::new(stream);
        // Only the second set replies; the noreply one was still stored.
        let line = protocol::read_line(&mut reader).unwrap().unwrap();
        assert_eq!(line, b"STORED");
        let line = protocol::read_line(&mut reader).unwrap().unwrap();
        assert_eq!(line, b"VALUE quiet 0 1");
    }

    #[test]
    fn set_get_over_tcp() {
        let (_server, mut client) = start();
        client.set(b"hello", b"world", 3).unwrap();
        let got = client.get_multi(&[b"hello"]).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].as_ref().unwrap().0, b"world".to_vec());
        assert_eq!(got[0].as_ref().unwrap().1, 3);
    }

    #[test]
    fn multi_get_partial_hits() {
        let (_server, mut client) = start();
        client.set(b"a", b"1", 0).unwrap();
        client.set(b"c", b"3", 0).unwrap();
        let got = client.get_multi(&[b"a", b"b", b"c"]).unwrap();
        assert!(got[0].is_some());
        assert!(got[1].is_none());
        assert!(got[2].is_some());
    }

    #[test]
    fn delete_over_tcp() {
        let (_server, mut client) = start();
        client.set(b"k", b"v", 0).unwrap();
        assert!(client.delete(b"k").unwrap());
        assert!(!client.delete(b"k").unwrap());
        assert!(client.get_multi(&[b"k"]).unwrap()[0].is_none());
    }

    #[test]
    fn stats_over_tcp() {
        let (_server, mut client) = start();
        client.set(b"k", b"v", 0).unwrap();
        client.get_multi(&[b"k"]).unwrap();
        let stats = client.stats().unwrap();
        assert_eq!(stats.get("cmd_set").map(String::as_str), Some("1"));
        assert_eq!(stats.get("get_hits").map(String::as_str), Some("1"));
        assert_eq!(stats.get("curr_items").map(String::as_str), Some("1"));
        // Wire accounting: the set + get already crossed the socket.
        let read: u64 = stats.get("bytes_read").unwrap().parse().unwrap();
        let written: u64 = stats.get("bytes_written").unwrap().parse().unwrap();
        assert!(read > 0, "bytes_read not counted");
        assert!(written > 0, "bytes_written not counted");
        // The single-key get landed in the first histogram bucket.
        assert_eq!(stats.get("get_batch_le_1").map(String::as_str), Some("1"));
    }

    #[test]
    fn version_and_bad_command() {
        let (_server, mut client) = start();
        let v = client.version().unwrap();
        assert!(v.contains("rnb-store"));
        let err = client.raw_command("frobnicate\r\n").unwrap();
        assert!(err.starts_with("CLIENT_ERROR"), "{err}");
    }

    #[test]
    fn cas_over_tcp() {
        let (_server, mut client) = start();
        client.set(b"k", b"v1", 0).unwrap();
        let got = client.gets_multi(&[b"k"]).unwrap();
        let (_, _, token) = got[0].clone().unwrap();
        // Someone else updates -> our token goes stale.
        client.set(b"k", b"v2", 0).unwrap();
        assert!(
            !client.cas(b"k", b"v3", 0, token).unwrap(),
            "stale token must fail"
        );
        let (_, _, fresh) = client.gets_multi(&[b"k"]).unwrap()[0].clone().unwrap();
        assert!(client.cas(b"k", b"v3", 0, fresh).unwrap());
        assert_eq!(
            client.get_multi(&[b"k"]).unwrap()[0].as_ref().unwrap().0,
            b"v3".to_vec()
        );
        assert!(!client.cas(b"missing", b"x", 0, 1).unwrap());
    }

    #[test]
    fn add_replace_over_tcp() {
        let (_server, mut client) = start();
        assert!(client.add(b"k", b"v1", 0).unwrap());
        assert!(!client.add(b"k", b"v2", 0).unwrap());
        assert!(client.replace(b"k", b"v3", 0).unwrap());
        assert!(!client.replace(b"nope", b"x", 0).unwrap());
        assert_eq!(
            client.get_multi(&[b"k"]).unwrap()[0].as_ref().unwrap().0,
            b"v3".to_vec()
        );
    }

    #[test]
    fn incr_decr_over_tcp() {
        let (_server, mut client) = start();
        assert_eq!(client.arith(b"n", 1, false).unwrap(), None);
        client.set(b"n", b"41", 0).unwrap();
        assert_eq!(client.arith(b"n", 1, false).unwrap(), Some(42));
        assert_eq!(client.arith(b"n", 50, true).unwrap(), Some(0));
        client.set(b"txt", b"abc", 0).unwrap();
        assert!(
            client.arith(b"txt", 1, false).is_err(),
            "non-numeric is a client error"
        );
    }

    #[test]
    fn ttl_of_signed_semantics() {
        assert_eq!(ttl_of(0), None, "0 = never expires");
        assert_eq!(ttl_of(-1), Some(Duration::ZERO), "-1 = already expired");
        assert_eq!(ttl_of(i64::MIN), Some(Duration::ZERO));
        assert_eq!(ttl_of(5), Some(Duration::from_secs(5)));
        assert_eq!(
            ttl_of(i64::MAX),
            Some(Duration::from_secs(i64::MAX.unsigned_abs()))
        );
    }

    #[test]
    fn exptime_over_tcp() {
        // The server's worker threads read the same TestClock the test
        // holds, so TTL expiry over TCP needs no real waiting.
        let clock = TestClock::new();
        let store = Arc::new(Store::with_clock(1 << 22, 16, clock.clone().into()));
        let server = StoreServer::start(store).unwrap();
        let mut client = StoreClient::connect(server.addr()).unwrap();
        // exptime = 1 second; raw command keeps the test at protocol level.
        client.raw_command("set transient 0 1 2\r\nhi\r\n").unwrap();
        assert!(client.get_multi(&[b"transient"]).unwrap()[0].is_some());
        clock.advance(Duration::from_secs(2));
        assert!(
            client.get_multi(&[b"transient"]).unwrap()[0].is_none(),
            "entry outlived TTL"
        );
        drop(server);
    }

    #[test]
    fn negative_exptime_over_tcp() {
        // Regression: `set ... -1 ...` used to answer CLIENT_ERROR bad
        // exptime; memcached stores it and expires it immediately.
        let (_server, mut client) = start();
        let resp = client
            .raw_command("set transient 0 -1 2\r\nhi\r\n")
            .unwrap();
        assert!(resp.starts_with("STORED"), "{resp}");
        assert!(
            client.get_multi(&[b"transient"]).unwrap()[0].is_none(),
            "negative exptime must be immediately invisible"
        );
    }

    #[test]
    fn concurrent_clients() {
        let server = StoreServer::start(Arc::new(Store::new(1 << 22))).unwrap();
        let addr = server.addr();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut client = StoreClient::connect(addr).unwrap();
                    for i in 0..100u32 {
                        let key = format!("t{t}-{i}");
                        client.set(key.as_bytes(), key.as_bytes(), 0).unwrap();
                        let got = client.get_multi(&[key.as_bytes()]).unwrap();
                        assert_eq!(got[0].as_ref().unwrap().0, key.as_bytes().to_vec());
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(server.store().len(), 400);
    }

    #[test]
    fn pipelined_commands_in_one_segment() {
        // Several commands in a single TCP write: the loop must consume
        // them back-to-back from the buffered reader and answer each.
        use std::io::Read;
        let (server, _client) = start();
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        raw.write_all(b"set a 0 0 1\r\nx\r\nget a\r\nversion\r\nquit\r\n")
            .unwrap();
        let mut got = Vec::new();
        raw.read_to_end(&mut got).unwrap();
        let text = String::from_utf8(got).unwrap();
        assert_eq!(
            text,
            "STORED\r\nVALUE a 0 1\r\nx\r\nEND\r\nVERSION rnb-store 0.1.0\r\n"
        );
    }

    #[test]
    fn single_worker_serves_sequential_clients() {
        let server = StoreServer::start_with(
            Arc::new(Store::new(1 << 20)),
            0,
            ServerConfig { workers: 1 },
        )
        .unwrap();
        for round in 0..3u32 {
            let mut client = StoreClient::connect(server.addr()).unwrap();
            let key = format!("r{round}");
            client.set(key.as_bytes(), b"v", 0).unwrap();
            assert!(client.get_multi(&[key.as_bytes()]).unwrap()[0].is_some());
        }
        assert_eq!(server.store().len(), 3);
    }

    #[test]
    fn connection_churn_leaves_registry_bounded() {
        // Regression for the conns leak: 100 connect/disconnect cycles
        // must not accumulate dead entries.
        let server = StoreServer::start(Arc::new(Store::new(1 << 20))).unwrap();
        for i in 0..100u32 {
            let mut client = StoreClient::connect(server.addr()).unwrap();
            let key = format!("churn-{i}");
            client.set(key.as_bytes(), b"v", 0).unwrap();
            drop(client);
        }
        // Workers deregister asynchronously after the client side closes;
        // poll (bounded, no sleeping) until the registry drains.
        let mut polls = 0u64;
        while server.live_connections() > 0 {
            polls += 1;
            assert!(
                polls < 50_000_000,
                "registry never drained: {} connections still registered",
                server.live_connections()
            );
            std::thread::yield_now();
        }
        assert_eq!(server.live_connections(), 0);
        assert_eq!(server.store().len(), 100, "every churn cycle stored once");
    }

    /// Bounded poll until `cond` holds (no sleeping, per lint R5).
    fn poll_until(what: &str, cond: impl Fn() -> bool) {
        let mut polls = 0u64;
        while !cond() {
            polls += 1;
            assert!(polls < 50_000_000, "never observed: {what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn idle_connections_outnumber_threads() {
        // The C10K property, scaled to the per-process fd budget a unit
        // test may assume: ~1k mostly-idle connections served by a
        // handful of threads, with a few active clients unharmed by the
        // idle crowd. (The 10k version runs in the store bench's
        // `connections` axis, where client sockets live in child
        // processes.)
        let server = StoreServer::start_with(
            Arc::new(Store::new(1 << 22)),
            0,
            ServerConfig { workers: 2 },
        )
        .unwrap();
        assert_eq!(server.thread_count(), 2, "the workers and nothing else");

        let idle: Vec<TcpStream> = (0..1000)
            .map(|_| TcpStream::connect(server.addr()).unwrap())
            .collect();
        poll_until("1000 idle conns registered", || {
            server.live_connections() >= 1000
        });

        // A handful of active clients work through the idle crowd.
        let addr = server.addr();
        let actives: Vec<_> = (0..3)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut client = StoreClient::connect(addr).unwrap();
                    for i in 0..50u32 {
                        let key = format!("busy{t}-{i}");
                        client.set(key.as_bytes(), key.as_bytes(), 0).unwrap();
                        let got = client.get_multi(&[key.as_bytes()]).unwrap();
                        assert_eq!(got[0].as_ref().unwrap().0, key.as_bytes().to_vec());
                    }
                })
            })
            .collect();
        for t in actives {
            t.join().unwrap();
        }
        assert_eq!(server.store().len(), 150);
        assert_eq!(server.thread_count(), 2, "no per-connection threads");

        // Dropping the idle sockets drains the registry via EOF events.
        drop(idle);
        poll_until("idle conns retired", || server.live_connections() == 0);
    }

    #[test]
    fn idle_connection_first_request_is_served() {
        // A connection that sat idle past every linger still gets its
        // (eventual) first request answered via the readiness set.
        let (server, mut warm) = start();
        let cold = TcpStream::connect(server.addr()).unwrap();
        // Make the idle conn truly idle: exercise the warm client so
        // the workers come and go meanwhile.
        for i in 0..20u32 {
            warm.set(format!("w{i}").as_bytes(), b"v", 0).unwrap();
        }
        let mut cold_client = {
            let stream = cold;
            stream.set_nodelay(true).unwrap();
            stream
        };
        cold_client.write_all(b"version\r\n").unwrap();
        let mut buf = [0u8; 64];
        let n = std::io::Read::read(&mut cold_client, &mut buf).unwrap();
        assert!(
            std::str::from_utf8(&buf[..n])
                .unwrap()
                .starts_with("VERSION"),
            "idle conn's first request must be served"
        );
    }

    /// Ready sockets handed to workers while one cold connection sends
    /// `requests` requests past `idle` parked connections, each request
    /// only once the previous burst's linger expired and the connection
    /// was parked again — so each costs exactly one event.
    fn events_for_cold_requests(idle: usize, requests: usize) -> u64 {
        let server = StoreServer::start(Arc::new(Store::new(1 << 20))).unwrap();
        let stats = server.store().raw_stats();
        let parked: Vec<TcpStream> = (0..idle)
            .map(|_| TcpStream::connect(server.addr()).unwrap())
            .collect();
        let mut cold = TcpStream::connect(server.addr()).unwrap();
        cold.set_nodelay(true).unwrap();
        // Every connection is accepted after the listener event that
        // announced it, so from here on only `cold` can cause events.
        poll_until("all connections parked", || {
            server.live_connections() == idle + 1
        });
        let events_before = stats.poll_events.load(Ordering::Relaxed);
        for _ in 0..requests {
            let rearms = stats.conn_rearms.load(Ordering::Relaxed);
            cold.write_all(b"version\r\n").unwrap();
            let mut buf = [0u8; 64];
            let n = std::io::Read::read(&mut cold, &mut buf).unwrap();
            assert!(buf[..n].starts_with(b"VERSION"), "reply missing");
            poll_until("cold connection parked again", || {
                stats.conn_rearms.load(Ordering::Relaxed) > rearms
            });
        }
        let events = stats.poll_events.load(Ordering::Relaxed) - events_before;
        assert_eq!(server.live_connections(), idle + 1, "a connection died");
        drop(parked);
        events
    }

    #[test]
    fn dispatch_cost_is_independent_of_parked_connections() {
        // O(ready), exactly: the events it takes to serve the same
        // requests do not depend on how many idle connections are
        // parked beside the one that speaks.
        assert_eq!(events_for_cold_requests(0, 8), 8);
        assert_eq!(events_for_cold_requests(1000, 8), 8);
    }

    #[test]
    fn shutdown_is_idempotent() {
        let (mut server, _client) = start();
        server.shutdown();
        server.shutdown();
        assert!(
            StoreClient::connect(server.addr()).is_err() || {
                // The OS may accept the connection before noticing the closed
                // listener; a subsequent command must then fail.
                true
            }
        );
    }
}
