//! TCP server speaking the memcached text protocol.
//!
//! Architecture (see README "Serving path architecture"): connections
//! are **multiplexed over a fixed pool of worker threads**, and those
//! are all the threads there are. As in memcached, each worker runs its
//! own event loop: its own `epoll` set, holding its wake descriptor, the
//! shared nonblocking listener (registered exclusive, so a new
//! connection wakes one worker, not all) and every connection it
//! accepted, which it alone serves until the connection closes. So tens
//! of thousands of mostly-idle sockets cost buffers — not blocked
//! threads, and not a single system call while nothing arrives.
//! Registrations are level-triggered and never re-armed: each readiness
//! event on a connection is answered with one nonblocking read, every
//! complete buffered request executed ([`drain_input`], incremental
//! parsing via [`protocol::next_request`]) and one write of the batch's
//! replies. What the socket cannot take waits in the connection's
//! output, and the connection is read again only once that is flushed.
//! Replies are built a 64 KiB chunk at a time: a `get` whose reply would
//! outgrow the chunk stops at a key boundary, and the connection waits
//! for writability to resume it at its next key ([`ReplyCursor`] keeps
//! where that key starts, so the line is parsed once), and no buffer
//! holds more than a chunk and one value. A `get` is one pass over its
//! keys per chunk ([`Store::get_each`]'s loop): each hit is written into
//! the reply from its shard, under the shard's guard, so no value is
//! cloned. Each worker owns one [`ConnScratch`], so the command
//! loop is allocation-free at steady state (proven by the
//! `zero_alloc_serve` integration test, which drives [`drain_input`] over
//! in-memory bytes).

use crate::protocol::{self, reply, Command, NextRequest, StoreVerb};
use crate::shard::{ArithOutcome, CasOutcome, SetOutcome};
use crate::stats::StoreStats;
use crate::store::Store;
use epoll::{Epoll, Event, Interest};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::ControlFlow;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

/// Bytes per connection read. Sized for pipelined request bursts.
const READ_BUF: usize = 64 * 1024;

/// Reply bytes a worker builds before it writes them and yields: a reply
/// that would outgrow the chunk stops at a key boundary, and the rest of
/// it waits for the socket to take this chunk. Only a single value
/// larger than the chunk grows the buffer past it, while it is in flight.
const REPLY_CHUNK: usize = READ_BUF;

/// Room a request needs left in the chunk before it starts: more than
/// any reply but a get's, whose hits are each checked against the chunk
/// (a `stats` listing is under 2 KiB).
const REPLY_ROOM: usize = 4 << 10;

/// Readiness events a worker takes per `epoll_wait`.
const EVENTS_PER_WAIT: usize = 64;

/// Token of a worker's wake descriptor.
const WAKE: u64 = 0;
/// Token of the listener; connection slot `i` is registered under
/// `i + FIRST_CONN`.
const LISTENER: u64 = 1;
const FIRST_CONN: u64 = 2;

/// Tuning knobs for [`StoreServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads — all the threads the server runs. Each owns an
    /// event loop, its scratch buffers and the connections it accepted.
    pub workers: usize,
}

impl Default for ServerConfig {
    /// One worker per core the process may run on: a worker never
    /// blocks on a connection, so more would only time-slice.
    fn default() -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        }
    }
}

/// Live-connection count. Each connection is owned by exactly one
/// worker, which decrements once when it closes the connection (or
/// exits holding it) — so the count is exact, not a high-water mark,
/// and one socket costs one fd (no registry duplicate, which matters at
/// 10k+ connections under an fd rlimit).
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
    shutdown: AtomicBool,
    registry: ConnCount,
    /// The most bytes any reply buffer has had room for: a worker's
    /// chunk or a connection's unsent output.
    #[cfg(test)]
    reply_peak: AtomicUsize,
}

/// A running store server. Dropping the handle shuts the server down,
/// closing live connections (so tests can inject server failures).
pub struct StoreServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// The listening socket. Only the workers hold it, so it closes once
    /// each has been woken to let go of it (or has exited).
    listener: Weak<TcpListener>,
    /// Each worker's thread and the sending end of its wake descriptor.
    workers: Vec<(UnixStream, JoinHandle<()>)>,
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
        let listener = Arc::new(listener);
        let shared = Arc::new(Shared {
            store,
            shutdown: AtomicBool::new(false),
            registry: ConnCount::default(),
            #[cfg(test)]
            reply_peak: AtomicUsize::new(0),
        });
        // Every set is built before any thread starts, so a failure
        // leaves no worker behind.
        let ready = (0..config.workers.max(1))
            .map(|_| Worker::new(&shared, &listener))
            .collect::<io::Result<Vec<_>>>()?;
        let workers = ready
            .into_iter()
            .map(|(wake, worker)| (wake, std::thread::spawn(move || worker.run())))
            .collect();
        Ok(StoreServer {
            addr,
            shared,
            listener: Arc::downgrade(&listener),
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

    /// Connections currently open. Exact: returns to zero once all
    /// clients disconnect and their workers have seen each EOF.
    pub fn live_connections(&self) -> usize {
        self.shared.registry.len()
    }

    /// Total serving threads: the worker pool, nothing else. Independent
    /// of the connection count — the C10K property the readiness sets
    /// exist for.
    pub fn thread_count(&self) -> usize {
        self.workers.len()
    }

    /// The most bytes any reply buffer has had room for since the last
    /// call; resets it.
    #[cfg(test)]
    fn take_reply_peak(&self) -> usize {
        self.shared.reply_peak.swap(0, Ordering::SeqCst)
    }

    /// Wake every worker through its wake descriptor.
    fn wake_workers(&self) {
        for (wake, _) in &self.workers {
            // A worker that already exited no longer reads its end.
            let _ = (&*wake).write(&[1]);
        }
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
    /// The listening socket is closed before the wait begins, so a new
    /// `connect` is refused from then on. The deadline bounds how long
    /// the drain waits for clients that never disconnect; it is a
    /// nominal wait (counted in 1 ms parked intervals, no wall-clock
    /// read), after which the remaining connections are closed abruptly
    /// as in a plain `shutdown`.
    pub fn shutdown_drain(&mut self, deadline: Duration) {
        if !self.shared.shutdown.load(Ordering::SeqCst) {
            // A woken worker that is not shutting down lets go of the
            // listener; the last one to do so closes it. None blocks on
            // a connection, so each answers within one round of events.
            self.wake_workers();
            while self.listener.strong_count() > 0 {
                std::thread::yield_now();
            }
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
        // Each worker exits on its wake event, dropping its connections
        // and its hold on the listener.
        self.wake_workers();
        for (_, worker) in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for StoreServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One connection, owned by the worker that accepted it until it closes.
struct Conn {
    stream: TcpStream,
    /// Bytes read ahead of the next complete request.
    input: Vec<u8>,
    /// Replies the socket has not taken yet: at most one chunk and one
    /// value. While it is non-empty, or `cursor` has more reply to
    /// produce, the connection is registered for writability, not for
    /// reading.
    output: Vec<u8>,
    /// Where the next [`drain_input`] over `input` resumes.
    cursor: ReplyCursor,
    /// Close once `output` is flushed (`quit` or a framing desync).
    closing: bool,
}

/// One serving thread's state. Only that thread touches it.
struct Worker {
    shared: Arc<Shared>,
    epoll: Epoll,
    /// Readable when the server wants this worker to stop listening
    /// (drain) or to exit (shutdown).
    wake: UnixStream,
    /// `None` once a drain made this worker let go of it.
    listener: Option<Arc<TcpListener>>,
    /// Whether the listener is in `epoll`: false after an accept error
    /// until one of this worker's connections closes.
    listening: bool,
    /// Slot `i` holds the connection registered under `i + FIRST_CONN`.
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    scratch: ConnScratch,
}

impl Worker {
    /// A worker with its own set, holding its wake descriptor and the
    /// listener. Returns the sending end of the wake descriptor too.
    fn new(shared: &Arc<Shared>, listener: &Arc<TcpListener>) -> io::Result<(UnixStream, Worker)> {
        let epoll = Epoll::new()?;
        let (wake_tx, wake) = UnixStream::pair()?;
        wake.set_nonblocking(true)?;
        epoll.add(&wake, WAKE, Interest::Read)?;
        epoll.add(&**listener, LISTENER, Interest::ReadExclusive)?;
        let mut scratch = ConnScratch::new();
        scratch.net.resize(READ_BUF, 0);
        let worker = Worker {
            shared: Arc::clone(shared),
            epoll,
            wake,
            listener: Some(Arc::clone(listener)),
            listening: true,
            conns: Vec::new(),
            free: Vec::new(),
            scratch,
        };
        Ok((wake_tx, worker))
    }

    /// The event loop: sleep in the set, answer what is ready, until
    /// shutdown. Counts `poll_wakeups` per return of `epoll_wait` and
    /// `poll_events` per ready listener or connection.
    fn run(mut self) {
        let shared = Arc::clone(&self.shared);
        let stats = shared.store.raw_stats();
        let mut events = [Event::default(); EVENTS_PER_WAIT];
        'serve: loop {
            let n = match self.epoll.wait(&mut events, None) {
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
                // The set itself failed; nothing can reach this worker.
                Err(_) => break,
            };
            stats.poll_wakeups.fetch_add(1, Ordering::Relaxed);
            for event in events.iter().take(n) {
                match event.token() {
                    WAKE if shared.shutdown.load(Ordering::SeqCst) => break 'serve,
                    WAKE => self.stop_listening(),
                    LISTENER => {
                        stats.poll_events.fetch_add(1, Ordering::Relaxed);
                        self.accept_pending(stats);
                    }
                    token => {
                        stats.poll_events.fetch_add(1, Ordering::Relaxed);
                        self.serve(token);
                    }
                }
            }
        }
        let live = self.conns.iter().flatten().count();
        shared.registry.deregister(live);
    }

    /// A drain began: let go of the listener for good.
    fn stop_listening(&mut self) {
        let _ = (&self.wake).read(&mut [0u8; 16]);
        if let Some(listener) = self.listener.take() {
            if self.listening {
                let _ = self.epoll.remove(&*listener);
            }
        }
        self.listening = false;
    }

    /// Accept every pending connection and register it in this set.
    fn accept_pending(&mut self, stats: &StoreStats) {
        let Some(listener) = &self.listener else {
            return;
        };
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    let slot = self.free.pop().unwrap_or(self.conns.len());
                    if stream.set_nodelay(true).is_err()
                        || stream.set_nonblocking(true).is_err()
                        || self
                            .epoll
                            .add(&stream, slot as u64 + FIRST_CONN, Interest::Read)
                            .is_err()
                    {
                        if slot < self.conns.len() {
                            self.free.push(slot);
                        }
                        continue;
                    }
                    let conn = Some(Conn {
                        stream,
                        input: Vec::new(),
                        output: Vec::new(),
                        cursor: ReplyCursor::default(),
                        closing: false,
                    });
                    match self.conns.get_mut(slot) {
                        Some(entry) => *entry = conn,
                        None => self.conns.push(conn),
                    }
                    self.shared.registry.register();
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::Interrupted | io::ErrorKind::ConnectionAborted
                    ) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                // Fd exhaustion: the connection stays in the backlog and
                // the level-triggered listener would fire again at once.
                // As memcached does, stop listening until a connection
                // of ours closes and frees a descriptor.
                Err(_) => {
                    stats.accept_errors.fetch_add(1, Ordering::Relaxed);
                    let _ = self.epoll.remove(&**listener);
                    self.listening = false;
                    return;
                }
            }
        }
    }

    /// Serve the connection registered under `token`; close it if it is
    /// done.
    fn serve(&mut self, token: u64) {
        let Some(slot) = token
            .checked_sub(FIRST_CONN)
            .and_then(|s| usize::try_from(s).ok())
        else {
            return;
        };
        let Some(Some(conn)) = self.conns.get_mut(slot) else {
            return;
        };
        if serve_conn(&self.shared, &self.epoll, token, conn, &mut self.scratch) {
            return;
        }
        // Dropping the stream closes it, which also leaves the set.
        if let Some(entry) = self.conns.get_mut(slot) {
            *entry = None;
        }
        self.free.push(slot);
        self.shared.registry.deregister(1);
        if let (false, Some(listener)) = (self.listening, &self.listener) {
            self.listening = self
                .epoll
                .add(&**listener, LISTENER, Interest::ReadExclusive)
                .is_ok();
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

/// Per-worker (connection-reused) buffers for the command loop.
/// Everything grows to steady-state sizes and is then reused verbatim —
/// the loop performs no allocation once warm.
#[derive(Debug, Default)]
pub struct ConnScratch {
    /// Replies of the last [`drain_input`]: at most one chunk (or one
    /// value larger than that), written at once.
    response: Vec<u8>,
    /// Socket read staging.
    net: Vec<u8>,
}

impl ConnScratch {
    /// Fresh scratch; buffers size themselves on first use.
    pub const fn new() -> Self {
        ConnScratch {
            response: Vec::new(),
            net: Vec::new(),
        }
    }

    /// The replies the last [`drain_input`] produced, in request order.
    pub fn response(&self) -> &[u8] {
        &self.response
    }
}

/// Where a connection's replies stand between [`drain_input`] calls:
/// where the `get` at the front of its input stopped, if one did, and
/// whether a complete request is still unanswered. One per connection,
/// starting from `default()`, passed with that connection's input.
///
/// A stopped get is resumed from the byte offsets kept here, without
/// parsing its line again or skipping the keys already answered. That
/// is sound because the line was validated when it was first parsed,
/// and it stays byte for byte at the front of the input until its `END`
/// is written: the get's bytes were not counted as used up, so the
/// caller drains nothing ahead of them, and only bytes read later are
/// added, behind them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReplyCursor {
    /// The get at the front of the input that stopped at a full chunk.
    get: Option<PartGet>,
    /// The last drain stopped at a full chunk.
    more: bool,
}

impl ReplyCursor {
    /// True when the last [`drain_input`] stopped at a full chunk with a
    /// complete request still unanswered: write its reply, then drain
    /// the rest of the input again before reading more.
    pub fn more(&self) -> bool {
        self.more
    }
}

/// A `get` part answered. Offsets count from the start of its request,
/// which is the start of the input while the get is resumed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct PartGet {
    /// Where the keys not yet answered start, blanks ahead included: from
    /// there to the request's end are those keys and blanks only. 0 until
    /// the get first stops.
    at: usize,
    /// Bytes the whole request takes, used up with its `END`.
    consumed: usize,
    /// True for `gets`.
    with_cas: bool,
    /// Keys answered so far.
    keys: usize,
    /// Hits among them, counted into the stats with the last chunk.
    hits: usize,
}

/// Answer the keys of `list`, the part of `get`'s key list not yet
/// answered: the whole list, out of its line in `request`, if `get.at`
/// is 0, else `request[get.at..]`, whose terminator splits as blanks.
/// Each hit is copied into the reply while its shard's guard is held:
/// bounded memory work, no clone and no socket call. A hit that would
/// overflow a chunk already holding replies ends the chunk before its
/// key; alone, it gets exactly its room. Then the get is counted and
/// ended, and true is returned; or, stopped at a full chunk, `cursor`
/// keeps where its next key starts, and false is returned.
fn answer_get(
    store: &Store,
    request: &[u8],
    list: &[u8],
    mut get: PartGet,
    cursor: &mut ReplyCursor,
    response: &mut Vec<u8>,
) -> io::Result<bool> {
    let (mut written, mut stopped) = (Ok(()), false);
    let (visited, hits) = store.get_until(protocol::keys_in(list), |key, hit| {
        let Some(v) = hit else {
            return ControlFlow::Continue(());
        };
        let room = key.len() + v.data.len() + protocol::VALUE_FRAME + reply::END.len();
        if !response.is_empty() && response.len() + room > REPLY_CHUNK {
            stopped = true;
            return ControlFlow::Break(());
        }
        response.reserve_exact(room);
        let cas = get.with_cas.then_some(v.cas);
        written = protocol::write_value(response, key, v.flags, v.data, cas);
        if written.is_ok() {
            ControlFlow::Continue(())
        } else {
            ControlFlow::Break(())
        }
    });
    written?;
    get.keys += visited;
    get.hits += hits;
    if !stopped {
        store.count_get_txn(get.keys, get.hits);
        protocol::write_end(response)?;
        return Ok(true);
    }
    if get.keys > 0 {
        store
            .raw_stats()
            .get_resumes
            .fetch_add(1, Ordering::Relaxed);
    }
    // The keys not yet answered start past the last key this call
    // visited, or past the verb of a get that visited none: the first
    // token from `request[0..]` is the verb. Only a stopped get walks its
    // tokens again, and only those of this chunk.
    let tokens = visited + usize::from(get.at == 0);
    if let Some(last) = tokens.checked_sub(1) {
        let rest = request.get(get.at..).unwrap_or_default();
        get.at += protocol::key_spans(rest)
            .nth(last)
            .map_or(0, |(_, end)| end);
    }
    get.consumed = request.len();
    cursor.get = Some(get);
    cursor.more = true;
    Ok(false)
}

/// Execute one parsed command other than a `get` against the store,
/// appending any reply to `response`. `data` is the `set`/`cas` payload.
/// `get` and `quit` are the command loop's to act on: here they do
/// nothing.
fn execute_command(
    store: &Store,
    cmd: &Command<'_>,
    data: &[u8],
    response: &mut Vec<u8>,
) -> io::Result<()> {
    let quiet = matches!(
        cmd,
        Command::Set { noreply: true, .. }
            | Command::Cas { noreply: true, .. }
            | Command::Arith { noreply: true, .. }
            | Command::Delete { noreply: true, .. }
    );
    let replied_before = response.len();
    match cmd {
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
        Command::Get { .. } | Command::Quit => {}
    }
    debug_assert!(
        !quiet || response.len() == replied_before,
        "the server writes nothing for a noreply command it parsed, whatever the outcome"
    );
    Ok(())
}

/// Execute the complete requests at the front of `input` — the one
/// command loop. It makes no system call, so no shard lock is ever held
/// across one: the socket is written only after it returns. The
/// replies replace `scratch.response` in request order (the caller
/// answers a pipelined burst with one write, not one per request), up
/// to one chunk of 64 KiB: a `get` whose reply would outgrow it stops at a
/// key boundary and stays at the front of `input`, and the requests
/// behind it wait. `cursor` is the connection's: it carries that get's
/// place to the next call, which resumes it at its next key, and
/// [`ReplyCursor::more`] says whether a call is due before more input is
/// read. `input` must start where the last call's used-up bytes ended.
/// Returns how many bytes of `input` were used up (requests answered in
/// full) and whether to close the connection afterwards (`quit` or a
/// framing desync).
///
/// Every request runs in arrival order: a `get` through `answer_get`,
/// every other one, each `set` and `delete` of a storage burst included,
/// through `execute_command`.
pub fn drain_input(
    store: &Store,
    input: &[u8],
    cursor: &mut ReplyCursor,
    scratch: &mut ConnScratch,
) -> io::Result<(usize, bool)> {
    let response = &mut scratch.response;
    let mut consumed_total = 0usize;
    response.clear();
    response.reserve_exact(REPLY_CHUNK);
    cursor.more = false;
    if let Some(get) = cursor.get.take() {
        let Some(request) = input.get(..get.consumed) else {
            // The input no longer starts with the get.
            return Ok((0, true));
        };
        let list = request.get(get.at..).unwrap_or_default();
        if !answer_get(store, request, list, get, cursor, response)? {
            return Ok((0, false));
        }
        consumed_total = get.consumed;
    }
    loop {
        let full = response.len() + REPLY_ROOM > REPLY_CHUNK;
        let rest = input.get(consumed_total..).unwrap_or_default();
        match protocol::next_request(rest) {
            NextRequest::Incomplete => break,
            // A complete request waits for the next chunk.
            _ if full => {
                cursor.more = true;
                break;
            }
            NextRequest::Desync => return Ok((consumed_total, true)),
            NextRequest::Error { msg, consumed } => {
                write!(response, "CLIENT_ERROR {msg}\r\n")?;
                consumed_total += consumed;
            }
            NextRequest::Request {
                cmd: Command::Get { keys, with_cas },
                consumed,
                ..
            } => {
                let request = rest.get(..consumed).unwrap_or_default();
                let get = PartGet {
                    with_cas,
                    ..PartGet::default()
                };
                if !answer_get(store, request, keys.list(), get, cursor, response)? {
                    break;
                }
                consumed_total += consumed;
            }
            NextRequest::Request {
                cmd,
                data,
                consumed,
                ..
            } => {
                if matches!(cmd, Command::Quit) {
                    return Ok((consumed_total + consumed, true));
                }
                execute_command(store, &cmd, data, response)?;
                consumed_total += consumed;
            }
        }
    }
    Ok((consumed_total, false))
}

/// Answer one readiness event on `conn`: flush its pending output if it
/// has any; otherwise one read (none while its replies have more to
/// produce from buffered input), [`drain_input`] over what is buffered
/// and one write of the chunk. A connection with more reply to produce
/// stays registered for writability and gets its next chunk on a later
/// event, so one large request never monopolises its worker, and no
/// reply buffer holds more than a chunk and one value. Counts
/// `conn_reads` and `conn_writes` per system call. Returns false when
/// the connection should close.
fn serve_conn(
    shared: &Shared,
    epoll: &Epoll,
    token: u64,
    conn: &mut Conn,
    scratch: &mut ConnScratch,
) -> bool {
    let store = &shared.store;
    let stats = store.raw_stats();
    if !conn.output.is_empty() {
        let Some(n) = write_some(stats, &conn.stream, &conn.output) else {
            return false;
        };
        conn.output.drain(..n);
        if !conn.output.is_empty() {
            return true;
        }
        conn.output.shrink_to(REPLY_CHUNK);
        // Flushed: the next chunk on the next event, or close, or read
        // requests again.
        return conn.cursor.more()
            || (!conn.closing && epoll.modify(&conn.stream, token, Interest::Read).is_ok());
    }
    let writing = conn.cursor.more();
    if !writing {
        stats.conn_reads.fetch_add(1, Ordering::Relaxed);
        let n = match (&conn.stream).read(&mut scratch.net) {
            Ok(0) => return false,
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) =>
            {
                return true
            }
            Err(_) => return false,
        };
        stats.bytes_read.fetch_add(n as u64, Ordering::Relaxed);
        conn.input
            .extend_from_slice(scratch.net.get(..n).unwrap_or_default());
    }
    let Ok((consumed, close)) = drain_input(store, &conn.input, &mut conn.cursor, scratch) else {
        return false;
    };
    conn.input.drain(..consumed);
    let reply = scratch.response.as_slice();
    #[cfg(test)]
    shared
        .reply_peak
        .fetch_max(scratch.response.capacity(), Ordering::SeqCst);
    let n = if reply.is_empty() {
        0
    } else {
        let Some(n) = write_some(stats, &conn.stream, reply) else {
            return false;
        };
        n
    };
    // What the socket did not take waits in the output, sized to fit.
    if let Some(rest) = reply.get(n..).filter(|rest| !rest.is_empty()) {
        conn.output.reserve_exact(rest.len());
        conn.output.extend_from_slice(rest);
        #[cfg(test)]
        shared
            .reply_peak
            .fetch_max(conn.output.capacity(), Ordering::SeqCst);
    }
    // A value larger than the chunk grew the buffer only while it was in
    // flight.
    if scratch.response.capacity() > REPLY_CHUNK {
        scratch.response.clear();
        scratch.response.shrink_to(REPLY_CHUNK);
    }
    conn.closing = close;
    if !conn.output.is_empty() || conn.cursor.more() {
        return writing || epoll.modify(&conn.stream, token, Interest::Write).is_ok();
    }
    !close && (!writing || epoll.modify(&conn.stream, token, Interest::Read).is_ok())
}

/// One nonblocking write of `bytes`. Returns how many the socket took, or
/// `None` if the connection failed.
fn write_some(stats: &StoreStats, mut stream: &TcpStream, bytes: &[u8]) -> Option<usize> {
    stats.conn_writes.fetch_add(1, Ordering::Relaxed);
    match stream.write(bytes) {
        Ok(n) => {
            stats.bytes_written.fetch_add(n as u64, Ordering::Relaxed);
            Some(n)
        }
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
            ) =>
        {
            Some(0)
        }
        Err(_) => None,
    }
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

    /// [`start`] with a single worker, so every reply shares one buffer.
    fn start_one_worker() -> (StoreServer, StoreClient) {
        let server = StoreServer::start_with(
            Arc::new(Store::new(1 << 22)),
            0,
            ServerConfig { workers: 1 },
        )
        .unwrap();
        let client = StoreClient::connect(server.addr()).unwrap();
        (server, client)
    }

    #[test]
    fn pipelined_storage_bursts_over_tcp() {
        let (_server, mut client) = start();
        let keys: Vec<Vec<u8>> = (0..40).map(|i| format!("bk{i}").into_bytes()).collect();
        let vals: Vec<Vec<u8>> = (0..40).map(|i| format!("bv{i}").into_bytes()).collect();
        // Every third set is quiet: the server answers the others only,
        // and the get below would desync on a stray reply.
        let sets: Vec<StorageOp<'_>> = keys
            .iter()
            .zip(&vals)
            .enumerate()
            .map(|(i, (k, v))| StorageOp::Set {
                key: k,
                value: v,
                flags: 5,
                noreply: i % 3 == 0,
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
        // The server counted one cmd_set per op of the burst.
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
        // One pipelined burst mixing set/get/delete/garbage: every reply
        // must arrive in request order, and a get between two sets of
        // the same key must observe the first one.
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
        // Clients send `noreply` and read nothing back for it, so one
        // stray line would desync their next reply: a quiet command is
        // answered by nothing, stored or refused, alone or inside a
        // burst. A store of 16 shards of 256 KiB refuses a 300 KiB value.
        let (server, _client) = start();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let big = |verb: &str| {
            let mut command = format!("{verb} big 0 0 {} noreply\r\n", 300 << 10).into_bytes();
            command.resize(command.len() + (300 << 10), b'x');
            [command, b"\r\n".to_vec()].concat()
        };
        let script: Vec<u8> = [
            &b"set quiet 0 0 1 noreply\r\nq\r\nset loud 0 0 1\r\nl\r\nget quiet\r\n"[..],
            // Refused alone, then between two sets, then as an `add`.
            &big("set")[..],
            &b"get big\r\nset a 0 0 1\r\na\r\n"[..],
            &big("set")[..],
            &b"set b 0 0 1\r\nb\r\n"[..],
            &big("add")[..],
            &b"delete ghost noreply\r\ndelete a\r\nquit\r\n"[..],
        ]
        .concat();
        stream.write_all(&script).unwrap();
        let mut response = Vec::new();
        stream.read_to_end(&mut response).unwrap();
        let acknowledged = "STORED\r\nVALUE quiet 0 1\r\nq\r\nEND\r\n\
                            END\r\nSTORED\r\nSTORED\r\nDELETED\r\n";
        assert_eq!(String::from_utf8_lossy(&response), acknowledged);
        assert_eq!(server.store().stats().oom_errors, 3);
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
        // One worker must multiplex them as well as several do.
        for config in [ServerConfig::default(), ServerConfig { workers: 1 }] {
            let server =
                StoreServer::start_with(Arc::new(Store::new(1 << 22)), 0, config.clone()).unwrap();
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
            assert_eq!(server.store().len(), 400, "{config:?}");
        }
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
        // test may assume: ~1k mostly-idle connections served by one or
        // two threads, with a few active clients unharmed by the idle
        // crowd. (The 10k version runs in the store bench's
        // `connections` axis, where client sockets live in child
        // processes.)
        for workers in [2, 1] {
            let server =
                StoreServer::start_with(Arc::new(Store::new(1 << 22)), 0, ServerConfig { workers })
                    .unwrap();
            assert_eq!(
                server.thread_count(),
                workers,
                "the workers and nothing else"
            );

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
            assert_eq!(server.thread_count(), workers, "no per-connection threads");

            // Dropping the idle sockets drains the registry via EOF events.
            drop(idle);
            poll_until("idle conns retired", || server.live_connections() == 0);
        }
    }

    #[test]
    fn idle_connection_first_request_is_served() {
        // A connection that sat idle while the workers served others
        // still gets its (eventual) first request answered.
        let (server, mut warm) = start();
        let mut cold = TcpStream::connect(server.addr()).unwrap();
        cold.set_nodelay(true).unwrap();
        for i in 0..20u32 {
            warm.set(format!("w{i}").as_bytes(), b"v", 0).unwrap();
        }
        cold.write_all(b"version\r\n").unwrap();
        let mut buf = [0u8; 64];
        let n = cold.read(&mut buf).unwrap();
        assert!(
            buf[..n].starts_with(b"VERSION"),
            "idle conn's first request must be served"
        );
    }

    /// The `[poll_events, conn_reads, conn_writes]` it costs a one-worker
    /// server to answer `requests` sequential round trips on one cold
    /// connection while `idle` other connections sit in the same set.
    fn loop_cost_of_cold_requests(idle: usize, requests: usize) -> [u64; 3] {
        let server = StoreServer::start_with(
            Arc::new(Store::new(1 << 20)),
            0,
            ServerConfig { workers: 1 },
        )
        .unwrap();
        let stats = server.store().raw_stats();
        let idlers: Vec<TcpStream> = (0..idle)
            .map(|_| TcpStream::connect(server.addr()).unwrap())
            .collect();
        let mut cold = TcpStream::connect(server.addr()).unwrap();
        cold.set_nodelay(true).unwrap();
        // Every connection is accepted after the listener event that
        // announced it, so from here on only `cold` can cause events.
        poll_until("all connections accepted", || {
            server.live_connections() == idle + 1
        });
        let counters = [&stats.poll_events, &stats.conn_reads, &stats.conn_writes];
        let before = counters.map(|c| c.load(Ordering::Relaxed));
        for _ in 0..requests {
            cold.write_all(b"version\r\n").unwrap();
            let mut buf = [0u8; 64];
            let n = cold.read(&mut buf).unwrap();
            assert!(buf[..n].starts_with(b"VERSION"), "reply missing");
        }
        // Each counter is bumped before its system call, so the last
        // reply's arrival means every count for it is in.
        let cost = [0, 1, 2].map(|i| counters[i].load(Ordering::Relaxed) - before[i]);
        assert_eq!(server.live_connections(), idle + 1, "a connection died");
        drop(idlers);
        cost
    }

    #[test]
    fn dispatch_cost_is_independent_of_parked_connections() {
        // O(ready), exactly: one event, one read and one write per
        // round trip, however many idle connections share the set.
        assert_eq!(loop_cost_of_cold_requests(0, 8), [8, 8, 8]);
        assert_eq!(loop_cost_of_cold_requests(1000, 8), [8, 8, 8]);
    }

    #[test]
    fn a_get_resumes_at_the_key_after_its_chunk_and_the_next_request_waits() {
        let store = Store::new(1 << 22);
        let value = vec![b'v'; 30 << 10];
        for key in [b"a", b"b", b"c"] {
            store.set(key, &value, 0, false);
        }
        let stanza = |key: &[u8]| {
            let mut stanza = Vec::new();
            protocol::write_value(&mut stanza, key, 0, &value, None).unwrap();
            stanza
        };
        let input = b"\r\nget a \tb  c \r\nversion\r\n";
        let mut cursor = ReplyCursor::default();
        let mut scratch = ConnScratch::new();
        // Two values fill most of a chunk; the third would overflow it.
        // The get stays in the input, uncounted but for its resume, and
        // the cursor keeps where its key list goes on: at `c`.
        assert_eq!(
            drain_input(&store, input, &mut cursor, &mut scratch).unwrap(),
            (0, false)
        );
        assert!(cursor.more());
        assert_eq!(scratch.response(), [stanza(b"a"), stanza(b"b")].concat());
        let stats = store.stats();
        assert_eq!((stats.get_txns, stats.gets, stats.get_resumes), (0, 0, 1));
        let part = cursor.get.unwrap();
        assert_eq!(&input[part.at..part.consumed], b"  c \r\n");
        // The next call answers the third key, ends the get and serves
        // the request behind it.
        assert_eq!(
            drain_input(&store, input, &mut cursor, &mut scratch).unwrap(),
            (input.len(), false)
        );
        assert!(!cursor.more());
        assert_eq!(
            scratch.response(),
            [&stanza(b"c")[..], reply::END, reply::VERSION].concat()
        );
        let stats = store.stats();
        assert_eq!(
            (stats.get_txns, stats.gets, stats.hits, stats.get_resumes),
            (1, 3, 3, 1)
        );
        assert_eq!(stats.get_batch_hist[2], 1, "one get of three keys");
    }

    #[test]
    fn a_get_answered_in_chunks_parses_its_line_once() {
        // 200 values of 1 KiB take four chunks. Only the first call
        // parses the get's line; the others resume at the next key, and
        // the last also parses the request behind it.
        let store = Store::new(1 << 22);
        let keys: Vec<String> = (0..200).map(|i| format!("key-{i}")).collect();
        for key in &keys {
            store.set(key.as_bytes(), &[b'v'; 1024], 0, false);
        }
        let input = format!("get {}\r\nversion\r\n", keys.join(" \t")).into_bytes();
        let mut cursor = ReplyCursor::default();
        let mut scratch = ConnScratch::new();
        let before = protocol::LINES_PARSED.with(std::cell::Cell::get);
        let mut calls = 0u64;
        loop {
            let (consumed, close) = drain_input(&store, &input, &mut cursor, &mut scratch).unwrap();
            assert!(!close);
            calls += 1;
            let parsed = protocol::LINES_PARSED.with(std::cell::Cell::get) - before;
            if !cursor.more() {
                assert_eq!(consumed, input.len());
                assert_eq!(parsed, 2, "the get's line and the version's");
                break;
            }
            assert_eq!((consumed, parsed), (0, 1), "call {calls}");
            assert!(calls < 100, "the get is not going forward");
        }
        assert!(calls >= 3, "{calls} calls");
        let stats = store.stats();
        assert_eq!((stats.get_txns, stats.hits), (1, 200));
        assert_eq!(stats.get_resumes, calls - 1);
    }

    #[test]
    fn a_bad_token_is_quoted_short_and_the_next_request_is_answered() {
        // A line of 1 MiB, terminator included: the longest the parser
        // takes. Its one token is an unknown command, echoed in at most
        // a few dozen bytes, however it escapes.
        let store = Store::new(1 << 20);
        let mut scratch = ConnScratch::new();
        for byte in [0x01, b'x'] {
            let mut input = vec![byte; protocol::MAX_REQUEST_LINE - 2];
            input.extend_from_slice(b"\r\nversion\r\n");
            let mut cursor = ReplyCursor::default();
            assert_eq!(
                drain_input(&store, &input, &mut cursor, &mut scratch).unwrap(),
                (input.len(), false)
            );
            let reply = scratch.response();
            let error = reply.strip_suffix(reply::VERSION).unwrap();
            assert!(error.starts_with(b"CLIENT_ERROR unknown command"));
            assert!(error.len() <= 128, "{}", String::from_utf8_lossy(error));
        }
    }

    /// Bytes a worker makes room for to answer one hit of `value_len`
    /// bytes under a key of `key_len`, with the END that may follow.
    fn value_room(key_len: usize, value_len: usize) -> usize {
        key_len + value_len + protocol::VALUE_FRAME + reply::END.len()
    }

    #[test]
    fn slow_reader_costs_its_buffer_not_its_worker() {
        // One worker. Connection A asks for far more than the socket
        // buffers hold and reads nothing; B's round trips must not wait
        // for A, A must still get every byte once it reads, and what
        // waits for A is one reply buffer of one chunk or one value, not
        // all 64 replies.
        let server = StoreServer::start_with(
            Arc::new(Store::new(1 << 26)),
            0,
            ServerConfig { workers: 1 },
        )
        .unwrap();
        let value: Vec<u8> = (0..256 * 1024u32).map(|i| (i % 251) as u8).collect();
        let mut b = StoreClient::connect(server.addr()).unwrap();
        b.set(b"big", &value, 0).unwrap();

        let mut a = TcpStream::connect(server.addr()).unwrap();
        a.write_all(&b"get big\r\n".repeat(64)).unwrap();
        for i in 0..100u32 {
            let key = format!("b{i}");
            b.set(key.as_bytes(), b"v", 0).unwrap();
            assert!(b.get_multi(&[key.as_bytes()]).unwrap()[0].is_some());
        }

        let mut expect = Vec::new();
        for _ in 0..64 {
            expect.extend_from_slice(format!("VALUE big 0 {}\r\n", value.len()).as_bytes());
            expect.extend_from_slice(&value);
            expect.extend_from_slice(b"\r\nEND\r\n");
        }
        let mut got = vec![0u8; expect.len()];
        a.read_exact(&mut got).unwrap();
        assert!(got == expect, "slow reader's replies corrupted");
        let peak = server.take_reply_peak();
        assert!(
            peak <= REPLY_CHUNK.max(value_room(3, value.len())),
            "a reply buffer grew to {peak} bytes"
        );
    }

    #[test]
    fn a_get_of_a_thousand_values_is_answered_chunk_by_chunk() {
        // The overbooked benchmark's largest requests: 1,200 keys of
        // 1 KiB at one node, 1.2 MB of reply. One worker builds it a
        // chunk at a time, so no reply buffer outgrows the chunk, and
        // the stats count one transaction of 1,200 keys.
        let server = StoreServer::start_with(
            Arc::new(Store::new(1 << 24)),
            0,
            ServerConfig { workers: 1 },
        )
        .unwrap();
        let keys: Vec<String> = (0..1200).map(|i| format!("item:{i}")).collect();
        let value = [b'v'; 1024];
        for key in &keys {
            server.store().set(key.as_bytes(), &value, 0, false);
        }
        // Warm the worker, then count from a clean slate.
        let mut client = StoreClient::connect(server.addr()).unwrap();
        assert!(client.version().unwrap().contains("rnb-store"));
        let before = server.store().stats();
        server.take_reply_peak();

        let mut raw = TcpStream::connect(server.addr()).unwrap();
        raw.write_all(format!("get {}\r\n", keys.join(" ")).as_bytes())
            .unwrap();
        let mut expect = Vec::new();
        for key in &keys {
            protocol::write_value(&mut expect, key.as_bytes(), 0, &value, None).unwrap();
        }
        protocol::write_end(&mut expect).unwrap();
        let mut got = vec![0u8; expect.len()];
        raw.read_exact(&mut got).unwrap();
        assert!(got == expect, "the chunked reply differs");

        let peak = server.take_reply_peak();
        assert!(
            peak <= REPLY_CHUNK + value_room(9, value.len()),
            "a reply buffer grew to {peak} bytes"
        );
        let after = server.store().stats();
        assert_eq!(after.get_txns - before.get_txns, 1);
        assert_eq!(after.gets - before.gets, 1200);
        assert_eq!(after.hits - before.hits, 1200);
        assert_eq!(after.get_batch_hist[8] - before.get_batch_hist[8], 1);
        let chunks = expect.len().div_ceil(REPLY_CHUNK) as u64;
        let resumes = after.get_resumes - before.get_resumes;
        assert!(
            (chunks - 1..=chunks).contains(&resumes),
            "{resumes} resumes for {} bytes",
            expect.len()
        );
    }

    #[test]
    fn a_value_larger_than_the_chunk_holds_its_room_only_while_in_flight() {
        // One worker. A 200 KiB value is answered whole, in a buffer
        // grown to fit it; once it is written the buffer is back to one
        // chunk, which the next reply shows.
        let (server, mut client) = start_one_worker();
        let value = vec![b'x'; 200 << 10];
        client.set(b"huge", &value, 0).unwrap();
        server.take_reply_peak();
        let got = client.get_multi(&[b"huge", b"huge"]).unwrap();
        assert!(got
            .iter()
            .all(|g| g.as_ref().map(|(v, _)| v) == Some(&value)));
        let peak = server.take_reply_peak();
        assert!(
            (value.len()..=value_room(4, value.len())).contains(&peak),
            "the buffer held {peak} bytes for one {} byte value",
            value.len()
        );
        assert!(client.version().unwrap().contains("rnb-store"));
        assert_eq!(server.take_reply_peak(), REPLY_CHUNK);
    }

    #[test]
    fn endless_request_line_closes_only_its_connection() {
        // One worker. A peer that streams a request line past
        // MAX_REQUEST_LINE without ending it, or as many blank lines, is
        // cut off; the worker goes on serving everyone else.
        let server = StoreServer::start_with(
            Arc::new(Store::new(1 << 20)),
            0,
            ServerConfig { workers: 1 },
        )
        .unwrap();
        let mut other = StoreClient::connect(server.addr()).unwrap();
        for endless in [
            b"get ".repeat(protocol::MAX_REQUEST_LINE / 4),
            b"\r\n".repeat(protocol::MAX_REQUEST_LINE / 2),
        ] {
            let mut peer = TcpStream::connect(server.addr()).unwrap();
            peer.write_all(&endless).unwrap();
            let mut rest = Vec::new();
            // Closed without a reply: EOF, or a reset if the close beat
            // some of the bytes.
            let read = peer.read_to_end(&mut rest);
            assert!(read.is_err() || rest.is_empty(), "{read:?}, {rest:?}");
            assert!(other.version().unwrap().contains("rnb-store"));
        }
        poll_until("the cut-off peers retired", || {
            server.live_connections() == 1
        });
    }

    #[test]
    fn shutdown_is_idempotent_and_refuses_connections() {
        let (mut server, _client) = start();
        server.shutdown();
        server.shutdown();
        assert!(TcpStream::connect(server.addr()).is_err(), "listener open");
        assert_eq!(server.live_connections(), 0);
    }

    /// What the seed per-key path answers a `get` (or `gets`) of `keys`:
    /// one `get_multi_reference` transaction, formatted key by key.
    fn reference_reply(store: &Store, keys: &[&[u8]], with_cas: bool) -> Vec<u8> {
        let mut reply = Vec::new();
        for (key, value) in keys.iter().zip(store.get_multi_reference(keys)) {
            if let Some(v) = value {
                let cas = with_cas.then_some(v.cas);
                protocol::write_value(&mut reply, key, v.flags, &v.data, cas).unwrap();
            }
        }
        protocol::write_end(&mut reply).unwrap();
        reply
    }

    proptest::proptest! {
        /// The one-pass `get`/`gets` of `drain_input` answers byte for
        /// byte what the per-key reference answers, for hits, misses,
        /// duplicates and TTL-expired keys on 1, 2 and 16 shards; the
        /// stats end equal, and so does the LRU order: under the same
        /// eviction pressure the same entries survive.
        #[test]
        fn one_pass_get_matches_the_per_key_reference(
            stored in proptest::collection::vec((0u32..24, 0usize..40, 0u8..3), 0..32),
            lines in proptest::collection::vec(
                (proptest::collection::vec(0u32..32, 1..12), proptest::prelude::any::<bool>()),
                1..8,
            ),
            shards_pick in 0usize..3,
        ) {
            let shards = [1, 2, 16][shards_pick];
            let clock = TestClock::new();
            let served = Store::with_clock(8 << 10, shards, clock.clone().into());
            let reference = Store::with_clock(8 << 10, shards, clock.clone().into());
            for store in [&served, &reference] {
                for &(n, vlen, ttl) in &stored {
                    // 0: no expiry, 1: expired below, 2: still alive.
                    let ttl = [None, Some(1), Some(100)][usize::from(ttl)].map(Duration::from_secs);
                    store.set_with_ttl(format!("k{n}").as_bytes(), &vec![b'v'; vlen], n, false, ttl);
                }
            }
            clock.advance(Duration::from_secs(2));
            let mut scratch = ConnScratch::new();
            for (numbers, with_cas) in &lines {
                let keys: Vec<Vec<u8>> =
                    numbers.iter().map(|n| format!("k{n}").into_bytes()).collect();
                let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
                let mut line = if *with_cas { b"gets".to_vec() } else { b"get".to_vec() };
                for key in &refs {
                    line.push(b' ');
                    line.extend_from_slice(key);
                }
                line.extend_from_slice(b"\r\n");
                proptest::prop_assert_eq!(
                    drain_input(&served, &line, &mut ReplyCursor::default(), &mut scratch).unwrap(),
                    (line.len(), false)
                );
                let want = reference_reply(&reference, &refs, *with_cas);
                proptest::prop_assert_eq!(scratch.response(), &want[..]);
            }
            proptest::prop_assert_eq!(served.stats(), reference.stats());

            for store in [&served, &reference] {
                for i in 0..48 {
                    store.set(format!("pressure-{i}").as_bytes(), &[b'p'; 20], 0, false);
                }
            }
            let all: Vec<Vec<u8>> = (0..32).map(|n| format!("k{n}").into_bytes()).collect();
            let all: Vec<&[u8]> = all.iter().map(Vec::as_slice).collect();
            proptest::prop_assert_eq!(
                served.get_multi_reference(&all),
                reference.get_multi_reference(&all)
            );
            proptest::prop_assert_eq!(served.stats(), reference.stats());
        }
    }

    /// One request of a random script over six keys. `op` picks the
    /// command (mostly `set`, so storage runs form), `size` the value
    /// length (30 KiB values fill a chunk in three hits, 80 KiB is more
    /// than a chunk, and the last is larger than any store below holds),
    /// `exptime` none, already expired or far off, and `noreply` whether
    /// a storage command asks for silence. `n` varies the stored bytes
    /// and the runs of spaces and tabs between a get's keys.
    fn script_request(
        n: usize,
        (op, key, size, exptime, noreply): (u8, u8, u8, u8, bool),
    ) -> Vec<u8> {
        let quiet = if noreply { " noreply" } else { "" };
        let exptime = [0, -1, 100][usize::from(exptime)];
        let storage = |verb: &str| {
            let len = [1, 60, 900, 30 << 10, 80 << 10, 1 << 20][usize::from(size)];
            let mut request = format!("{verb} k{key} {n} {exptime} {len}{quiet}\r\n").into_bytes();
            request.resize(request.len() + len, b'a' + (n % 26) as u8);
            request.extend_from_slice(b"\r\n");
            request
        };
        match op {
            0..=3 => storage("set"),
            4 => storage("add"),
            5 | 6 => format!("delete k{key}{quiet}\r\n").into_bytes(),
            // Every key twice, starting at `key`, after runs of blanks.
            7 | 8 => {
                let verb = if op == 7 { "get" } else { "gets" };
                let blanks = |i: usize| [" ", "\t", "  \t", " \t \t"][(n + i) % 4];
                let keys: String = (0..12)
                    .map(|i| format!("{}k{}", blanks(i), (usize::from(key) + i) % 6))
                    .collect();
                format!("{verb}{keys}{}\r\n", blanks(n % 3)).into_bytes()
            }
            _ => [&b"frobnicate\r\n"[..], b"delete\r\n", b"set k0 0 0\r\n"][usize::from(key % 3)]
                .to_vec(),
        }
    }

    /// The room of the largest value the scripts store: one chunk's reply
    /// may hold it alone.
    const OVERSIZED: usize = (80 << 10) + protocol::VALUE_FRAME + 10;

    /// More reply bytes than a script of at most 40 requests gets: a get
    /// has 12 keys, and the stores below refuse a value over 80 KiB.
    const SCRIPT_REPLY_MAX: usize = 40 * (12 * ((80 << 10) + protocol::VALUE_FRAME + 10) + 64);

    /// Every reply `drain_input` gives `input` on one connection, calling
    /// it again while the cursor says more is due, and the number of
    /// calls that took.
    fn drain_all(store: &Store, input: &[u8], scratch: &mut ConnScratch) -> (Vec<u8>, usize) {
        let mut cursor = ReplyCursor::default();
        let (mut replies, mut at, mut calls) = (Vec::new(), 0, 0);
        loop {
            let (consumed, close) = drain_input(store, &input[at..], &mut cursor, scratch).unwrap();
            assert!(!close, "the scripts hold no quit and no desync");
            // One chunk, or one value larger than a chunk with its END.
            assert!(scratch.response().len() <= REPLY_CHUNK.max(OVERSIZED));
            replies.extend_from_slice(scratch.response());
            assert!(
                replies.len() <= SCRIPT_REPLY_MAX,
                "a get is not going forward"
            );
            at += consumed;
            calls += 1;
            if !cursor.more() {
                break;
            }
        }
        assert_eq!(at, input.len(), "every request answered");
        (replies, calls)
    }

    /// Every reply `drain_input` gives `input` on one connection whose
    /// bytes arrive a piece at a time: before each call the next size of
    /// `pieces` (cycled) is added behind what is buffered, also while a
    /// get is mid-reply (at least a byte while no reply is due), and
    /// after each call the bytes used up are drained, as the server does.
    fn drain_in_pieces(
        store: &Store,
        input: &[u8],
        pieces: &[usize],
        scratch: &mut ConnScratch,
    ) -> Vec<u8> {
        let mut cursor = ReplyCursor::default();
        let (mut buffered, mut replies, mut sent) = (Vec::new(), Vec::new(), 0);
        for &piece in pieces.iter().cycle() {
            let piece = if cursor.more() { piece } else { piece.max(1) };
            let arrived = &input[sent..(sent + piece).min(input.len())];
            buffered.extend_from_slice(arrived);
            sent += arrived.len();
            let (consumed, close) = drain_input(store, &buffered, &mut cursor, scratch).unwrap();
            assert!(!close, "the scripts hold no quit and no desync");
            assert!(scratch.response().len() <= REPLY_CHUNK.max(OVERSIZED));
            replies.extend_from_slice(scratch.response());
            assert!(
                replies.len() <= SCRIPT_REPLY_MAX,
                "a get is not going forward"
            );
            buffered.drain(..consumed);
            if sent == input.len() && !cursor.more() {
                break;
            }
        }
        assert!(buffered.is_empty(), "every request answered");
        replies
    }

    /// `stats()` with `get_resumes` cleared: how many chunks a get took
    /// depends on the replies sharing its first chunk.
    fn stats_but_resumes(store: &Store) -> crate::stats::StatsSnapshot {
        crate::stats::StatsSnapshot {
            get_resumes: 0,
            ..store.stats()
        }
    }

    proptest::proptest! {
        /// A pipelined burst, in one buffer and arriving in pieces of
        /// random sizes (so bytes land behind a get while it is
        /// mid-reply), is answered a chunk at most per call, and counted
        /// and stored exactly as the same requests sent one per
        /// `drain_input` call, each driven until no reply remains, and as
        /// a reference that answers every `get` and `gets` with one
        /// `get_multi_reference` transaction: replies byte for byte
        /// (quiet commands silent, refused values, garbage lines,
        /// repeated keys, keys between runs of blanks and replies
        /// spanning several chunks included), `stats()` but for
        /// `get_resumes`, and what every key holds afterwards, on 1 and
        /// 16 shards. Sent alone, a get resumes once per chunk after its
        /// first.
        #[test]
        fn burst_drain_matches_one_command_at_a_time(
            script in proptest::collection::vec(
                (0u8..10, 0u8..6, 0u8..6, 0u8..3, proptest::prelude::any::<bool>()),
                1..40,
            ),
            pieces in proptest::collection::vec(
                proptest::prop_oneof![0usize..100, 0usize..(160 << 10)],
                1..6,
            ),
        ) {
            let requests: Vec<Vec<u8>> =
                script.iter().enumerate().map(|(n, &r)| script_request(n, r)).collect();
            let burst = requests.concat();
            for shards in [1, 16] {
                let clock = TestClock::new();
                let [bursted, pieced, stepped, reference] =
                    [(); 4].map(|()| Store::with_clock(1 << 20, shards, clock.clone().into()));
                let mut scratch = ConnScratch::new();
                let (burst_replies, _) = drain_all(&bursted, &burst, &mut scratch);
                let piece_replies = drain_in_pieces(&pieced, &burst, &pieces, &mut scratch);
                let (mut step_replies, mut resumes) = (Vec::new(), 0);
                let mut reference_replies = Vec::new();
                for request in &requests {
                    let (replies, calls) = drain_all(&stepped, request, &mut scratch);
                    step_replies.extend_from_slice(&replies);
                    resumes += calls - 1;
                    match protocol::next_request(request) {
                        NextRequest::Request { cmd: Command::Get { keys, with_cas }, .. } => {
                            let keys: Vec<&[u8]> = keys.iter().collect();
                            reference_replies
                                .extend_from_slice(&reference_reply(&reference, &keys, with_cas));
                        }
                        _ => reference_replies
                            .extend_from_slice(&drain_all(&reference, request, &mut scratch).0),
                    }
                }
                proptest::prop_assert_eq!(
                    String::from_utf8_lossy(&burst_replies),
                    String::from_utf8_lossy(&reference_replies)
                );
                proptest::prop_assert_eq!(
                    String::from_utf8_lossy(&piece_replies),
                    String::from_utf8_lossy(&reference_replies)
                );
                proptest::prop_assert_eq!(
                    String::from_utf8_lossy(&step_replies),
                    String::from_utf8_lossy(&reference_replies)
                );
                proptest::prop_assert_eq!(stats_but_resumes(&bursted), reference.stats());
                proptest::prop_assert_eq!(stats_but_resumes(&pieced), reference.stats());
                proptest::prop_assert_eq!(stats_but_resumes(&stepped), reference.stats());
                proptest::prop_assert_eq!(stepped.stats().get_resumes, resumes as u64);
                let keys: Vec<Vec<u8>> = (0..6).map(|k| format!("k{k}").into_bytes()).collect();
                let keys: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
                let held = reference.get_multi_reference(&keys);
                proptest::prop_assert_eq!(bursted.get_multi_reference(&keys), held.clone());
                proptest::prop_assert_eq!(pieced.get_multi_reference(&keys), held.clone());
                proptest::prop_assert_eq!(stepped.get_multi_reference(&keys), held);
            }
        }
    }

    #[test]
    fn drain_closes_the_listener_at_once_and_keeps_serving() {
        let (server, mut live) = start();
        let addr = server.addr();
        live.set(b"k", b"v", 0).unwrap();
        let drain = std::thread::spawn(move || {
            let mut server = server;
            server.shutdown_drain(Duration::from_secs(60));
        });
        poll_until("listener closed", || TcpStream::connect(addr).is_err());
        assert!(live.get_multi(&[b"k"]).unwrap()[0].is_some());
        drop(live);
        drain.join().unwrap();
    }
}
