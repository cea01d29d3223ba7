//! Kernel readiness for the serving path: one `epoll` set that every
//! worker waits on.
//!
//! Each parked socket — every idle connection and the listener — is
//! registered one-shot under a token that indexes a slab holding the
//! socket. One-shot is the concurrency story: an event disarms its
//! socket and reaches exactly one [`Poller::wait`] caller, which takes
//! the socket out of the slab and owns it until it hands it back with
//! [`Poller::repark`] (re-arming it) or drops it and calls
//! [`Poller::release`]. So a [`Conn`] belongs to one thread at a time
//! and **a token is armed iff its socket is in the slab** — kept by the
//! kernel, not by queues. The slab lock covers a slot swap or one
//! `epoll_ctl`, never socket I/O.
//!
//! An idle server makes no system calls: all workers sleep in
//! `epoll_wait`, and the kernel wakes one per ready socket however many
//! are parked. [`Poller::wake`] makes a level-triggered descriptor
//! readable for good, so every waiter returns and keeps returning — the
//! shutdown signal.

use crate::stats::StoreStats;
use epoll::{Arm, Epoll, Event};
use parking_lot::Mutex;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsFd, BorrowedFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Bytes per worker read. Sized for pipelined request bursts.
const WORKER_READ_BUF: usize = 64 * 1024;

/// Token of the wake descriptor; slab slot `i` parks under `i + 1`.
const WAKE_TOKEN: u64 = 0;

/// One connection's state: the stream plus the bytes read ahead of the
/// next complete request. Owned by the slab while parked and by a single
/// worker while served; never shared.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    input: Vec<u8>,
}

impl Conn {
    /// Wrap a freshly accepted stream. Its options are set here, once:
    /// nodelay (the serving path answers small requests); `linger`, how
    /// long a worker read waits for the next request before the
    /// connection is parked again; and `write_stall`, the bound on a
    /// write to a client that stopped reading (so a stalled peer cannot
    /// wedge a worker, and shutdown stays bounded).
    pub fn new(stream: TcpStream, linger: Duration, write_stall: Duration) -> io::Result<Conn> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(linger))?;
        stream.set_write_timeout(Some(write_stall))?;
        Ok(Conn {
            stream,
            input: Vec::new(),
        })
    }

    /// The underlying stream (workers write responses through it).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Bytes read ahead of the next complete request.
    pub fn input(&self) -> &[u8] {
        &self.input
    }

    /// Discard the first `n` buffered bytes (parsed requests).
    pub fn consume(&mut self, n: usize) {
        self.input.drain(..n);
    }

    /// Append up to one buffer of bytes to the input. Returns `Ok(0)` on
    /// EOF; `WouldBlock`/`TimedOut` after `linger` with no traffic (the
    /// signal to park the connection).
    pub fn read_more(&mut self, staging: &mut Vec<u8>) -> io::Result<usize> {
        if staging.len() < WORKER_READ_BUF {
            staging.resize(WORKER_READ_BUF, 0);
        }
        let n = self.stream.read(staging)?;
        self.input.extend_from_slice(&staging[..n]);
        Ok(n)
    }
}

/// A socket the readiness set can hold.
#[derive(Debug)]
pub enum Parked {
    /// The (nonblocking) listener: ready means connections to accept.
    Listener(TcpListener),
    /// An idle connection: ready means request bytes, EOF or an error.
    Conn(Conn),
}

impl AsFd for Parked {
    fn as_fd(&self) -> BorrowedFd<'_> {
        match self {
            Parked::Listener(listener) => listener.as_fd(),
            Parked::Conn(conn) => conn.stream.as_fd(),
        }
    }
}

/// Why [`Poller::wait`] returned.
#[derive(Debug)]
pub enum Wake {
    /// [`Poller::wake`] was called; every later wait returns this too.
    Woken,
    /// This socket is ready and now belongs to the caller, with the
    /// token to hand back to [`Poller::repark`] or [`Poller::release`].
    Ready(u64, Parked),
}

/// Slot `i` holds the socket parked under token `i + 1`. An empty slot
/// is either on the free list or checked out by the thread that won its
/// event.
#[derive(Debug, Default)]
struct Slab {
    slots: Vec<Option<Parked>>,
    free: Vec<usize>,
    /// Set by [`Poller::close_listener`]: listeners are dropped, not
    /// parked, from then on.
    listener_closed: bool,
}

fn slot_of(token: u64) -> Option<usize> {
    usize::try_from(token.checked_sub(1)?).ok()
}

fn token_of(slot: usize) -> u64 {
    slot as u64 + 1
}

impl Slab {
    /// Close whatever `slot` holds and recycle it.
    fn vacate(&mut self, slot: usize) {
        self.slots[slot] = None;
        self.free.push(slot);
    }
}

/// The readiness set shared by all workers.
#[derive(Debug)]
pub struct Poller {
    epoll: Epoll,
    slab: Mutex<Slab>,
    wake_tx: UnixStream,
    /// Registered level-triggered under [`WAKE_TOKEN`] and never read.
    _wake_rx: UnixStream,
}

impl Poller {
    /// An empty set.
    pub fn new() -> io::Result<Poller> {
        let epoll = Epoll::new()?;
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        epoll.add(&wake_rx, WAKE_TOKEN, Arm::Level)?;
        Ok(Poller {
            epoll,
            slab: Mutex::new(Slab::default()),
            wake_tx,
            _wake_rx: wake_rx,
        })
    }

    /// Take ownership of a new socket and arm it. On error the socket is
    /// closed.
    pub fn park(&self, parked: Parked) -> io::Result<()> {
        let mut slab = self.slab.lock();
        let slot = slab.free.pop().unwrap_or(slab.slots.len());
        if slot == slab.slots.len() {
            slab.slots.push(None);
        }
        // Stored before it is armed, so whoever wins the event finds it.
        let armed = self.epoll.add(
            slab.slots[slot].insert(parked),
            token_of(slot),
            Arm::Oneshot,
        );
        if armed.is_err() {
            slab.vacate(slot);
        }
        armed
    }

    /// Hand back the socket won under `token` and re-arm it; bytes that
    /// arrived meanwhile wake a waiter at once. On error — or for a
    /// listener after [`Poller::close_listener`] — the socket is closed
    /// and the token released.
    pub fn repark(&self, token: u64, parked: Parked) -> io::Result<()> {
        let slot = slot_of(token).ok_or(io::ErrorKind::InvalidInput)?;
        let mut slab = self.slab.lock();
        if slab.listener_closed && matches!(parked, Parked::Listener(_)) {
            slab.free.push(slot);
            return Ok(());
        }
        let entry = slab
            .slots
            .get_mut(slot)
            .ok_or(io::ErrorKind::InvalidInput)?;
        // Stored before it is re-armed, as in `park`.
        let armed = self.epoll.rearm(entry.insert(parked), token);
        if armed.is_err() {
            slab.vacate(slot);
        }
        armed
    }

    /// Give up the token of a socket the caller won and has dropped.
    pub fn release(&self, token: u64) {
        if let Some(slot) = slot_of(token) {
            self.slab.lock().free.push(slot);
        }
    }

    /// Sleep until a parked socket is ready or [`Poller::wake`] was
    /// called. Counts `poll_wakeups` per return of the system call and
    /// `poll_events` per socket handed out.
    pub fn wait(&self, stats: &StoreStats) -> io::Result<Wake> {
        // One event per call: a ready socket goes to a sleeping worker
        // instead of queueing behind this one's current burst.
        let mut events = [Event::default()];
        loop {
            let n = match self.epoll.wait(&mut events, None) {
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
                Err(e) => return Err(e),
            };
            stats.poll_wakeups.fetch_add(1, Ordering::Relaxed);
            if n == 0 {
                continue;
            }
            let token = events[0].token();
            if token == WAKE_TOKEN {
                return Ok(Wake::Woken);
            }
            let parked =
                slot_of(token).and_then(|slot| self.slab.lock().slots.get_mut(slot)?.take());
            if let Some(parked) = parked {
                stats.poll_events.fetch_add(1, Ordering::Relaxed);
                return Ok(Wake::Ready(token, parked));
            }
        }
    }

    /// Wake every current and future [`Poller::wait`] caller.
    pub fn wake(&self) {
        // One byte into a socket pair nobody else writes to and nobody
        // reads: its buffer cannot be full, so the write cannot fail.
        let _ = (&self.wake_tx).write_all(&[1]);
    }

    /// Close the listener: now if it is parked, otherwise when its
    /// holder tries to park it again. Connections stay.
    pub fn close_listener(&self) {
        let mut slab = self.slab.lock();
        slab.listener_closed = true;
        let parked = slab
            .slots
            .iter()
            .position(|s| matches!(s, Some(Parked::Listener(_))));
        if let Some(slot) = parked {
            slab.vacate(slot);
        }
    }

    /// Close every parked socket and return how many were connections.
    pub fn close_all(&self) -> usize {
        let mut slab = self.slab.lock();
        let mut conns = 0;
        for slot in 0..slab.slots.len() {
            match slab.slots[slot] {
                Some(Parked::Conn(_)) => conns += 1,
                Some(Parked::Listener(_)) => {}
                None => continue,
            }
            slab.vacate(slot);
        }
        conns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINGER: Duration = Duration::from_millis(5);
    const STALL: Duration = Duration::from_secs(1);

    fn pair() -> (TcpStream, Conn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        (client, Conn::new(server_side, LINGER, STALL).unwrap())
    }

    fn expect_conn(wake: Wake) -> (u64, Conn) {
        match wake {
            Wake::Ready(token, Parked::Conn(conn)) => (token, conn),
            other => panic!("expected a ready connection, got {other:?}"),
        }
    }

    #[test]
    fn arriving_bytes_hand_the_conn_to_the_waiter() {
        let poller = Poller::new().unwrap();
        let stats = StoreStats::default();
        let (mut client, conn) = pair();
        poller.park(Parked::Conn(conn)).unwrap();

        client.write_all(b"version\r\nget a").unwrap();
        let (token, mut conn) = expect_conn(poller.wait(&stats).unwrap());
        let mut staging = Vec::new();
        while conn.input().len() < 14 {
            conn.read_more(&mut staging).unwrap();
        }
        assert_eq!(conn.input(), b"version\r\nget a");
        conn.consume(9);
        assert_eq!(conn.input(), b"get a");

        // Parked again, the same token reports the next bytes.
        poller.repark(token, Parked::Conn(conn)).unwrap();
        client.write_all(b"\r\n").unwrap();
        let (again, mut conn) = expect_conn(poller.wait(&stats).unwrap());
        assert_eq!(again, token);
        conn.read_more(&mut staging).unwrap();
        assert_eq!(conn.input(), b"get a\r\n");
        assert_eq!(stats.poll_events.load(Ordering::Relaxed), 2);
        assert_eq!(stats.poll_wakeups.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn bytes_sent_while_checked_out_fire_on_repark() {
        let poller = Poller::new().unwrap();
        let stats = StoreStats::default();
        let (mut client, conn) = pair();
        poller.park(Parked::Conn(conn)).unwrap();
        client.write_all(b"a").unwrap();
        let (token, conn) = expect_conn(poller.wait(&stats).unwrap());
        // The winner owns the socket: these bytes reach nobody until it
        // hands the connection back, unread.
        client.write_all(b"b").unwrap();
        poller.repark(token, Parked::Conn(conn)).unwrap();
        let (_, mut conn) = expect_conn(poller.wait(&stats).unwrap());
        let mut staging = Vec::new();
        while conn.input().len() < 2 {
            conn.read_more(&mut staging).unwrap();
        }
        assert_eq!(conn.input(), b"ab");
    }

    #[test]
    fn hang_up_is_an_event_and_its_token_is_reused() {
        let poller = Poller::new().unwrap();
        let stats = StoreStats::default();
        let (client, conn) = pair();
        poller.park(Parked::Conn(conn)).unwrap();
        drop(client);
        let (token, mut conn) = expect_conn(poller.wait(&stats).unwrap());
        assert_eq!(conn.read_more(&mut Vec::new()).unwrap(), 0, "EOF");
        drop(conn);
        poller.release(token);

        let (mut client, conn) = pair();
        poller.park(Parked::Conn(conn)).unwrap();
        client.write_all(b"x").unwrap();
        let (reused, _conn) = expect_conn(poller.wait(&stats).unwrap());
        assert_eq!(reused, token, "released slot parks the next socket");
    }

    #[test]
    fn linger_read_times_out_without_traffic() {
        let (mut client, mut conn) = pair();
        let mut staging = Vec::new();
        let err = conn.read_more(&mut staging).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "{err:?}"
        );
        client.write_all(b"hi").unwrap();
        // Bounded retry: the bytes are in flight on loopback.
        let got = (0..1000).find_map(|_| conn.read_more(&mut staging).ok());
        assert_eq!(got, Some(2));
        assert_eq!(conn.input(), b"hi");
    }

    #[test]
    fn wake_reaches_every_waiter_and_stays() {
        let poller = Poller::new().unwrap();
        let stats = StoreStats::default();
        std::thread::scope(|s| {
            let waiters: Vec<_> = (0..3)
                .map(|_| s.spawn(|| matches!(poller.wait(&stats), Ok(Wake::Woken))))
                .collect();
            poller.wake();
            for w in waiters {
                assert!(w.join().unwrap());
            }
        });
        assert!(matches!(poller.wait(&stats), Ok(Wake::Woken)));
    }

    #[test]
    fn closed_listener_is_dropped_parked_or_checked_out() {
        let stats = StoreStats::default();
        for checked_out in [false, true] {
            let poller = Poller::new().unwrap();
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            poller.park(Parked::Listener(listener)).unwrap();
            if checked_out {
                let _pending = TcpStream::connect(addr).unwrap();
                let Wake::Ready(token, parked) = poller.wait(&stats).unwrap() else {
                    panic!("listener event expected");
                };
                assert!(matches!(parked, Parked::Listener(_)));
                poller.close_listener();
                poller.repark(token, parked).unwrap();
            } else {
                poller.close_listener();
            }
            assert!(
                TcpStream::connect(addr).is_err(),
                "port still open (checked_out={checked_out})"
            );
        }
    }

    #[test]
    fn close_all_counts_parked_connections() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        poller.park(Parked::Listener(listener)).unwrap();
        let clients: Vec<TcpStream> = (0..3)
            .map(|_| {
                let (client, conn) = pair();
                poller.park(Parked::Conn(conn)).unwrap();
                client
            })
            .collect();
        assert_eq!(poller.close_all(), 3);
        assert_eq!(poller.close_all(), 0);
        for mut client in clients {
            assert_eq!(client.read(&mut [0u8; 1]).unwrap(), 0, "closed by us");
        }
    }
}
