//! Accept back-off under fd exhaustion, against a real `rnb-stored`
//! started with a descriptor limit of [`FD_LIMIT`]. More connections
//! arrive than the node can hold, so `accept` fails (EMFILE) while the
//! backlog is non-empty and the listener stays readable. The node must
//! stop listening instead of spinning on it, keep serving the
//! connections it holds, and accept again once some of them close.

use rnb_cluster::stored_binary;
use rnb_store::StoreClient;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// The node's descriptor limit: room for about 20 connections beside
/// its stdio, listener, epoll sets and wake descriptors.
const FD_LIMIT: usize = 32;
/// Connections opened past the first, more than the limit allows.
const FLOOD: usize = 48;
/// Clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, 100 on
/// every Linux ABI).
const TICKS_PER_S: f64 = 100.0;

/// Kills the node however the test ends.
struct Node(Child);

impl Drop for Node {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Start `rnb-stored` under `ulimit -n FD_LIMIT` (`exec` keeps the pid)
/// and read its address from the `READY` line.
fn spawn_limited_node() -> (Node, SocketAddr) {
    let mut child = Command::new("sh")
        .arg("-c")
        .arg(format!(
            "ulimit -n {FD_LIMIT}; exec \"$0\" --control --port 0 --workers 2"
        ))
        .arg(stored_binary().expect("rnb-stored binary"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn rnb-stored");
    let stdout = child.stdout.take().expect("piped stdout");
    let node = Node(child);
    let mut lines = BufReader::new(stdout).lines();
    let addr = lines
        .find_map(|line| line.ok()?.strip_prefix("READY ")?.parse().ok())
        .expect("READY line");
    (node, addr)
}

/// User plus system CPU time of `pid` in seconds: fields 14 and 15 of
/// `/proc/<pid>/stat`, counted after the parenthesised command name.
fn cpu_seconds(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("proc stat");
    let after_name = &stat[stat.rfind(')').expect("command name") + 1..];
    let fields: Vec<&str> = after_name.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<u64>().expect("tick count");
    (ticks(11) + ticks(12)) as f64 / TICKS_PER_S
}

/// Seconds since boot, from `/proc/uptime`.
fn uptime() -> f64 {
    let text = std::fs::read_to_string("/proc/uptime").expect("proc uptime");
    text.split_whitespace()
        .next()
        .and_then(|s| s.parse().ok())
        .expect("uptime seconds")
}

fn accept_errors(client: &mut StoreClient) -> u64 {
    client.stats().expect("stats")["accept_errors"]
        .parse()
        .expect("numeric stat")
}

fn round_trip(stream: &mut TcpStream) {
    stream.write_all(b"version\r\n").expect("send");
    let mut buf = [0u8; 64];
    let n = stream.read(&mut buf).expect("reply");
    assert!(
        buf[..n].starts_with(b"VERSION"),
        "bad reply {:?}",
        &buf[..n]
    );
}

#[test]
fn fd_exhaustion_parks_the_listener_instead_of_spinning() {
    let (node, addr) = spawn_limited_node();
    let pid = node.0.id();
    let mut first = StoreClient::connect(addr).expect("first connection");
    first.set(b"k", b"v", 0).expect("served before the flood");

    // The kernel completes every handshake into the backlog, so each
    // connect succeeds whether or not the node can accept it.
    let flood: Vec<TcpStream> = (0..FLOOD)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    let mut polls = 0;
    while accept_errors(&mut first) == 0 {
        polls += 1;
        assert!(polls < 100_000, "the node never ran out of descriptors");
        std::thread::yield_now();
    }

    // A parked interval of at least a second: a worker spinning on the
    // listener would burn all of it.
    let (cpu_before, t0) = (cpu_seconds(pid), uptime());
    while uptime() - t0 < 1.0 {
        std::thread::park_timeout(Duration::from_millis(100));
    }
    let (cpu, elapsed) = (cpu_seconds(pid) - cpu_before, uptime() - t0);
    assert!(
        cpu < 0.10 * elapsed,
        "node used {cpu:.2} s of CPU in {elapsed:.2} s with its descriptors exhausted"
    );

    // What it holds is still served.
    assert_eq!(
        first.get_multi(&[b"k"]).expect("get")[0]
            .as_ref()
            .map(|(v, _)| v.as_slice()),
        Some(b"v".as_slice())
    );

    // Once connections close, the node listens again and serves a new
    // one (queued behind the closed ones it must accept first).
    drop(flood);
    let mut fresh = TcpStream::connect(addr).expect("connect after the flood");
    fresh
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    round_trip(&mut fresh);
    drop(node);
}
