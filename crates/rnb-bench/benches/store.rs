//! Store serving-path throughput: the path the server runs for a `get`
//! — the one-pass read (`Store::get_each`, one lock per run of
//! same-shard keys, one clock read) writing its reply straight from the
//! shards — against the retained per-key seed path
//! (`Store::get_multi_reference`, one lock and one clock read per key)
//! writing the same reply: the store-side analog of the paper's
//! per-transaction-overhead argument (§II).
//!
//! Beyond the Criterion smoke group, a grid sweep
//! (M ∈ {10, 100, 400}, shards ∈ {1, 8, 16, 64}, value ∈ {10, 1024}
//! bytes) writes `BENCH_store.json` at the repo root (schema in
//! EXPERIMENTS.md), plus a pipelined loopback-TCP throughput figure
//! (gated only when the committed `"cores"` matches this machine), plus
//! the same probe with idle connections parked. Flags after `--`:
//!
//! * `--quick`   — reduced iteration budget (CI smoke).
//! * `--enforce` — exit non-zero if the checkpoint cell (M=10,
//!   shards=16, value=10: the production shape) speeds up by less than
//!   2×, or if the geometric mean *speedup over the reference path*
//!   regresses more than 10% against the committed `BENCH_store.json`.
//!   Speedup is a same-machine, same-budget ratio, so the gate is
//!   portable across CI hardware where absolute ns/request are not.
//!
//! Under `cargo test` (`--test` in argv) only the Criterion smoke pass
//! runs; the grid is skipped and the committed JSON is left untouched.

use criterion::{criterion_group, Criterion, Throughput};
use rnb_store::{protocol, Clock, Store, StoreServer};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::Instant;

/// Keyspace and request shapes for one cell: `4*m` keys, 8 rotating
/// request windows of `m` keys each, so consecutive requests touch
/// different (but overlapping) key sets like a real hot set.
struct CellData {
    store: Store,
    keys: Vec<Vec<u8>>,
    windows: Vec<Vec<usize>>,
}

fn cell_data(m: usize, shards: usize, vlen: usize) -> CellData {
    let store = Store::with_clock(64 << 20, shards, Clock::real());
    let nkeys = 4 * m;
    let keys: Vec<Vec<u8>> = (0..nkeys)
        .map(|i| format!("key-{i:05}").into_bytes())
        .collect();
    let value = vec![b'x'; vlen];
    for k in &keys {
        store.set(k, &value, 0, false);
    }
    let windows = (0..8)
        .map(|w| (0..m).map(|j| (w * m + j) % nkeys).collect())
        .collect();
    CellData {
        store,
        keys,
        windows,
    }
}

impl CellData {
    fn request(&self, i: usize) -> Vec<&[u8]> {
        self.windows[i % self.windows.len()]
            .iter()
            .map(|&idx| self.keys[idx].as_slice())
            .collect()
    }
}

/// The server's `get`: one pass over `keys`, each hit written into
/// `reply` from its shard. Returns the reply length.
fn reply_one_pass<'k>(
    store: &Store,
    keys: impl IntoIterator<Item = &'k [u8]>,
    reply: &mut Vec<u8>,
) -> usize {
    reply.clear();
    store.get_each(keys, |key, hit| {
        if let Some(v) = hit {
            let _ = protocol::write_value(reply, key, v.flags, v.data, None);
        }
    });
    let _ = protocol::write_end(reply);
    reply.len()
}

/// The same reply built from the per-key seed path.
fn reply_reference(store: &Store, keys: &[&[u8]], reply: &mut Vec<u8>) -> usize {
    reply.clear();
    for (key, value) in keys.iter().zip(store.get_multi_reference(keys)) {
        if let Some(v) = value {
            let _ = protocol::write_value(reply, key, v.flags, &v.data, None);
        }
    }
    let _ = protocol::write_end(reply);
    reply.len()
}

fn bench_get_multi(c: &mut Criterion) {
    let mut group = c.benchmark_group("store/get_multi");
    let data = cell_data(10, 16, 10);
    let requests: Vec<Vec<&[u8]>> = (0..8).map(|i| data.request(i)).collect();
    group.throughput(Throughput::Elements(10));
    group.bench_function("reference_m10_s16", |b| {
        let mut reply = Vec::new();
        let mut i = 0;
        b.iter(|| {
            let len = reply_reference(&data.store, black_box(&requests[i % 8]), &mut reply);
            i += 1;
            black_box(len)
        })
    });
    group.bench_function("one_pass_m10_s16", |b| {
        let mut reply = Vec::new();
        let mut i = 0;
        b.iter(|| {
            let req = black_box(&requests[i % 8]);
            let len = reply_one_pass(&data.store, req.iter().copied(), &mut reply);
            i += 1;
            black_box(len)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_get_multi);

// ---------------------------------------------------------------------
// Grid sweep: reference vs one-pass get replies, emitted as BENCH_store.json.
// ---------------------------------------------------------------------

const GRID_M: &[usize] = &[10, 100, 400];
const GRID_SHARDS: &[usize] = &[1, 8, 16, 64];
const GRID_VLEN: &[usize] = &[10, 1024];

/// The acceptance checkpoint cell: the one-pass read must beat the
/// per-key reference by at least this factor at M=10, 16 shards, 10-byte
/// values — the production shape (a few items per transaction on a
/// default-sharded node) and the paper's micro-benchmark value size.
const CHECKPOINT: (usize, usize, usize) = (10, 16, 10);
const MIN_CHECKPOINT_SPEEDUP: f64 = 2.0;
/// `--enforce`: maximum tolerated geometric-mean speedup regression
/// against the committed baseline JSON.
const MAX_REGRESSION: f64 = 1.10;

/// Where the committed baseline lives (repo root).
const JSON_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_store.json");

struct Cell {
    m: usize,
    shards: usize,
    vlen: usize,
    ref_ns: f64,
    batched_ns: f64,
}

impl Cell {
    fn key(&self) -> String {
        format!("m{}_s{}_v{}", self.m, self.shards, self.vlen)
    }

    fn speedup(&self) -> f64 {
        self.ref_ns / self.batched_ns
    }
}

/// Mean ns per call of `f` over `rounds` calls, after `warmup` untimed
/// calls (pool growth, caches, branch predictors).
fn time_ns_per_call(warmup: usize, rounds: usize, mut f: impl FnMut(usize) -> usize) -> f64 {
    for i in 0..warmup {
        black_box(f(i));
    }
    let start = Instant::now();
    for i in 0..rounds {
        black_box(f(i));
    }
    start.elapsed().as_nanos() as f64 / rounds as f64
}

fn run_cell(m: usize, shards: usize, vlen: usize, quick: bool) -> Cell {
    let data = cell_data(m, shards, vlen);
    let requests: Vec<Vec<&[u8]>> = (0..8).map(|i| data.request(i)).collect();
    let full = (1_000_000 / m).max(500);
    // The checkpoint cell is hard-gated at 2x, so it always runs at the
    // full budget: the quick trim's 8x-smaller sample is noisy enough on
    // busy CI boxes to dip a ~2.1x cell under the floor spuriously.
    let gated = (m, shards, vlen) == CHECKPOINT;
    let rounds = if quick && !gated {
        (full / 8).max(100)
    } else {
        full
    };
    let warmup = (rounds / 10).max(50);
    // Both arms write the reply the server sends. Seed path: one
    // shard-lock acquisition and one clock read per key.
    let mut reply = Vec::new();
    let ref_ns = time_ns_per_call(warmup, rounds, |i| {
        reply_reference(&data.store, &requests[i % requests.len()], &mut reply)
    });
    // One pass: one lock per run of same-shard keys, one clock read.
    let batched_ns = time_ns_per_call(warmup, rounds, |i| {
        let req = &requests[i % requests.len()];
        reply_one_pass(&data.store, req.iter().copied(), &mut reply)
    });
    Cell {
        m,
        shards,
        vlen,
        ref_ns,
        batched_ns,
    }
}

/// Keys-per-get and pipeline depth of the loopback-TCP probe.
const TCP_M: usize = 100;
const TCP_DEPTH: usize = 32;

/// A populated server for the TCP probe ([`TCP_M`] 10-byte values).
fn probe_server() -> std::io::Result<StoreServer> {
    let store = Arc::new(Store::new(64 << 20));
    for i in 0..TCP_M {
        store.set(format!("key-{i:05}").as_bytes(), &[b'x'; 10], 0, false);
    }
    StoreServer::start(store)
}

/// Pipelined multi-get items/sec against an already-running server: one
/// connection, [`TCP_DEPTH`] in-flight [`TCP_M`]-key gets per batch.
fn tcp_probe(addr: SocketAddr) -> std::io::Result<f64> {
    const M: usize = TCP_M;
    const DEPTH: usize = TCP_DEPTH;
    let keys: Vec<Vec<u8>> = (0..M).map(|i| format!("key-{i:05}").into_bytes()).collect();
    let mut conn = TcpStream::connect(addr)?;
    conn.set_nodelay(true)?;

    let mut get_line = b"get".to_vec();
    for k in &keys {
        get_line.push(b' ');
        get_line.extend_from_slice(k);
    }
    get_line.extend_from_slice(b"\r\n");
    let batch: Vec<u8> = get_line.repeat(DEPTH);

    // Always the full 200 rounds, even under --quick: the probe's
    // absolute items/sec feeds the cores-conditional tcp_pipelined
    // gate, and a 20-round trim measures ~40% slower than the committed
    // full-budget figure (startup and first-burst effects dominate a
    // ~20ms window), tripping the gate spuriously. Same rule as the
    // gated grid checkpoint cell; the probe costs < 1s.
    let rounds = 200;
    let mut buf = vec![0u8; 256 * 1024];
    let mut run_batch = || -> std::io::Result<()> {
        conn.write_all(&batch)?;
        let mut ends = 0usize;
        let mut tail: Vec<u8> = Vec::new();
        while ends < DEPTH {
            let n = conn.read(&mut buf)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed mid-response",
                ));
            }
            // Count END markers, carrying a 4-byte seam between reads.
            tail.extend_from_slice(&buf[..n]);
            ends += tail.windows(5).filter(|w| w == b"END\r\n").count();
            let keep = tail.len().min(4);
            tail.drain(..tail.len() - keep);
        }
        Ok(())
    };
    // Warmup.
    for _ in 0..2 {
        run_batch()?;
    }
    let start = Instant::now();
    for _ in 0..rounds {
        run_batch()?;
    }
    let secs = start.elapsed().as_secs_f64();
    let items = (rounds * DEPTH * M) as f64;
    Ok(items / secs)
}

/// Pipelined multi-get over loopback TCP on a fresh, otherwise idle
/// server (reported plus a hardware-conditional baseline gate: absolute
/// wire numbers mix in kernel/socket costs, so the committed figure is
/// only compared when the committed `"cores"` matches this machine).
fn run_tcp() -> std::io::Result<(usize, f64)> {
    let server = probe_server()?;
    Ok((TCP_M, tcp_probe(server.addr())?))
}

// ---------------------------------------------------------------------
// Concurrent-connections axis: the pipelined probe while the server
// also holds 0 / 1024 / 10000 idle connections — C10K as a bench cell.
// ---------------------------------------------------------------------

/// Idle-connection counts swept (the 10000 cell is the ISSUE acceptance
/// criterion: a readiness-multiplexed server holds C10K on a fixed
/// thread budget; a thread-per-connection server would need 10k stacks).
const IDLE_CONNS: &[usize] = &[0, 1024, 10_000];
/// Idle sockets per helper child process. The client halves live in
/// children because this process already holds the server halves: 2 fds
/// per connection in one process would double the rlimit bill.
const IDLE_CHILD_CHUNK: usize = 2_500;
/// File descriptors reserved for everything that is not an idle server
/// socket (listener, probe, child pipes, stdio, slack).
const FD_MARGIN: usize = 512;
/// `--enforce`: throughput with 10k idle connections parked must stay
/// above this fraction of the 0-idle figure. A same-run, same-machine
/// ratio, so the gate is portable. A worker's wake-up is O(ready) — parked
/// connections sleep in the kernel's readiness set and cost the busy
/// one nothing — so the committed figure sits at parity and the floor
/// leaves room only for the noise of neighbouring sub-second probes.
const MIN_IDLE_RATIO: f64 = 0.80;
/// `--enforce`, cores-matching only: the probe may not fall more than
/// this factor below the committed `tcp_pipelined` items/sec.
const MAX_TCP_REGRESSION: f64 = 1.25;

struct ConnectionsCell {
    idle: usize,
    items_per_sec: f64,
    /// `items_per_sec` over the zero-idle server's, probed alternately.
    ratio_vs_idle0: f64,
    /// Connections the server actually saw live during the probe.
    live_conns: usize,
    /// Server OS threads while holding them (the worker pool).
    threads: usize,
}

impl ConnectionsCell {
    fn key(&self) -> String {
        format!("idle{}", self.idle)
    }
}

/// Soft fd rlimit from `/proc/self/limits` (None off Linux — the sweep
/// then assumes the default cells fit and reports any spawn failure).
fn fd_soft_limit() -> Option<usize> {
    let text = std::fs::read_to_string("/proc/self/limits").ok()?;
    text.lines()
        .find(|l| l.starts_with("Max open files"))?
        .split_whitespace()
        .nth(3)?
        .parse()
        .ok()
}

/// Spawn helper processes that each hold a chunk of idle client sockets
/// against `addr`, returning once every child reported its sockets up.
fn spawn_idle_clients(addr: SocketAddr, total: usize) -> std::io::Result<Vec<Child>> {
    let exe = std::env::current_exe()?;
    let mut children = Vec::new();
    let mut remaining = total;
    while remaining > 0 {
        let chunk = remaining.min(IDLE_CHILD_CHUNK);
        remaining -= chunk;
        children.push(
            Command::new(&exe)
                .arg("--idle-client")
                .arg(addr.to_string())
                .arg(chunk.to_string())
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .spawn()?,
        );
    }
    // Each child prints one "ready <n>" line once all its sockets are
    // connected; a short/err read means it died (e.g. fd exhaustion).
    for child in &mut children {
        let Some(out) = child.stdout.take() else {
            return Err(std::io::Error::other("idle-client child has no stdout"));
        };
        let mut line = String::new();
        BufReader::new(out).read_line(&mut line)?;
        if !line.starts_with("ready") {
            return Err(std::io::Error::other(format!(
                "idle-client child failed: {line:?}"
            )));
        }
    }
    Ok(children)
}

/// Child-process mode: hold `count` idle connections open until the
/// parent closes our stdin, then exit. Never prints to stdout except the
/// single readiness line the parent waits for.
fn idle_client_main(addr: &str, count: usize) -> ExitCode {
    let mut conns = Vec::with_capacity(count);
    for _ in 0..count {
        let mut attempts = 0u32;
        loop {
            match TcpStream::connect(addr) {
                Ok(s) => {
                    conns.push(s);
                    break;
                }
                // Transient listen-backlog overflow under a connect
                // storm: yield and redial, bounded.
                Err(e) => {
                    attempts += 1;
                    if attempts > 1_000_000 {
                        eprintln!("idle-client: connect {addr} failed: {e}");
                        return ExitCode::FAILURE;
                    }
                    std::thread::yield_now();
                }
            }
        }
    }
    println!("ready {}", conns.len());
    let _ = std::io::stdout().flush();
    let mut buf = [0u8; 64];
    while matches!(std::io::stdin().read(&mut buf), Ok(n) if n > 0) {}
    ExitCode::SUCCESS
}

fn run_connections() -> std::io::Result<Vec<ConnectionsCell>> {
    let budget = fd_soft_limit();
    let mut cells = Vec::new();
    println!("\n[store connections] pipelined probe with idle connections parked");
    println!(
        "{:<12} {:>10} {:>16} {:>8}",
        "cell", "live", "items/s", "threads"
    );
    let reference = probe_server()?;
    for &target in IDLE_CONNS {
        // The server side of every idle socket is an fd in this process.
        let idle = match budget {
            Some(limit) if target + FD_MARGIN > limit => {
                let idle = limit.saturating_sub(FD_MARGIN);
                println!(
                    "[store connections] fd soft limit {limit}: shrinking idle cell \
                     {target} -> {idle} (cell key keeps the actual count)"
                );
                idle
            }
            _ => target,
        };
        let server = probe_server()?;
        let children = if idle > 0 {
            spawn_idle_clients(server.addr(), idle)?
        } else {
            Vec::new()
        };
        // The children's sockets are connected, but the server accepts
        // them at its own pace; wait until it holds them all.
        let mut spins = 0u64;
        while server.live_connections() < idle {
            spins += 1;
            if spins > 200_000_000 {
                return Err(std::io::Error::other(format!(
                    "server registered only {}/{idle} idle connections",
                    server.live_connections()
                )));
            }
            std::thread::yield_now();
        }
        // Median of three probes, each next to a probe of a server with
        // nothing parked: a shared box drifts by half again within
        // seconds, so only neighbours in time make a ratio the 0.80
        // floor can judge.
        let mut here = [0.0f64; 3];
        let mut idle0 = [0.0f64; 3];
        for (here, idle0) in here.iter_mut().zip(&mut idle0) {
            *idle0 = tcp_probe(reference.addr())?;
            *here = tcp_probe(server.addr())?;
        }
        here.sort_by(f64::total_cmp);
        idle0.sort_by(f64::total_cmp);
        let items_per_sec = here[1];
        let cell = ConnectionsCell {
            idle,
            items_per_sec,
            ratio_vs_idle0: items_per_sec / idle0[1],
            live_conns: server.live_connections(),
            threads: server.thread_count(),
        };
        println!(
            "{:<12} {:>10} {:>16.0} {:>8}",
            cell.key(),
            cell.live_conns,
            cell.items_per_sec,
            cell.threads
        );
        cells.push(cell);
        // Closing stdin releases each child; reap them before the next
        // cell so their sockets (and fds) are really gone.
        for mut child in children {
            drop(child.stdin.take());
            let _ = child.wait();
        }
    }
    Ok(cells)
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn render_json(
    cells: &[Cell],
    connections: &[ConnectionsCell],
    tcp: Option<(usize, f64)>,
) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"store\",\n  \"unit\": \"ns_per_request\",\n");
    out.push_str(&format!("  \"cores\": {},\n", cores()));
    let cp = cells
        .iter()
        .find(|c| (c.m, c.shards, c.vlen) == CHECKPOINT)
        .expect("checkpoint cell is in the grid");
    out.push_str(&format!(
        "  \"checkpoint\": {{ \"cell\": \"{}\", \"speedup\": {:.2} }},\n",
        cp.key(),
        cp.speedup()
    ));
    if let Some((m, items_per_sec)) = tcp {
        out.push_str(&format!(
            "  \"tcp_pipelined\": {{ \"m\": {m}, \"depth\": 32, \"items_per_sec\": {:.0} }},\n",
            items_per_sec
        ));
    }
    out.push_str("  \"grid\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let sep = if i + 1 == cells.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{ \"cell\": \"{}\", \"m\": {}, \"shards\": {}, \"vlen\": {}, \
             \"ref_ns\": {:.1}, \"batched_ns\": {:.1}, \"speedup\": {:.2} }}{sep}\n",
            c.key(),
            c.m,
            c.shards,
            c.vlen,
            c.ref_ns,
            c.batched_ns,
            c.speedup()
        ));
    }
    out.push_str("  ],\n  \"connections\": [\n");
    for (i, c) in connections.iter().enumerate() {
        let sep = if i + 1 == connections.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{ \"cell\": \"{}\", \"idle\": {}, \"live_conns\": {}, \
             \"server_threads\": {}, \"items_per_sec\": {:.0}, \
             \"ratio_vs_idle0\": {:.2} }}{sep}\n",
            c.key(),
            c.idle,
            c.live_conns,
            c.threads,
            c.items_per_sec,
            c.ratio_vs_idle0
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Pull the grid `speedup` per cell out of a previously emitted JSON
/// file. Each grid entry is written on one line, so a line-oriented scan
/// is a faithful parser for files this bench produced. (The checkpoint
/// and tcp lines have no `ref_ns`, so they are skipped.)
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(cell_at) = line.find("\"cell\": \"") else {
            continue;
        };
        let rest = &line[cell_at + 9..];
        let Some(cell_end) = rest.find('"') else {
            continue;
        };
        let cell = rest[..cell_end].to_string();
        if !line.contains("\"ref_ns\": ") {
            continue;
        }
        let Some(at) = line.find("\"speedup\": ") else {
            continue;
        };
        let num = &line[at + 11..];
        let end = num.find([',', ' ', '}']).unwrap_or(num.len());
        if let Ok(speedup) = num[..end].parse::<f64>() {
            out.push((cell, speedup));
        }
    }
    out
}

/// The committed `tcp_pipelined` items/sec of a previously emitted JSON
/// file, if present (same line-oriented contract as [`parse_baseline`]).
fn parse_tcp_baseline(text: &str) -> Option<f64> {
    let line = text.lines().find(|l| l.contains("\"tcp_pipelined\""))?;
    let at = line.find("\"items_per_sec\": ")?;
    let num = &line[at + 17..];
    let end = num.find([',', ' ', '}']).unwrap_or(num.len());
    num[..end].parse().ok()
}

/// The `"cores"` field of a previously emitted JSON file, if present.
fn parse_baseline_cores(text: &str) -> Option<usize> {
    for line in text.lines() {
        if let Some(at) = line.find("\"cores\": ") {
            let num = &line[at + 9..];
            let end = num.find([',', ' ', '}']).unwrap_or(num.len());
            return num[..end].parse().ok();
        }
    }
    None
}

/// Returns `true` when every enforced gate passed.
fn run_grid(quick: bool, enforce: bool) -> bool {
    let baseline_text = std::fs::read_to_string(JSON_PATH).ok();
    let baseline = baseline_text.as_deref().map(parse_baseline);

    let mut cells = Vec::new();
    println!("\n[store grid] per-key reference get reply vs one-pass get reply");
    println!(
        "{:<16} {:>12} {:>12} {:>9}",
        "cell", "ref ns", "batched ns", "speedup"
    );
    for &m in GRID_M {
        for &shards in GRID_SHARDS {
            for &vlen in GRID_VLEN {
                let cell = run_cell(m, shards, vlen, quick);
                println!(
                    "{:<16} {:>12.1} {:>12.1} {:>8.2}x",
                    cell.key(),
                    cell.ref_ns,
                    cell.batched_ns,
                    cell.speedup()
                );
                cells.push(cell);
            }
        }
    }

    let tcp = match run_tcp() {
        Ok((m, items_per_sec)) => {
            println!("[store grid] tcp pipelined m={m} depth=32: {items_per_sec:.0} items/s");
            Some((m, items_per_sec))
        }
        Err(e) => {
            eprintln!("[store grid] tcp section failed (reported only): {e}");
            None
        }
    };

    let connections = match run_connections() {
        Ok(cells) => cells,
        Err(e) => {
            eprintln!("[store connections] sweep failed (cells omitted): {e}");
            Vec::new()
        }
    };

    let json = render_json(&cells, &connections, tcp);
    match std::fs::write(JSON_PATH, &json) {
        Ok(()) => println!("[store grid] wrote {JSON_PATH}"),
        Err(e) => eprintln!("[store grid] could not write {JSON_PATH}: {e}"),
    }

    let mut failed = false;
    let cp = cells
        .iter()
        .find(|c| (c.m, c.shards, c.vlen) == CHECKPOINT)
        .expect("checkpoint cell is in the grid");
    println!(
        "[store grid] checkpoint {}: {:.2}x (floor {MIN_CHECKPOINT_SPEEDUP}x)",
        cp.key(),
        cp.speedup()
    );
    if enforce && cp.speedup() < MIN_CHECKPOINT_SPEEDUP {
        eprintln!(
            "[store grid] FAIL: checkpoint speedup {:.2}x below the {MIN_CHECKPOINT_SPEEDUP}x floor",
            cp.speedup()
        );
        failed = true;
    }

    if let Some(base) = baseline {
        // Geometric-mean ratio of baseline speedup to current speedup
        // over cells present in both runs: > 1 means the one-pass read's
        // edge over the reference shrank. Speedups are same-machine
        // ratios, so this survives hardware differences between the
        // committing machine and CI; the geo-mean is robust to
        // single-cell noise.
        let mut log_sum = 0.0f64;
        let mut count = 0usize;
        for cell in &cells {
            if let Some((_, base_speedup)) = base.iter().find(|(key, _)| *key == cell.key()) {
                log_sum += (base_speedup / cell.speedup()).ln();
                count += 1;
            }
        }
        if count > 0 {
            let ratio = (log_sum / count as f64).exp();
            println!(
                "[store grid] baseline/current speedup (geo-mean over {count} cells): {ratio:.3}x"
            );
            if enforce && ratio > MAX_REGRESSION {
                eprintln!(
                    "[store grid] FAIL: one-pass speedup regressed {:.1}% vs committed baseline (limit {:.0}%)",
                    (ratio - 1.0) * 100.0,
                    (MAX_REGRESSION - 1.0) * 100.0
                );
                failed = true;
            }
        }
    } else {
        println!("[store grid] no committed baseline at {JSON_PATH}; skipping regression gate");
    }

    // Connections gates. The idle-ratio floor is a same-run ratio
    // (portable); the missing-sweep and thread-bound checks are
    // structural; the absolute-throughput comparison is cores-matching
    // only: wire throughput mixes in kernel and socket costs.
    if enforce && connections.is_empty() {
        eprintln!("[store connections] FAIL: sweep produced no cells under --enforce");
        failed = true;
    }
    for cell in &connections {
        let ratio = cell.ratio_vs_idle0;
        if cell.idle > 0 {
            println!(
                "[store connections] {}: {:.2}x of idle0 throughput (floor {MIN_IDLE_RATIO}x)",
                cell.key(),
                ratio
            );
        }
        if enforce && cell.idle > 0 && ratio < MIN_IDLE_RATIO {
            eprintln!(
                "[store connections] FAIL: {} throughput ratio {ratio:.2}x below the \
                 {MIN_IDLE_RATIO}x floor",
                cell.key()
            );
            failed = true;
        }
        // Bounded threads is the whole point of the readiness loop:
        // parked connections must not grow the server's thread count.
        if enforce && cell.threads != connections[0].threads {
            eprintln!(
                "[store connections] FAIL: {} used {} server threads (idle0 used {}) — \
                 connection count must not change the thread budget",
                cell.key(),
                cell.threads,
                connections[0].threads
            );
            failed = true;
        }
    }
    if let (Some(text), Some((_, tcp_now))) = (baseline_text.as_deref(), tcp) {
        if parse_baseline_cores(text) == Some(cores()) {
            if let Some(tcp_base) = parse_tcp_baseline(text) {
                println!(
                    "[store connections] tcp_pipelined {tcp_now:.0} vs committed {tcp_base:.0} items/s"
                );
                if enforce && tcp_now * MAX_TCP_REGRESSION < tcp_base {
                    eprintln!(
                        "[store connections] FAIL: tcp_pipelined {tcp_now:.0} items/s fell more \
                         than {:.0}% below the committed {tcp_base:.0}",
                        (MAX_TCP_REGRESSION - 1.0) * 100.0
                    );
                    failed = true;
                }
            }
        } else {
            println!("[store connections] baseline cores differ; skipping tcp_pipelined gate");
        }
    }

    !failed
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    // Helper-process mode must run before Criterion touches argv: the
    // child exists only to park idle sockets for the connections sweep.
    if let Some(i) = args.iter().position(|a| a == "--idle-client") {
        let (Some(addr), Some(count)) = (args.get(i + 1), args.get(i + 2)) else {
            eprintln!("usage: --idle-client <addr> <count>");
            return ExitCode::FAILURE;
        };
        return idle_client_main(addr, count.parse().unwrap_or(0));
    }
    benches();
    if args.iter().any(|a| a == "--test") {
        // `cargo test` smoke pass: Criterion already ran each body once;
        // skip the timed grid so test runs stay fast and the committed
        // BENCH_store.json is never clobbered by an unrepresentative run.
        return ExitCode::SUCCESS;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let enforce = args.iter().any(|a| a == "--enforce");
    if run_grid(quick, enforce) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
