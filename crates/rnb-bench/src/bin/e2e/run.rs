//! Setting a workload up and driving it: fleet, populate, warm-up, and the
//! closed- and open-loop measured phases.

use crate::fleet::Fleet;
use crate::procfs;
use crate::speed::Reference;
use crate::trace::Span;
use crate::workload::{self, is_value_of, push_value, OpStream, Spec, CALLERS};
use rnb_client::{ClientStats, RnbClient, RnbClientConfig};
use rnb_core::ItemId;
use rnb_graph::DiGraph;
use rnb_store::StoreClient;
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

/// Sizes that differ between a full run and the `--quick` smoke.
pub struct Scale {
    pub nodes: usize,
    /// Divides each workload's warm-up op count.
    pub warmup_div: usize,
    /// Pre-generated ops per caller (the stream wraps beyond that).
    pub pool_ops: usize,
    /// Ops of the traced pass.
    pub traced_ops: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        nodes: 4,
        warmup_div: 1,
        pool_ops: 1 << 17,
        traced_ops: 2000,
    };
    pub const QUICK: Scale = Scale {
        nodes: 2,
        warmup_div: 10,
        pool_ops: 1 << 12,
        traced_ops: 200,
    };
}

/// One driving thread's client and its pre-generated ops.
pub struct Caller {
    pub client: RnbClient,
    pub stream: OpStream,
    /// Index of the next op of `stream` to run.
    pub next: usize,
    value_len: usize,
    refill: bool,
    values: Vec<u8>,
    missing: Vec<ItemId>,
}

/// What one op did. `get`/`set` are the intervals of the client calls it
/// made (a read that refills makes both).
pub struct Done {
    pub failed: bool,
    pub is_write: bool,
    /// Items a read asked for, and how many came back with the right bytes.
    pub items: u32,
    pub found: u32,
    pub get: Option<(Instant, Instant)>,
    pub set: Option<(Instant, Instant)>,
}

impl Done {
    /// Spans of the client calls op number `op` made, children of its root;
    /// `at` turns an instant into ns from the start of the pass.
    pub fn call_spans(&self, op: u32, at: impl Fn(Instant) -> u64) -> impl Iterator<Item = Span> {
        [
            ("client.multi_get", self.get),
            ("client.multi_set", self.set),
        ]
        .into_iter()
        .filter_map(move |(name, call)| {
            let (from, to) = call?;
            Some(Span {
                name,
                op,
                parent: "op",
                start_ns: at(from),
                end_ns: at(to),
            })
        })
    }
}

/// Store `items` with their defined values through one `multi_set`.
fn store_items(
    client: &mut RnbClient,
    items: &[ItemId],
    len: usize,
    values: &mut Vec<u8>,
) -> (bool, (Instant, Instant)) {
    values.clear();
    for &item in items {
        push_value(item, len, values);
    }
    let entries: Vec<(ItemId, &[u8])> = items.iter().copied().zip(values.chunks(len)).collect();
    let start = Instant::now();
    let ok = client.multi_set(&entries).is_ok();
    (ok, (start, Instant::now()))
}

impl Caller {
    /// Run op `index` of the stream and check every byte it returns.
    pub fn run(&mut self, index: usize) -> Done {
        let Caller {
            client,
            stream,
            value_len,
            refill,
            values,
            missing,
            ..
        } = self;
        let (is_write, items) = stream.op(index);
        let mut done = Done {
            failed: false,
            is_write,
            items: 0,
            found: 0,
            get: None,
            set: None,
        };
        if is_write {
            let (ok, span) = store_items(client, items, *value_len, values);
            done.failed = !ok;
            done.set = Some(span);
            return done;
        }
        done.items = items.len() as u32;
        missing.clear();
        let start = Instant::now();
        let reply = client.multi_get(items);
        done.get = Some((start, Instant::now()));
        match reply {
            Err(_) => done.failed = true,
            Ok(values) => {
                for (&item, value) in items.iter().zip(&values) {
                    match value {
                        Some(bytes) if is_value_of(item, *value_len, bytes) => done.found += 1,
                        // Only a cache-aside workload may be told "not stored".
                        None if *refill => missing.push(item),
                        _ => done.failed = true,
                    }
                }
            }
        }
        if !missing.is_empty() {
            let (ok, span) = store_items(client, missing, *value_len, values);
            done.failed |= !ok;
            done.set = Some(span);
        }
        done
    }

    /// The items the last op found missing and re-stored.
    pub fn missing(&self) -> &[ItemId] {
        &self.missing
    }

    fn run_next(&mut self) -> Done {
        self.next += 1;
        self.run(self.next - 1)
    }
}

/// Fleet-side observation point: CPU, memory and `stats` of every node.
pub struct Monitor {
    pids: Vec<u32>,
    conns: Vec<StoreClient>,
}

/// One reading of the whole fleet.
pub struct Sample {
    pub cpu_ns: u64,
    pub rss_kb: u64,
    pub threads: u64,
    stats: Vec<HashMap<String, String>>,
}

impl Monitor {
    fn connect(pids: Vec<u32>, addrs: &[SocketAddr]) -> io::Result<Monitor> {
        let conns = addrs
            .iter()
            .map(|&a| StoreClient::connect(a))
            .collect::<io::Result<_>>()?;
        Ok(Monitor { pids, conns })
    }

    pub fn sample(&mut self) -> io::Result<Sample> {
        let missing = || io::Error::other("cannot read /proc of a node");
        let mut sample = Sample {
            cpu_ns: 0,
            rss_kb: 0,
            threads: 0,
            stats: Vec::new(),
        };
        sample.cpu_ns = self.fleet_cpu_ns()?;
        for &pid in &self.pids {
            sample.rss_kb += procfs::process_status(pid, "VmRSS:").ok_or_else(missing)?;
            sample.threads += procfs::process_status(pid, "Threads:").ok_or_else(missing)?;
        }
        for conn in &mut self.conns {
            sample.stats.push(conn.stats()?);
        }
        Ok(sample)
    }

    /// CPU nanoseconds of the whole fleet so far.
    pub fn fleet_cpu_ns(&self) -> io::Result<u64> {
        (0..self.pids.len())
            .map(|node| self.node_cpu_ns(node))
            .sum()
    }

    /// Fleet CPU time over each of `windows` windows of `window`, counted
    /// from `epoch`.
    fn watch(&self, epoch: Instant, window: Duration, windows: u32) -> io::Result<Vec<u64>> {
        let mut mark = self.fleet_cpu_ns()?;
        (1..=windows)
            .map(|w| {
                park_until(epoch + window * w);
                let now = self.fleet_cpu_ns()?;
                Ok(now.saturating_sub(std::mem::replace(&mut mark, now)))
            })
            .collect()
    }

    /// CPU nanoseconds of node `index` alone.
    pub fn node_cpu_ns(&self, index: usize) -> io::Result<u64> {
        procfs::process_cpu_ns(self.pids[index])
            .ok_or_else(|| io::Error::other("cannot read /proc of a node"))
    }
}

impl Sample {
    /// A `stats` counter summed over the fleet.
    pub fn stat(&self, key: &str) -> u64 {
        self.stats
            .iter()
            .filter_map(|node| node.get(key)?.parse::<u64>().ok())
            .sum()
    }
}

/// Length of the windows a closed-loop phase is cut into; a phase too
/// short to hold two of them is one window.
pub const WINDOW: Duration = Duration::from_secs(1);

/// One caller's record of one window of a phase.
#[derive(Default)]
pub struct Window {
    /// Per-op latency: call duration (closed loop) or completion minus due
    /// time (open loop). Value checking is inside it: the caller consumes
    /// what it asked for.
    pub lat_ns: Vec<u64>,
    /// Open loop only: how long after it was due each op started.
    pub late_ns: Vec<u64>,
    pub failed: u64,
    pub writes: u64,
    pub items: u64,
    pub found: u64,
    /// The caller thread's CPU time over the window.
    pub cpu_ns: u64,
}

/// Per-caller record of a phase: its windows in order. An op belongs to
/// the window it completed in.
pub struct Tally {
    pub windows: Vec<Window>,
    pub spans: Vec<Span>,
    window: Duration,
    /// Thread CPU time at the start of the window being filled.
    cpu_mark: Option<u64>,
}

impl Tally {
    /// Start recording on the calling thread, in windows of `window`.
    fn start(window: Duration) -> Tally {
        Tally {
            windows: vec![Window::default()],
            spans: Vec::new(),
            window,
            cpu_mark: procfs::thread_cpu_ns(),
        }
    }

    /// The window that `at` (time into the phase) falls in; entering a new
    /// one charges the thread's CPU time since the last entry to the old.
    fn window_at(&mut self, at: Duration) -> &mut Window {
        let index = (at.as_nanos() / self.window.as_nanos()) as usize;
        if index >= self.windows.len() {
            let now = procfs::thread_cpu_ns();
            if let (Some(now), Some(mark), Some(window)) =
                (now, self.cpu_mark, self.windows.last_mut())
            {
                window.cpu_ns = now.saturating_sub(mark);
            }
            self.cpu_mark = now;
            self.windows.resize_with(index + 1, Window::default);
        }
        &mut self.windows[index]
    }

    /// The caller stopped `at` into the phase: whatever window that is in
    /// is partial.
    fn end(&mut self, at: Duration) {
        self.window_at(at);
    }

    /// Record an op that took `lat` and completed `end` into the phase.
    fn count(&mut self, done: &Done, lat: Duration, end: Duration) {
        let window = self.window_at(end);
        window.lat_ns.push(lat.as_nanos() as u64);
        window.failed += u64::from(done.failed);
        window.writes += u64::from(done.is_write);
        window.items += u64::from(done.items);
        window.found += u64::from(done.found);
    }

    /// Keep the op's spans: the root and the client calls under it.
    fn trace(&mut self, done: &Done, epoch: Instant, start: Instant, end: Instant) {
        let op = self.spans.last().map_or(0, |s| s.op + 1);
        let at = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
        self.spans.push(Span {
            name: "op",
            op,
            parent: "",
            start_ns: at(start),
            end_ns: at(end),
        });
        self.spans.extend(done.call_spans(op, at));
    }
}

/// What a measured phase observed: the callers' windows, the fleet's CPU
/// time over each of them, and fleet readings before and after.
pub struct Phase {
    /// Length of a window in seconds, as measured.
    pub window_s: f64,
    pub tallies: Vec<Tally>,
    /// Fleet CPU time over each window.
    pub server_cpu_ns: Vec<u64>,
    /// Speed of the core over each window (see `speed.rs`).
    pub speed: Vec<f64>,
    /// Each caller's `ClientStats` over the phase.
    pub client: Vec<ClientStats>,
    pub before: Sample,
    pub after: Sample,
}

/// One window of a phase, callers merged.
pub struct Merged {
    /// Length of the window, as measured.
    pub seconds: f64,
    pub ops: u64,
    /// Ascending.
    pub lat_ns: Vec<u64>,
    pub client_cpu_ns: u64,
    pub server_cpu_ns: u64,
    /// Speed of the core over the window, 1.0 being nominal.
    pub speed: f64,
}

impl Merged {
    pub fn req_per_s(&self) -> f64 {
        self.ops as f64 / self.seconds
    }
}

impl Phase {
    /// Whole windows: the last one a caller touched is the one it stopped
    /// in, so it is partial.
    fn whole(&self) -> usize {
        let complete = self
            .tallies
            .iter()
            .map(|t| t.windows.len() - 1)
            .min()
            .unwrap_or(0);
        complete.min(self.server_cpu_ns.len())
    }

    /// The phase's whole windows, callers merged.
    pub fn windows(&self) -> Vec<Merged> {
        (0..self.whole())
            .map(|w| {
                let mut lat_ns: Vec<u64> = self
                    .tallies
                    .iter()
                    .flat_map(|t| t.windows[w].lat_ns.iter().copied())
                    .collect();
                lat_ns.sort_unstable();
                Merged {
                    seconds: self.window_s,
                    ops: lat_ns.len() as u64,
                    lat_ns,
                    client_cpu_ns: self.tallies.iter().map(|t| t.windows[w].cpu_ns).sum(),
                    server_cpu_ns: self.server_cpu_ns[w],
                    speed: self.speed[w],
                }
            })
            .collect()
    }

    /// A per-window count summed over every caller and every window,
    /// partial ones included.
    pub fn sum(&self, field: impl Fn(&Window) -> u64) -> u64 {
        self.tallies
            .iter()
            .flat_map(|t| &t.windows)
            .map(field)
            .sum()
    }

    pub fn ops(&self) -> u64 {
        self.sum(|w| w.lat_ns.len() as u64)
    }

    pub fn client_sum(&self, field: impl Fn(&ClientStats) -> u64) -> u64 {
        self.client.iter().map(field).sum()
    }

    /// A fleet `stats` counter over the phase.
    pub fn stat(&self, key: &str) -> u64 {
        self.after.stat(key).saturating_sub(self.before.stat(key))
    }

    /// Every sample of `field`, ascending.
    pub fn sorted(&self, field: impl Fn(&Window) -> &Vec<u64>) -> Vec<u64> {
        let mut all: Vec<u64> = self
            .tallies
            .iter()
            .flat_map(|t| &t.windows)
            .flat_map(|w| field(w).iter().copied())
            .collect();
        all.sort_unstable();
        all
    }
}

/// When a closed loop stops.
#[derive(Clone, Copy)]
pub enum Until {
    /// After this many ops per caller.
    Ops(usize),
    Elapsed(Duration),
}

/// A workload that is set up: fleet running, data loaded, caches warm.
/// Field order is drop order: connections close before the fleet drains.
pub struct Rig {
    pub spec: &'static Spec,
    pub callers: Vec<Caller>,
    pub monitor: Monitor,
    pub fleet: Fleet,
    pub graph: DiGraph,
    pub gen_ns_per_req: f64,
    /// Ops that failed during warm-up.
    pub warmup_failed: u64,
    /// Workload start to first measurable op.
    pub setup: Duration,
    /// Speed of the core over the set-up.
    pub setup_speed: f64,
    /// Ticks from before the set-up until the rig is dropped.
    reference: Reference,
}

impl Rig {
    /// Everything `setup_s` covers: graph and op generation, `READY`
    /// handshakes, connects, populate, op-count warm-up.
    pub fn set_up(spec: &'static Spec, seed: u64, scale: &Scale, stored: &Path) -> io::Result<Rig> {
        let begin = Instant::now();
        let reference = Reference::start()?;
        let graph = workload::universe();
        let callers = CALLERS;
        let generate = Instant::now();
        // An open loop asks too few requests in a run for their mix to
        // repeat across seeds (500 requests: tpr ±2.4 %), so its requests
        // are the same in every run and the seed moves only their timing.
        let stream_seed = if spec.open_rate.is_some() {
            0
        } else {
            seed.rotate_left(17)
        };
        let streams: Vec<OpStream> = (0..callers as u64)
            .map(|c| {
                OpStream::generate(
                    &graph,
                    spec.write_share,
                    scale.pool_ops,
                    stream_seed ^ (c + 1),
                )
            })
            .collect();
        let gen_ns_per_req =
            generate.elapsed().as_nanos() as f64 / (callers * scale.pool_ops) as f64;

        let fleet = Fleet::launch(stored, scale.nodes, spec.mem_mb)?;
        let addrs = fleet.addrs();
        let monitor = Monitor::connect(fleet.pids(), &addrs)?;

        // Every replica of every item, whatever the callers' write policy.
        let mut loader = RnbClient::connect(&addrs, RnbClientConfig::new(spec.k))?;
        let items: Vec<ItemId> = (0..graph.num_nodes() as ItemId).collect();
        let mut values = Vec::new();
        for chunk in items.chunks(256) {
            if !store_items(&mut loader, chunk, spec.value_len, &mut values).0 {
                return Err(io::Error::other("populate failed"));
            }
        }
        drop(loader);

        let config = RnbClientConfig::new(spec.k).with_write_policy(spec.write_policy);
        let callers = streams
            .into_iter()
            .map(|stream| {
                Ok(Caller {
                    client: RnbClient::connect(&addrs, config.clone())?,
                    stream,
                    next: 0,
                    value_len: spec.value_len,
                    refill: spec.refill,
                    values: Vec::new(),
                    missing: Vec::new(),
                })
            })
            .collect::<io::Result<Vec<Caller>>>()?;
        let mut rig = Rig {
            spec,
            callers,
            monitor,
            fleet,
            graph,
            gen_ns_per_req,
            warmup_failed: 0,
            setup: Duration::ZERO,
            setup_speed: 1.0,
            reference,
        };
        let per_caller = spec.warmup_ops / scale.warmup_div / rig.callers.len();
        rig.warmup_failed = rig
            .closed_loop(Until::Ops(per_caller), false)?
            .sum(|w| w.failed);
        rig.setup = begin.elapsed();
        rig.setup_speed = rig.reference.speed(begin, begin + rig.setup);
        Ok(rig)
    }

    /// Hang up, then drain and reap the fleet.
    pub fn finish(self) -> io::Result<()> {
        let Rig {
            callers,
            monitor,
            fleet,
            ..
        } = self;
        drop((callers, monitor));
        fleet.shutdown()
    }

    /// The workload's measured phase: its open loop if it has a rate,
    /// otherwise every caller in a closed loop.
    pub fn measure(&mut self, seconds: f64, seed: u64, record: bool) -> io::Result<Phase> {
        let length = Duration::from_secs_f64(seconds);
        match self.spec.open_rate {
            Some(rate) => self.open_loop(
                &workload::jittered_schedule(rate, seconds, seed),
                length,
                record,
            ),
            None => self.closed_loop(Until::Elapsed(length), record),
        }
    }

    /// Every caller on its own thread, each sending its next op as soon as
    /// the previous one completes.
    pub fn closed_loop(&mut self, until: Until, record: bool) -> io::Result<Phase> {
        let earlier: Vec<ClientStats> = self.callers.iter().map(|c| c.client.stats()).collect();
        let barrier = Barrier::new(self.callers.len() + 1);
        let window = match until {
            Until::Elapsed(limit) if limit < 2 * WINDOW => limit,
            _ => WINDOW,
        };
        let monitor = &mut self.monitor;
        let (before, epoch, server_cpu_ns, tallies) = thread::scope(|scope| {
            let handles: Vec<_> = self
                .callers
                .iter_mut()
                .map(|caller| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        let mut tally = Tally::start(window);
                        let epoch = Instant::now();
                        let mut start = epoch;
                        let mut ops = 0;
                        loop {
                            let done = caller.run_next();
                            let end = Instant::now();
                            tally.count(&done, end - start, end - epoch);
                            if record {
                                tally.trace(&done, epoch, start, end);
                            }
                            start = end;
                            ops += 1;
                            let stop = match until {
                                Until::Ops(limit) => ops >= limit,
                                Until::Elapsed(limit) => end - epoch >= limit,
                            };
                            if stop {
                                break;
                            }
                        }
                        tally.end(start - epoch);
                        tally
                    })
                })
                .collect();
            // Read the fleet first, then release the callers: the reading
            // is not part of what they are timed on.
            let before = monitor.sample();
            barrier.wait();
            let windows = match until {
                Until::Ops(_) => 0,
                Until::Elapsed(limit) => (limit.as_nanos() / window.as_nanos()) as u32,
            };
            let epoch = Instant::now();
            let server_cpu_ns = monitor.watch(epoch, window, windows);
            let tallies: Vec<Tally> = handles
                .into_iter()
                .map(|h| h.join().expect("a caller thread panicked"))
                .collect();
            (before, epoch, server_cpu_ns, tallies)
        });
        self.phase(epoch, window, earlier, before?, server_cpu_ns?, tallies)
    }

    /// Ops sent on a schedule whether or not replies are back, dealt
    /// round-robin to the callers, each timed from when it was due. `due`
    /// is ns from the start. The whole phase is one window: 50 ops a second
    /// are too few to cut up.
    fn open_loop(&mut self, due: &[u64], length: Duration, record: bool) -> io::Result<Phase> {
        let earlier: Vec<ClientStats> = self.callers.iter().map(|c| c.client.stats()).collect();
        let before = self.monitor.sample()?;
        let senders = self.callers.len();
        // A start every sender can reach before its first op is due.
        let epoch = Instant::now() + Duration::from_millis(5);
        let tallies: Vec<Tally> = thread::scope(|scope| {
            let handles: Vec<_> = self
                .callers
                .iter_mut()
                .enumerate()
                .map(|(sender, caller)| {
                    scope.spawn(move || {
                        park_until(epoch);
                        let mut tally = Tally::start(length);
                        for &due_ns in due.iter().skip(sender).step_by(senders) {
                            let due_at = epoch + Duration::from_nanos(due_ns);
                            park_until(due_at);
                            let start = Instant::now();
                            let done = caller.run_next();
                            let end = Instant::now();
                            tally.count(&done, end - due_at, end - epoch);
                            if let Some(window) = tally.windows.last_mut() {
                                window.late_ns.push((start - due_at).as_nanos() as u64);
                            }
                            if record {
                                tally.trace(&done, epoch, start, end);
                            }
                        }
                        // The phase lasts its full length even when the
                        // last op is early.
                        park_until(epoch + length);
                        tally.end(epoch.elapsed());
                        tally
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a caller thread panicked"))
                .collect()
        });
        let elapsed = epoch.elapsed();
        let server_cpu_ns = vec![self.monitor.fleet_cpu_ns()?.saturating_sub(before.cpu_ns)];
        self.phase(epoch, elapsed, earlier, before, server_cpu_ns, tallies)
    }

    /// `epoch` is when the first of the `server_cpu_ns.len()` windows began.
    fn phase(
        &mut self,
        epoch: Instant,
        window: Duration,
        earlier: Vec<ClientStats>,
        before: Sample,
        server_cpu_ns: Vec<u64>,
        tallies: Vec<Tally>,
    ) -> io::Result<Phase> {
        let after = self.monitor.sample()?;
        let client = self
            .callers
            .iter()
            .zip(&earlier)
            .map(|(c, e)| c.client.stats().since(e))
            .collect();
        let speed = (0..server_cpu_ns.len() as u32)
            .map(|w| {
                self.reference
                    .speed(epoch + window * w, epoch + window * (w + 1))
            })
            .collect();
        Ok(Phase {
            window_s: window.as_secs_f64(),
            tallies,
            server_cpu_ns,
            speed,
            client,
            before,
            after,
        })
    }
}

/// Block until `deadline` (parking; `thread::sleep` is ruled out repo-wide).
pub fn park_until(deadline: Instant) {
    while let Some(left) = deadline
        .checked_duration_since(Instant::now())
        .filter(|d| !d.is_zero())
    {
        thread::park_timeout(left);
    }
}
