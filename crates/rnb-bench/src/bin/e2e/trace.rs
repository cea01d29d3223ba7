//! The traced pass: every layer measured from outside.
//!
//! Nothing in the serving crates is instrumented. After each real client
//! call the benchmark replays that op's work through each layer's public
//! functions — the plan through `rnb-core`/`rnb-cover`/`rnb-hash`, the
//! planned transactions through bare `StoreClient` connections, the exact
//! request bytes through `protocol::next_request`, the same key batches
//! through an in-process mirror `Store` — and records one span around each
//! replay. Spans of one op share its number, and `parent` names the span
//! whose work a replay repeats:
//!
//! ```text
//! op
//! ├─ client.multi_get        the real call
//! │  ├─ core.plan            replay of its planning
//! │  │  ├─ hash.replicas
//! │  │  └─ cover.solve
//! │  └─ wire.round           replay of its round-1 transactions
//! │     ├─ protocol.parse    the servers' share of that round
//! │     ├─ store.get_multi
//! │     └─ protocol.reply
//! └─ client.multi_set        the real call (write burst or refill)
//!    ├─ core.write_plan
//!    └─ store.set_multi
//! ```
//!
//! Replays run one after another, after the call they repeat, so a span's
//! self time is its duration minus the durations of its direct children.

use crate::report::{median, ratio, Metrics};
use crate::run::{park_until, Caller, Rig};
use crate::workload::push_value;
use rnb_analysis::CostModel;
use rnb_client::{item_key, ClientStats};
use rnb_core::{
    Bundler, ItemId, Placement, PlacementStrategy, PlanScratch, RnbConfig, WriteBatchPlanner,
    WritePlanner,
};
use rnb_cover::{CoverTarget, Planner};
use rnb_sim::{SimCluster, SimConfig};
use rnb_store::protocol::{self, NextRequest};
use rnb_store::shard::Value;
use rnb_store::{GetScratch, SetEntry, Store, StoreClient};
use std::hint::black_box;
use std::io::{self, Write};
use std::time::{Duration, Instant};

/// One timed interval. `start_ns`/`end_ns` count from the start of the pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// The op this span belongs to.
    pub op: u32,
    /// Name of the parent span within the same op; empty for the root.
    pub parent: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn ns(&self) -> i64 {
        self.end_ns as i64 - self.start_ns as i64
    }
}

/// Total duration of the spans called `name` among one op's spans.
fn span_ns(op_spans: &[Span], name: &str) -> Option<i64> {
    let mut hits = op_spans.iter().filter(|s| s.name == name).peekable();
    hits.peek()?;
    Some(hits.map(Span::ns).sum())
}

/// Self time of span `name` within one op's spans: its duration minus its
/// direct children's. Negative when the replays took longer than the span
/// they repeat.
pub fn self_ns(op_spans: &[Span], name: &str) -> Option<i64> {
    let children: i64 = op_spans
        .iter()
        .filter(|s| s.parent == name)
        .map(Span::ns)
        .sum();
    Some(span_ns(op_spans, name)? - children)
}

/// One span per line: `{"name", "op", "parent", "start_ns", "end_ns"}`.
pub fn write_jsonl(mut out: impl Write, spans: &[Span]) -> io::Result<()> {
    for s in spans {
        let parent = if s.parent.is_empty() {
            "null".into()
        } else {
            format!("\"{}\"", s.parent)
        };
        writeln!(
            out,
            "{{\"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.name, s.op, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// A round-1 transaction as it goes on the wire: planned items first,
/// hitchhikers after.
struct WireTxn {
    server: usize,
    keys: Vec<Vec<u8>>,
    /// The exact request bytes the server parses.
    request: Vec<u8>,
}

/// The layers' public entry points, set up like the client's and the
/// daemon's own instances.
struct Replay {
    bundler: Bundler,
    plan_scratch: PlanScratch,
    cover: Planner,
    sorted: Vec<ItemId>,
    replicas: Vec<u32>,
    cand_off: Vec<u32>,
    cand_flat: Vec<u32>,
    writer: WritePlanner<PlacementStrategy>,
    batcher: WriteBatchPlanner,
    /// One bare connection per node.
    wires: Vec<StoreClient>,
    /// In-process `Store` holding every item, shaped like a node's.
    mirror: Store,
    store_scratch: GetScratch,
    /// Pooled like a serving loop's: per-transaction results and the reply.
    found: Vec<Vec<Option<Value>>>,
    reply: Vec<u8>,
    /// One item per server whose single-item plan lands there: fetching it
    /// through the traced client keeps that connection inside the linger.
    touch: Vec<ItemId>,
    /// `txn_sizes[n]` replayed round-1 transactions carried `n` keys.
    txn_sizes: Vec<u64>,
}

/// Counts of one traced op, beside its spans.
#[derive(Default, Clone)]
struct OpCounts {
    /// Distinct items a read asked for.
    items: usize,
    plan_txns: usize,
    wire_items: usize,
    /// Items of the op's `multi_set` (burst or refill) and the planner's
    /// transactions for them.
    set_items: usize,
    write_plan_txns: usize,
}

/// What the traced pass produced.
pub struct Traced {
    pub spans: Vec<Span>,
    pub failed: u64,
    pub reads: u64,
    /// Read transactions per read request over the pass.
    pub tpr: f64,
    /// `txn_sizes[n]` round-1 transactions went out with `n` keys.
    pub txn_sizes: Vec<u64>,
}

impl Replay {
    fn new(rig: &Rig) -> io::Result<Replay> {
        let spec = rig.spec;
        let addrs = rig.fleet.addrs();
        let config = RnbConfig::new(addrs.len(), spec.k);
        let bundler = Bundler::from_config(&config);
        let placement = bundler.placement();
        let touch = (0..addrs.len() as u32)
            .map(|server| {
                (0..)
                    .find(|&item| placement.distinguished(item) == server)
                    .unwrap_or_default()
            })
            .collect();
        let mirror = Store::new(256 << 20);
        let mut value = Vec::new();
        for item in 0..rig.graph.num_nodes() as ItemId {
            value.clear();
            push_value(item, spec.value_len, &mut value);
            mirror.set(&item_key(item), &value, 0, false);
        }
        Ok(Replay {
            writer: WritePlanner::new(PlacementStrategy::from_config(&config), spec.write_policy),
            bundler,
            plan_scratch: PlanScratch::new(),
            cover: Planner::new(),
            sorted: Vec::new(),
            replicas: Vec::new(),
            cand_off: Vec::new(),
            cand_flat: Vec::new(),
            batcher: WriteBatchPlanner::new(),
            wires: addrs
                .iter()
                .map(|&a| StoreClient::connect(a))
                .collect::<io::Result<_>>()?,
            mirror,
            store_scratch: GetScratch::new(),
            found: Vec::new(),
            reply: Vec::new(),
            touch,
            txn_sizes: Vec::new(),
        })
    }

    /// Put every connection the op and its replays will use inside the
    /// servers' linger window, so that what is timed is the hot path.
    fn warm_connections(&mut self, caller: &mut Caller) -> io::Result<()> {
        for &item in &self.touch {
            caller.client.multi_get(&[item])?;
        }
        for wire in &mut self.wires {
            wire.version()?;
        }
        Ok(())
    }

    /// Round 1 as the client sends it: the plan's transactions, each with
    /// the hitchhikers of §III-C2 appended (a planned item rides along to
    /// every other planned server that also holds a replica of it).
    fn wire_txns(&mut self, plan: &rnb_core::FetchPlan) -> Vec<WireTxn> {
        let placement = self.bundler.placement();
        let mut txn_of = vec![None; placement.num_servers()];
        for (ti, txn) in plan.transactions.iter().enumerate() {
            txn_of[txn.server as usize] = Some(ti);
        }
        let mut extras: Vec<Vec<ItemId>> = vec![Vec::new(); plan.transactions.len()];
        for (ti, txn) in plan.transactions.iter().enumerate() {
            for &item in &txn.items {
                placement.replicas_into(item, &mut self.replicas);
                for &server in &self.replicas {
                    match txn_of[server as usize] {
                        Some(tj) if tj != ti && !extras[tj].contains(&item) => {
                            extras[tj].push(item)
                        }
                        _ => {}
                    }
                }
            }
        }
        plan.transactions
            .iter()
            .zip(&extras)
            .map(|(txn, extra)| {
                let keys: Vec<Vec<u8>> = txn
                    .items
                    .iter()
                    .chain(extra)
                    .map(|&i| item_key(i))
                    .collect();
                let mut request = b"get".to_vec();
                for key in &keys {
                    request.push(b' ');
                    request.extend_from_slice(key);
                }
                request.extend_from_slice(b"\r\n");
                WireTxn {
                    server: txn.server as usize,
                    keys,
                    request,
                }
            })
            .collect()
    }

    /// Replay a read through every layer. `span` records one interval.
    fn replay_read(
        &mut self,
        items: &[ItemId],
        counts: &mut OpCounts,
        mut span: impl FnMut(&'static str, &'static str, Instant),
    ) -> io::Result<()> {
        let t = Instant::now();
        let plan = self.bundler.plan_with(&mut self.plan_scratch, items);
        span("core.plan", "client.multi_get", t);
        counts.plan_txns = plan.transactions.len();
        counts.items = plan.requested;

        // The two things a plan is made of, on the plan's own inputs.
        self.sorted.clear();
        self.sorted.extend_from_slice(items);
        self.sorted.sort_unstable();
        self.sorted.dedup();
        self.cand_off.clear();
        self.cand_flat.clear();
        self.cand_off.push(0);
        let t = Instant::now();
        for &item in &self.sorted {
            self.bundler
                .placement()
                .replicas_into(item, &mut self.replicas);
            self.cand_flat.extend_from_slice(&self.replicas);
            self.cand_off.push(self.cand_flat.len() as u32);
        }
        span("hash.replicas", "core.plan", t);
        let t = Instant::now();
        let picks = self
            .cover
            .solve_flat_candidates(&self.cand_off, &self.cand_flat, CoverTarget::Full)
            .num_picks();
        span("cover.solve", "core.plan", t);
        black_box(picks);

        let txns = self.wire_txns(&plan);
        let refs: Vec<Vec<&[u8]>> = txns
            .iter()
            .map(|t| t.keys.iter().map(Vec::as_slice).collect())
            .collect();
        counts.wire_items = refs.iter().map(Vec::len).sum();
        for keys in &refs {
            if self.txn_sizes.len() <= keys.len() {
                self.txn_sizes.resize(keys.len() + 1, 0);
            }
            self.txn_sizes[keys.len()] += 1;
        }
        let t = Instant::now();
        for (txn, keys) in txns.iter().zip(&refs) {
            self.wires[txn.server].send_get_multi(keys)?;
        }
        for (txn, keys) in txns.iter().zip(&refs) {
            black_box(self.wires[txn.server].recv_get_multi(keys)?);
        }
        span("wire.round", "client.multi_get", t);

        let t = Instant::now();
        for txn in &txns {
            match protocol::next_request(black_box(&txn.request)) {
                NextRequest::Request { consumed, .. } if consumed == txn.request.len() => {}
                _ => return Err(io::Error::other("replayed request did not parse")),
            }
        }
        span("protocol.parse", "wire.round", t);

        self.found
            .resize_with(refs.len().max(self.found.len()), Vec::new);
        let t = Instant::now();
        for (keys, values) in refs.iter().zip(&mut self.found) {
            self.mirror
                .get_multi_into(&mut self.store_scratch, keys, values);
        }
        span("store.get_multi", "wire.round", t);

        let t = Instant::now();
        for (keys, values) in refs.iter().zip(&self.found) {
            self.reply.clear();
            for (key, value) in keys.iter().zip(values) {
                if let Some(v) = value {
                    protocol::write_value(&mut self.reply, key, v.flags, &v.data, None)?;
                }
            }
            protocol::write_end(&mut self.reply)?;
            black_box(&self.reply);
        }
        span("protocol.reply", "wire.round", t);
        Ok(())
    }

    /// Replay a `multi_set` of `items`: the batch plan and the store side.
    fn replay_write(
        &mut self,
        items: &[ItemId],
        value_len: usize,
        counts: &mut OpCounts,
        mut span: impl FnMut(&'static str, &'static str, Instant),
    ) {
        let t = Instant::now();
        let txns = self
            .batcher
            .plan_batch(&self.writer, items.iter().copied())
            .total_txns();
        span("core.write_plan", "client.multi_set", t);
        counts.write_plan_txns = txns;
        counts.set_items = items.len();

        let keys: Vec<Vec<u8>> = items.iter().map(|&i| item_key(i)).collect();
        let mut values = Vec::new();
        for &item in items {
            push_value(item, value_len, &mut values);
        }
        let entries: Vec<SetEntry<'_>> = keys
            .iter()
            .zip(values.chunks(value_len))
            .map(|(key, value)| SetEntry {
                key,
                value,
                flags: 0,
                pinned: false,
                ttl: None,
            })
            .collect();
        let mut outcomes = Vec::new();
        let t = Instant::now();
        self.mirror
            .set_multi(&mut self.store_scratch, &entries, &mut outcomes);
        span("store.set_multi", "client.multi_set", t);
        black_box(outcomes);
    }
}

fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    let values: Vec<f64> = values.collect();
    if values.is_empty() {
        0.0
    } else {
        median(&values)
    }
}

/// Run the first `ops` ops of caller 0's stream, each followed by its
/// replays, and fill in the per-layer timings and the client's counts.
pub fn traced_pass(rig: &mut Rig, ops: usize, layer: &mut Metrics) -> io::Result<Traced> {
    let mut replay = Replay::new(rig)?;
    let value_len = rig.spec.value_len;
    let caller = &mut rig.callers[0];
    let epoch = Instant::now();
    let mut spans: Vec<Span> = Vec::with_capacity(ops * 9);
    let mut counts = vec![OpCounts::default(); ops];
    let mut deltas: Vec<ClientStats> = Vec::with_capacity(ops);
    let mut failed = 0;
    for (op, count) in counts.iter_mut().enumerate() {
        replay.warm_connections(caller)?;
        let root = spans.len();
        let at = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
        let earlier = caller.client.stats();
        let start = at(Instant::now());
        spans.push(Span {
            name: "op",
            op: op as u32,
            parent: "",
            start_ns: start,
            end_ns: start,
        });
        let done = caller.run(op);
        deltas.push(caller.client.stats().since(&earlier));
        failed += u64::from(done.failed);
        let op = op as u32;
        spans.extend(done.call_spans(op, at));
        let mut span = |name, parent, from: Instant| {
            spans.push(Span {
                name,
                op,
                parent,
                start_ns: at(from),
                end_ns: at(Instant::now()),
            });
        };
        let (is_write, items) = caller.stream.op(op as usize);
        if is_write {
            replay.replay_write(items, value_len, count, &mut span);
        } else {
            replay.replay_read(items, count, &mut span)?;
            if done.set.is_some() {
                replay.replay_write(caller.missing(), value_len, count, &mut span);
            }
        }
        spans[root].end_ns = at(Instant::now());
    }

    // Per-op groups: spans were pushed op by op.
    let mut per_op: Vec<&[Span]> = Vec::with_capacity(ops);
    let mut rest = spans.as_slice();
    while let Some(first) = rest.first() {
        let len = rest.iter().take_while(|s| s.op == first.op).count();
        per_op.push(&rest[..len]);
        rest = &rest[len..];
    }
    let per = |name: &'static str, unit: fn(&OpCounts) -> usize| {
        median_of(per_op.iter().zip(&counts).filter_map(move |(spans, c)| {
            Some(span_ns(spans, name)? as f64 / unit(c).max(1) as f64)
        }))
    };
    fn whole(_: &OpCounts) -> usize {
        1
    }
    layer.set(
        "hash.replicas_ns_per_item",
        per("hash.replicas", |c| c.items),
    );
    layer.set("cover.solve_ns_per_req", per("cover.solve", whole));
    layer.set("core.plan_ns_per_req", per("core.plan", whole));
    layer.set(
        "core.write_plan_ns_per_burst",
        per("core.write_plan", whole),
    );
    layer.set("client.get_ns_per_req", per("client.multi_get", whole));
    layer.set("client.set_ns_per_burst", per("client.multi_set", whole));
    layer.set("wire.round_ns_per_req", per("wire.round", whole));
    layer.set(
        "protocol.parse_ns_per_txn",
        per("protocol.parse", |c| c.plan_txns),
    );
    layer.set(
        "protocol.reply_ns_per_item",
        per("protocol.reply", |c| c.wire_items),
    );
    layer.set(
        "store.get_multi_ns_per_txn",
        per("store.get_multi", |c| c.plan_txns),
    );
    layer.set(
        "store.get_multi_ns_per_item",
        per("store.get_multi", |c| c.wire_items),
    );
    layer.set(
        "store.set_multi_ns_per_item",
        per("store.set_multi", |c| c.set_items),
    );

    // The client call's own time: what is left of it once the plan and the
    // wire round replayed under it are taken out — hitchhiker expansion,
    // maps, key formatting, reply decoding.
    let residual: Vec<f64> = per_op
        .iter()
        .filter_map(|spans| Some(self_ns(spans, "client.multi_get")? as f64))
        .collect();
    layer.set(
        "client.residual_ns_per_req",
        median_of(residual.iter().copied()),
    );
    let nonneg = residual.iter().filter(|&&r| r >= 0.0).count();
    layer.set(
        "client.residual_nonneg_frac",
        if residual.is_empty() {
            1.0
        } else {
            nonneg as f64 / residual.len() as f64
        },
    );

    let total = |field: fn(&ClientStats) -> u64| deltas.iter().map(field).sum::<u64>();
    let sum = |field: fn(&OpCounts) -> usize| counts.iter().map(field).sum::<usize>() as u64;
    let reads = total(|d| d.requests);
    let bursts = counts.iter().filter(|c| c.set_items > 0).count() as u64;
    layer.set("core.plan_txns_per_req", ratio(sum(|c| c.plan_txns), reads));
    layer.set(
        "core.plan_items_per_txn",
        ratio(sum(|c| c.items), sum(|c| c.plan_txns)),
    );
    layer.set(
        "core.write_txns_per_burst",
        ratio(sum(|c| c.write_plan_txns), bursts),
    );
    layer.set(
        "client.write_txns_per_burst",
        ratio(total(|d| d.write_txns), bursts),
    );
    layer.set(
        "client.round1_txns_per_req",
        ratio(total(|d| d.round1_txns), reads),
    );
    layer.set(
        "client.round2_txns_per_req",
        ratio(total(|d| d.round2_txns), reads),
    );
    layer.set(
        "client.round3_txns_per_req",
        ratio(total(|d| d.round3_txns), reads),
    );
    layer.set(
        "client.planned_miss_frac",
        ratio(total(|d| d.planned_misses), sum(|c| c.items)),
    );
    layer.set(
        "client.hitchhiker_rescue_frac",
        ratio(
            total(|d| d.rescued_by_hitchhikers),
            total(|d| d.planned_misses),
        ),
    );
    layer.set(
        "client.writebacks_per_req",
        ratio(total(|d| d.writebacks), reads),
    );
    layer.set(
        "client.unavailable_per_req",
        ratio(total(|d| d.unavailable_items), reads),
    );
    layer.set("client.failed_txns", total(|d| d.failed_txns) as f64);
    layer.set("client.reconnects", total(|d| d.reconnects) as f64);
    layer.set("workload.items_per_req", ratio(sum(|c| c.items), reads));
    layer.set("trace.ops", ops as f64);

    let tpr = ratio(
        total(|d| d.round1_txns + d.round2_txns + d.round3_txns),
        reads,
    );
    Ok(Traced {
        spans,
        failed,
        reads,
        tpr,
        txn_sizes: replay.txn_sizes,
    })
}

/// Median round-trip of `reps` gets of `keys` on `wire`, each after
/// `silence` during which the whole benchmark sends nothing.
fn rtt_ns(
    wire: &mut StoreClient,
    keys: &[&[u8]],
    reps: usize,
    silence: Duration,
) -> io::Result<f64> {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        if !silence.is_zero() {
            park_until(Instant::now() + silence);
        }
        let t = Instant::now();
        black_box(wire.get_multi(keys)?);
        samples.push(t.elapsed().as_nanos() as f64);
    }
    Ok(median(&samples))
}

/// Probes that need the fleet to themselves: idle CPU, round trips hot and
/// idle, and the Appendix cost model `t(n) = t_txn + n·t_item` fitted twice
/// — to round-trip time (wire) and to server CPU (server).
pub fn probes(rig: &mut Rig, quick: bool, layer: &mut Metrics) -> io::Result<CostModel> {
    let reps = if quick { 40 } else { 200 };
    let quiet = Duration::from_secs_f64(if quick { 0.5 } else { 2.0 });
    let before = rig.monitor.sample()?.cpu_ns;
    park_until(Instant::now() + quiet);
    let idle_ns = rig.monitor.sample()?.cpu_ns - before;
    layer.set(
        "server.idle_cpu_ms_per_s",
        idle_ns as f64 / 1e6 / quiet.as_secs_f64(),
    );

    let mut wire = StoreClient::connect(rig.fleet.addrs()[0])?;
    // Keys node 0 holds: a bare get there is a hit, as a planned one is.
    let placement =
        PlacementStrategy::from_config(&RnbConfig::new(rig.fleet.addrs().len(), rig.spec.k));
    let keys: Vec<Vec<u8>> = (0..)
        .filter(|&item| placement.distinguished(item) == 0)
        .take(64)
        .map(item_key)
        .collect();
    let keys: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
    // Past the poller's whole back-off ladder, so the get meets a parked fleet.
    let silence = Duration::from_millis(60);
    layer.set(
        "wire.rtt_idle_ns",
        rtt_ns(&mut wire, &keys[..1], reps / 10, silence)?,
    );
    layer.set(
        "wire.rtt_hot_ns",
        rtt_ns(&mut wire, &keys[..1], reps, Duration::ZERO)?,
    );

    let (mut by_rtt, mut by_cpu) = (Vec::new(), Vec::new());
    for n in [1, 4, 16, 64] {
        let cpu = rig.monitor.node_cpu_ns(0)?;
        let rtt = rtt_ns(&mut wire, &keys[..n], reps * 5, Duration::ZERO)?;
        let cpu_per_txn = (rig.monitor.node_cpu_ns(0)? - cpu) as f64 / (reps * 5) as f64;
        by_rtt.push((n, n as f64 * 1e9 / rtt));
        by_cpu.push((n, n as f64 * 1e9 / cpu_per_txn.max(1.0)));
    }
    let wire_model = CostModel::fit(&by_rtt);
    let server_model = CostModel::fit(&by_cpu);
    layer.set("wire.fit_txn_us", wire_model.txn_overhead_us);
    layer.set("wire.fit_item_us", wire_model.per_item_us);
    layer.set("server.cpu_us_per_txn", server_model.txn_overhead_us);
    layer.set("server.cpu_us_per_item", server_model.per_item_us);
    Ok(server_model)
}

/// TPR of the traced requests in `rnb-sim` under the same placement and
/// capacity: `warm` ops of the caller's stream first, then the traced `ops`
/// measured. `memory_factor` is the fleet's capacity in copies of the data
/// set; `None` means everything is resident.
pub fn sim_tpr(rig: &Rig, warm: usize, ops: usize, memory_factor: Option<f64>) -> f64 {
    let (spec, nodes) = (rig.spec, rig.fleet.addrs().len());
    let config = match memory_factor {
        Some(factor) => SimConfig::enhanced(nodes, spec.k, factor.max(1.0)),
        None => SimConfig::basic(nodes, spec.k).with_hitchhiking(true),
    };
    let mut sim = SimCluster::new(config, rig.graph.num_nodes());
    let feed = |sim: &mut SimCluster, count: usize| {
        for index in 0..count {
            let (is_write, items) = rig.callers[0].stream.op(index);
            if is_write {
                sim.execute_write_batch(items, spec.write_policy);
            } else {
                sim.execute(items);
            }
        }
    };
    feed(&mut sim, warm);
    sim.reset_metrics();
    feed(&mut sim, ops);
    sim.metrics().tpr()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("op", "", 0, 1000),
            span("client.multi_get", "op", 10, 410),
            span("core.plan", "op", 420, 520),
            span("hash.replicas", "core.plan", 530, 560),
            span("cover.solve", "core.plan", 570, 610),
            span("wire.round", "op", 620, 900),
        ];
        // 1000 − (400 + 100 + 280): grandchildren are not subtracted twice.
        assert_eq!(self_ns(&spans, "op"), Some(220));
        assert_eq!(self_ns(&spans, "core.plan"), Some(30));
        assert_eq!(self_ns(&spans, "wire.round"), Some(280));
        assert_eq!(self_ns(&spans, "store.get_multi"), None);
        // Replays slower than the span they repeat give a negative self time.
        let slow = [
            span("core.plan", "op", 0, 10),
            span("cover.solve", "core.plan", 20, 50),
        ];
        assert_eq!(self_ns(&slow, "core.plan"), Some(-20));
    }

    #[test]
    fn trace_lines_are_json() {
        let mut text = Vec::new();
        write_jsonl(
            &mut text,
            &[span("op", "", 1, 2), span("core.plan", "op", 3, 4)],
        )
        .unwrap();
        let text = String::from_utf8(text).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            r#"{"name": "op", "op": 0, "parent": null, "start_ns": 1, "end_ns": 2}"#
        );
        assert_eq!(
            lines[1],
            r#"{"name": "core.plan", "op": 0, "parent": "op", "start_ns": 3, "end_ns": 4}"#
        );
    }
}
