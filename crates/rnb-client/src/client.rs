//! The client proper.

use crate::keys::{item_key, write_item_key};
use crate::stats::ClientStats;
use rnb_core::{
    Bundler, FetchPlan, PlacementStrategy, PlanScratch, RnbConfig, WriteBatchPlanner, WriteGroup,
    WritePlanner, WritePolicy,
};
use rnb_hash::{ItemId, Placement, ServerId};
use rnb_store::{StorageOp, StoreClient};
use std::io;
use std::net::SocketAddr;
use std::ops::Range;

/// Configuration of a deployed RnB client.
#[derive(Debug, Clone)]
pub struct RnbClientConfig {
    /// Placement and bundling configuration (server count must match the
    /// address list handed to [`RnbClient::connect`]).
    pub rnb: RnbConfig,
    /// Append hitchhikers to planned transactions (§III-C2) — for items
    /// planned on a server that has missed within its last
    /// [`HITCHHIKE_WINDOW`] round-1 transactions. Off: never.
    pub hitchhiking: bool,
    /// Write recovered misses back to the planned replica (§III-C2), in
    /// one pipelined burst of `noreply` sets per server that nothing
    /// waits for.
    pub writeback: bool,
    /// How `set` propagates to replicas (§III-G / §IV).
    pub write_policy: WritePolicy,
    /// Pipeline the bundled read rounds: issue every transaction of a
    /// round before reading any reply, so round latency is one RTT
    /// instead of the sum of per-server RTTs. Off = the same loop with
    /// each receive directly after its send (the differential oracle of
    /// the equivalence proptests).
    pub pipeline: bool,
}

impl RnbClientConfig {
    /// Defaults matching the paper's evaluated configuration:
    /// 4-way logical replication is the paper's sweet spot; pass your own
    /// [`RnbConfig`] via the field for anything else.
    pub fn new(replication: usize) -> Self {
        RnbClientConfig {
            rnb: RnbConfig::new(1, replication), // server count fixed at connect()
            hitchhiking: true,
            writeback: true,
            write_policy: WritePolicy::WriteAll,
            pipeline: true,
        }
    }

    /// Builder-style write-policy override.
    pub fn with_write_policy(mut self, policy: WritePolicy) -> Self {
        self.write_policy = policy;
        self
    }

    /// Builder-style hitchhiking toggle.
    pub fn with_hitchhiking(mut self, on: bool) -> Self {
        self.hitchhiking = on;
        self
    }

    /// Builder-style write-back toggle.
    pub fn with_writeback(mut self, on: bool) -> Self {
        self.writeback = on;
        self
    }

    /// Builder-style pipelining toggle.
    pub fn with_pipeline(mut self, on: bool) -> Self {
        self.pipeline = on;
        self
    }
}

/// One server endpoint with lazy reconnection. After an I/O error the
/// stream may be desynced (a reply of the failed request can still be
/// in flight) or dead — either way it must never be reused, so error
/// paths mark it broken and the next use dials a fresh connection.
struct ServerConn {
    addr: SocketAddr,
    conn: Option<StoreClient>,
}

impl ServerConn {
    fn connect(addr: SocketAddr) -> io::Result<ServerConn> {
        Ok(ServerConn {
            addr,
            conn: Some(StoreClient::connect(addr)?),
        })
    }

    /// The connection for the next operation, reconnecting lazily if a
    /// previous error marked it broken. The bool reports whether a
    /// reconnect happened (for [`ClientStats::reconnects`]).
    fn ready(&mut self) -> io::Result<(&mut StoreClient, bool)> {
        let reconnected = self.conn.is_none();
        if self.conn.is_none() {
            self.conn = Some(StoreClient::connect(self.addr)?);
        }
        match self.conn.as_mut() {
            Some(conn) => Ok((conn, reconnected)),
            None => Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "connection unavailable",
            )),
        }
    }

    /// The live connection, if any — used by pipelined receive phases,
    /// which must read from the exact connection that sent (a reconnect
    /// there would wait for a reply that was never requested).
    fn active(&mut self) -> Option<&mut StoreClient> {
        self.conn.as_mut()
    }

    /// Whether a connection is up: false from an error until a redial.
    fn is_live(&self) -> bool {
        self.conn.is_some()
    }

    /// Never reuse this connection again; the next use reconnects.
    fn mark_broken(&mut self) {
        self.conn = None;
    }
}

/// Borrow-splitting helper: fetch (lazily reconnecting) the connection
/// for `server` while `stats` counts the reconnect. A free function so
/// `multi_get` can call it while holding borrows of the planner fields.
fn conn_for<'a>(
    conns: &'a mut [ServerConn],
    stats: &mut ClientStats,
    server: usize,
) -> io::Result<&'a mut StoreClient> {
    let (conn, reconnected) = conns[server].ready()?;
    if reconnected {
        stats.reconnects += 1;
    }
    Ok(conn)
}

/// One server's storage burst in a write phase: ops `ops` of the phase.
struct Burst {
    server: ServerId,
    ops: Span,
    sent: bool,
}

/// Execute one write phase, one storage burst per server: every burst
/// is sent before any reply is read (the read rounds' pipelining on the
/// write side, so a phase costs one RTT, not the sum of per-server
/// RTTs); with `pipeline` off, the same loop over batches of one, as in
/// [`run_round`]. `op(i)` builds op `i` of the phase as it goes out, so
/// no op list is collected. `count` bumps the phase's transaction
/// counter once per burst.
///
/// A failed send or receive marks that connection broken and counts a
/// failed transaction; surviving bursts still complete — desync on one
/// server must not corrupt the others. Returns the acknowledged ops
/// (a quiet op counts once sent, and its receive waits for nothing) and
/// the first error.
fn run_write_bursts<'o>(
    conns: &mut [ServerConn],
    stats: &mut ClientStats,
    bursts: &mut [Burst],
    pipeline: bool,
    count: fn(&mut ClientStats),
    op: impl Fn(usize) -> StorageOp<'o>,
    acks: &mut Vec<bool>,
) -> (u64, Option<io::Error>) {
    let mut acked = 0;
    let mut first_err = None;
    let batch = if pipeline { bursts.len().max(1) } else { 1 };
    for batch in bursts.chunks_mut(batch) {
        for burst in batch.iter_mut() {
            count(stats);
            let s = burst.server as usize;
            let ops = burst.ops.range().map(&op);
            let outcome = conn_for(conns, stats, s).and_then(|c| c.send_storage_batch(ops));
            burst.sent = outcome.is_ok();
            if let Err(e) = outcome {
                conns[s].mark_broken();
                stats.failed_txns += 1;
                first_err.get_or_insert(e);
            }
        }
        for burst in batch.iter().filter(|burst| burst.sent) {
            let s = burst.server as usize;
            let outcome = match conns[s].active() {
                Some(c) => c.recv_storage_batch(burst.ops.range().map(&op), acks),
                // A later send on the same server broke the conn; the
                // pending replies are lost.
                None => Err(io::Error::new(io::ErrorKind::NotConnected, "conn broken")),
            };
            match outcome {
                Ok(()) => acked += acks.iter().filter(|&&ack| ack).count() as u64,
                Err(e) => {
                    conns[s].mark_broken();
                    stats.failed_txns += 1;
                    first_err.get_or_insert(e);
                }
            }
        }
    }
    (acked, first_err)
}

/// A `from..to` range that is `Copy`, which std's is not.
#[derive(Clone, Copy, Default)]
struct Span {
    from: usize,
    to: usize,
}

impl Span {
    fn range(self) -> Range<usize> {
        self.from..self.to
    }
}

/// Wire keys back to back in one pooled buffer, each addressed by the
/// position it was pushed at.
#[derive(Default)]
struct KeyArena {
    bytes: Vec<u8>,
    spans: Vec<Span>,
}

impl KeyArena {
    fn clear(&mut self) {
        self.bytes.clear();
        self.spans.clear();
    }

    fn push(&mut self, item: ItemId) {
        let from = self.bytes.len();
        write_item_key(item, &mut self.bytes);
        let to = self.bytes.len();
        self.spans.push(Span { from, to });
    }

    /// The `i`-th key pushed.
    fn get(&self, i: usize) -> &[u8] {
        let key = self
            .spans
            .get(i)
            .and_then(|span| self.bytes.get(span.range()));
        key.unwrap_or_default()
    }
}

/// One key of a read round.
struct WireKey {
    /// Its bytes, as a range of [`Wire::line`].
    span: Span,
    /// The planner index ([`PlanScratch::items`]) of its item.
    index: usize,
}

/// One transaction of a read round, as laid out in a [`Wire`].
struct WireTxn {
    server: ServerId,
    /// Its request line, as a range of [`Wire::line`].
    line: Span,
    /// Its keys, as a range of [`Wire::keys`].
    keys: Span,
    /// How many of those keys the planner put there; hitchhikers follow.
    planned: usize,
    sent: bool,
}

/// The transactions of one read round, encoded for the wire into
/// buffers that outlive the request: every request line back to back in
/// one byte buffer, every key of every transaction in one table, and
/// beside it whether the reply answered the key.
#[derive(Default)]
struct Wire {
    line: Vec<u8>,
    keys: Vec<WireKey>,
    answered: Vec<bool>,
    txns: Vec<WireTxn>,
}

impl Wire {
    fn clear(&mut self) {
        self.line.clear();
        self.keys.clear();
        self.answered.clear();
        self.txns.clear();
    }

    /// Open a `get` transaction to `server`; follow with [`Wire::key`]s
    /// and close with [`Wire::end`].
    fn begin(&mut self, server: ServerId) {
        self.txns.push(WireTxn {
            server,
            line: Span {
                from: self.line.len(),
                to: self.line.len(),
            },
            keys: Span {
                from: self.keys.len(),
                to: self.keys.len(),
            },
            planned: 0,
            sent: false,
        });
        self.line.extend_from_slice(b"get");
    }

    fn key(&mut self, item: ItemId, index: usize) {
        self.line.push(b' ');
        let from = self.line.len();
        write_item_key(item, &mut self.line);
        let span = Span {
            from,
            to: self.line.len(),
        };
        self.keys.push(WireKey { span, index });
        self.answered.push(false);
    }

    /// Close the open transaction; its first `planned` keys are the
    /// planner's.
    fn end(&mut self, planned: usize) {
        self.line.extend_from_slice(b"\r\n");
        if let Some(txn) = self.txns.last_mut() {
            txn.line.to = self.line.len();
            txn.keys.to = self.keys.len();
            txn.planned = planned;
        }
    }
}

/// Run the transactions of `wire` as one read round. Pipelined, every
/// request is sent before any reply is read, so the round costs one RTT
/// and not the sum of the servers' RTTs; otherwise each reply is read
/// directly after its request — the same loop over batches of one.
///
/// `count` bumps the round's transaction counter, once per transaction.
/// `hit(index, data)` receives each answered key's planner index and
/// its value, still in the connection's read buffer. `settle(txn, keys,
/// answered, ok)` is called once per transaction, with its keys and
/// which of them were answered, when it failed to send or once its reply
/// is in.
///
/// An I/O error on a transaction (server down) is not fatal to the
/// request: its items fall through to the later rounds — RnB's
/// replication doubles as availability (the paper's remark that
/// memcached-tier "data loss … is usually tolerable" becomes "server
/// loss is tolerable" once every item has k homes). The failing
/// connection is marked broken: the stream may be desynced, so later
/// rounds must not reuse it.
fn run_round(
    conns: &mut [ServerConn],
    stats: &mut ClientStats,
    wire: &mut Wire,
    pipeline: bool,
    count: fn(&mut ClientStats),
    mut hit: impl FnMut(usize, &[u8]),
    mut settle: impl FnMut(&WireTxn, &[WireKey], &[bool], bool),
) {
    let Wire {
        line,
        keys,
        answered,
        txns,
    } = wire;
    let batch = if pipeline { txns.len().max(1) } else { 1 };
    for batch in txns.chunks_mut(batch) {
        for txn in batch.iter_mut() {
            count(stats);
            let s = txn.server as usize;
            match conn_for(conns, stats, s).and_then(|c| c.send_request(&line[txn.line.range()])) {
                Ok(()) => txn.sent = true,
                Err(_) => {
                    conns[s].mark_broken();
                    stats.failed_txns += 1;
                    let (keys, answered) = (&keys[txn.keys.range()], &answered[txn.keys.range()]);
                    settle(txn, keys, answered, false);
                }
            }
        }
        for txn in batch.iter().filter(|txn| txn.sent) {
            let s = txn.server as usize;
            let keys = &keys[txn.keys.range()];
            let answered = &mut answered[txn.keys.range()];
            let reply = match conns[s].active() {
                // Read from the exact connection that sent: a reconnect
                // here would wait for a reply that was never requested.
                Some(c) => c.recv_values(
                    keys.len(),
                    |i| &line[keys[i].span.range()],
                    false,
                    |i, data, _flags, _cas| {
                        answered[i] = true;
                        hit(keys[i].index, data);
                    },
                ),
                // A later send on the same server broke the conn; treat
                // this pending reply as lost.
                None => Err(io::Error::new(io::ErrorKind::NotConnected, "conn broken")),
            };
            if reply.is_err() {
                conns[s].mark_broken();
                stats.failed_txns += 1;
            }
            settle(txn, keys, answered, reply.is_ok());
        }
    }
}

/// Everything `multi_get` needs between its first line and its return
/// value, kept across calls so that a steady-state request allocates
/// only what it returns. Per-item state is indexed by the planner's own
/// index space ([`PlanScratch::items`]: the request sorted and dedup'd).
#[derive(Default)]
struct ReadScratch {
    plan_scratch: PlanScratch,
    plan: FetchPlan,
    /// Planner index of every planned item, in plan order (transactions,
    /// then their items).
    planned: Vec<usize>,
    /// Server → its transaction in `plan`, sized by the fleet.
    txn_of_server: Vec<Option<usize>>,
    /// Per transaction of `plan`, the planner indices of its hitchhikers.
    extras: Vec<Vec<usize>>,
    wire: Wire,
    /// The found value of each planner index.
    slots: Vec<Option<Vec<u8>>>,
    /// Planned fetches that missed: (planner index, the server asked).
    missed: Vec<(usize, ServerId)>,
    /// Round 2's fetches, then the write-backs: (server, arrival order,
    /// planner index), sorted to group by server.
    by_server: Vec<(ServerId, usize, usize)>,
    /// Planner indices left to round 3.
    third: Vec<usize>,
    /// Per server, the round-1 transactions left before its planned
    /// items stop carrying hitchhikers; sized by the fleet.
    countdown: Vec<u32>,
    /// Per planner index, a bit per candidate position whose server
    /// answered this request without the item (bit 0: distinguished).
    refused: Vec<u32>,
    /// Per server, whether a transaction to it failed in this request;
    /// sized by the fleet.
    failed: Vec<bool>,
}

/// The bit of candidate position `at` in a [`ReadScratch::refused`] mask.
fn candidate_bit(at: usize) -> u32 {
    1u32.checked_shl(at as u32).unwrap_or(0)
}

/// Clean round-1 transactions in a row after which a server's planned
/// items stop carrying hitchhikers. A planned miss or a failed
/// transaction there re-arms the count; a client starts armed.
/// Hitchhikers insure against misses (§III-C2), so they are paid for
/// only where misses have been seen: at the per-transaction miss rates
/// of overbooked or write-heavy fleets (≈ 0.7–0.8) 64 clean
/// transactions in a row do not happen, and on a resident fleet the
/// insurance costs each server its first 64 transactions.
pub const HITCHHIKE_WINDOW: u32 = 64;

/// Pooled buffers of the write bursts: `multi_set`'s phases and
/// `multi_get`'s write-back.
#[derive(Default)]
struct WriteScratch {
    /// Wire keys: one per entry of a `multi_set` batch, one per op of a
    /// write-back.
    keys: KeyArena,
    /// A `multi_set` phase's ops, burst after burst, as batch entries.
    order: Vec<usize>,
    bursts: Vec<Burst>,
    acks: Vec<bool>,
}

impl WriteScratch {
    /// Run one `multi_set` phase: `groups`, one burst per server, each
    /// op built by `op(key, entry)` from its batch entry and the key
    /// [`RnbClient::multi_set`] encoded for it.
    fn run_phase<'s>(
        &'s mut self,
        conns: &mut [ServerConn],
        stats: &mut ClientStats,
        groups: &[WriteGroup],
        op: impl Fn(&'s [u8], usize) -> StorageOp<'s>,
    ) -> Option<io::Error> {
        let WriteScratch {
            keys,
            order,
            bursts,
            acks,
        } = self;
        order.clear();
        bursts.clear();
        for group in groups {
            let from = order.len();
            order.extend(group.ops.iter().map(|&(_, entry)| entry));
            let ops = Span {
                from,
                to: order.len(),
            };
            bursts.push(Burst {
                server: group.server,
                ops,
                sent: false,
            });
        }
        let keys: &'s KeyArena = keys;
        let (_, err) = run_write_bursts(
            conns,
            stats,
            bursts,
            true,
            |stats| stats.write_txns += 1,
            |i| {
                let entry = order.get(i).copied().unwrap_or_default();
                op(keys.get(entry), entry)
            },
            acks,
        );
        err
    }
}

/// A connected RnB deployment client.
pub struct RnbClient {
    conns: Vec<ServerConn>,
    bundler: Bundler<PlacementStrategy>,
    writer: WritePlanner<PlacementStrategy>,
    config: RnbClientConfig,
    stats: ClientStats,
    /// Pooled state of `multi_get`, planner scratch included.
    read: ReadScratch,
    /// Pooled write-batch planner, reused across `multi_set` calls
    /// (same steady-state discipline as `read`, on the write side).
    batcher: WriteBatchPlanner,
    write: WriteScratch,
}

impl RnbClient {
    /// Connect to the server fleet. The placement's server count is set
    /// to `addrs.len()`; every client of the deployment must list the
    /// servers in the same order (this list is RnB's entire shared
    /// configuration, §I-C).
    pub fn connect(addrs: &[SocketAddr], mut config: RnbClientConfig) -> io::Result<RnbClient> {
        assert!(!addrs.is_empty(), "need at least one server");
        config.rnb.servers = addrs.len();
        let conns = addrs
            .iter()
            .map(|&a| ServerConn::connect(a))
            .collect::<io::Result<_>>()?;
        let bundler = Bundler::from_config(&config.rnb);
        let writer = WritePlanner::new(
            PlacementStrategy::from_config(&config.rnb),
            config.write_policy,
        );
        Ok(RnbClient {
            conns,
            bundler,
            writer,
            config,
            stats: ClientStats::default(),
            read: ReadScratch {
                countdown: vec![HITCHHIKE_WINDOW; addrs.len()],
                failed: vec![false; addrs.len()],
                ..ReadScratch::default()
            },
            batcher: WriteBatchPlanner::new(),
            write: WriteScratch::default(),
        })
    }

    /// Number of servers in the deployment.
    pub fn num_servers(&self) -> usize {
        self.conns.len()
    }

    /// Repoint server slot `server` at a new address.
    ///
    /// Placement is keyed by server *index*, not address, so a node that
    /// was restarted on a different port keeps its logical identity: the
    /// deployment updates every client's address list and the slot
    /// reconnects lazily on next use (counted in
    /// [`ClientStats::reconnects`] like any other reconnect). The old
    /// connection, if any, is dropped as broken. Out-of-range indices are
    /// ignored: membership changes (resizing the fleet) require a new
    /// client because they change the placement itself.
    pub fn set_server_addr(&mut self, server: usize, addr: SocketAddr) {
        if let Some(slot) = self.conns.get_mut(server) {
            slot.addr = addr;
            slot.mark_broken();
        }
    }

    /// Accumulated counters.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// The planner (for tests and tooling).
    pub fn bundler(&self) -> &Bundler<PlacementStrategy> {
        &self.bundler
    }

    /// Fetch `items` with full RnB treatment. Returns one entry per input
    /// position; `None` means the item's distinguished copy does not hold
    /// it (if that server is down: no other replica does either).
    ///
    /// At steady state the call allocates the returned vector and one
    /// buffer per found value, nothing else: every value is copied once,
    /// out of its connection's read buffer into the slot of its item.
    pub fn multi_get(&mut self, items: &[ItemId]) -> io::Result<Vec<Option<Vec<u8>>>> {
        let RnbClient {
            conns,
            bundler,
            config,
            stats,
            read,
            write,
            ..
        } = self;
        let ReadScratch {
            plan_scratch,
            plan,
            planned,
            txn_of_server,
            extras,
            wire,
            slots,
            missed,
            by_server,
            third,
            countdown,
            refused,
            failed,
        } = read;
        bundler.plan_into(plan_scratch, items, plan);
        let distinct = plan_scratch.items();
        slots.clear();
        slots.resize_with(distinct.len(), || None);
        refused.clear();
        refused.resize(distinct.len(), 0);
        failed.fill(false);

        // Every planned item is one of `distinct`; looked up once.
        planned.clear();
        planned.extend(
            plan.assignment()
                .map(|(item, _)| plan_scratch.index_of(item).unwrap_or_default()),
        );

        // Hitchhikers (§III-C2): a planned item rides along on every
        // other transaction of the plan that goes to one of its replica
        // servers — while its planned server has missed lately (see
        // `HITCHHIKE_WINDOW`). The replicas are the candidate table the
        // plan was covered from; an item is planned once, its replicas
        // are distinct servers and a server has one transaction, so no
        // item reaches a transaction twice.
        if extras.len() < plan.transactions.len() {
            extras.resize_with(plan.transactions.len(), Vec::new);
        }
        for extra in &mut extras[..plan.transactions.len()] {
            extra.clear();
        }
        if config.hitchhiking && plan.transactions.len() > 1 {
            txn_of_server.clear();
            txn_of_server.resize(conns.len(), None);
            for (ti, txn) in plan.transactions.iter().enumerate() {
                if let Some(slot) = txn_of_server.get_mut(txn.server as usize) {
                    *slot = Some(ti);
                }
            }
            let mut next = planned.iter();
            for (ti, txn) in plan.transactions.iter().enumerate() {
                let insured = countdown
                    .get(txn.server as usize)
                    .is_some_and(|&left| left > 0);
                let of_txn = next.by_ref().take(txn.items.len());
                for &index in of_txn.filter(|_| insured) {
                    for &server in plan_scratch.candidates(index) {
                        match txn_of_server.get(server as usize) {
                            Some(&Some(tj)) if tj != ti => extras[tj].push(index),
                            _ => {}
                        }
                    }
                }
            }
        }

        // Round 1: the plan. Planned items first, hitchhikers after, so
        // `planned` is a prefix length.
        wire.clear();
        let mut next = planned.iter();
        for (txn, extra) in plan.transactions.iter().zip(extras.iter()) {
            wire.begin(txn.server);
            for (&item, &index) in txn.items.iter().zip(next.by_ref()) {
                wire.key(item, index);
            }
            for &index in extra {
                wire.key(distinct[index], index);
            }
            wire.end(txn.items.len());
            stats.hitchhikers += extra.len() as u64;
        }
        missed.clear();
        run_round(
            conns,
            stats,
            wire,
            config.pipeline,
            |stats| stats.round1_txns += 1,
            // The first answer wins: a hitchhiker may find an item twice.
            |index, data| {
                slots[index].get_or_insert_with(|| data.to_vec());
            },
            // A key answered without, planned or hitchhiker, is refused.
            |txn, keys, answered, ok| {
                let mut clean = ok;
                for (at, (key, &answered)) in keys.iter().zip(answered).enumerate() {
                    if ok && !answered {
                        let candidates = plan_scratch.candidates(key.index);
                        let bit = candidates.iter().position(|&s| s == txn.server);
                        refused[key.index] |= bit.map_or(0, candidate_bit);
                    }
                    if at < txn.planned && !(ok && answered) {
                        missed.push((key.index, txn.server));
                        clean = false;
                    }
                }
                failed[txn.server as usize] |= !ok;
                if let Some(left) = countdown.get_mut(txn.server as usize) {
                    *left = if clean {
                        left.saturating_sub(1)
                    } else {
                        HITCHHIKE_WINDOW
                    };
                }
            },
        );

        // Misses not rescued by hitchhikers → bundled distinguished
        // fallback (§III-D), one transaction per distinguished server in
        // server order, each server's items in the order they missed, "if
        // we did not yet fetch their distinguished copy" — else unavailable.
        stats.planned_misses += missed.len() as u64;
        by_server.clear();
        for (order, &(index, _)) in missed.iter().enumerate() {
            if slots[index].is_some() {
                stats.rescued_by_hitchhikers += 1;
            } else if refused[index] & candidate_bit(0) != 0 {
                stats.unavailable_items += 1;
            } else {
                let distinguished = plan_scratch.candidates(index).first();
                by_server.push((distinguished.copied().unwrap_or_default(), order, index));
            }
        }
        by_server.sort_unstable();
        wire.clear();
        for of_server in by_server.chunk_by(|a, b| a.0 == b.0) {
            wire.begin(of_server[0].0);
            for &(_, _, index) in of_server {
                wire.key(distinct[index], index);
            }
            wire.end(0);
        }
        third.clear();
        let mut unavailable = 0;
        run_round(
            conns,
            stats,
            wire,
            config.pipeline,
            |stats| stats.round2_txns += 1,
            |index, data| slots[index] = Some(data.to_vec()),
            |txn, keys, answered, ok| {
                if ok {
                    unavailable += answered.iter().filter(|&&answered| !answered).count() as u64;
                } else {
                    // Even the distinguished server is down: survivor
                    // round over the remaining replicas.
                    failed[txn.server as usize] = true;
                    third.extend(keys.iter().map(|key| key.index));
                }
            },
        );
        stats.unavailable_items += unavailable;

        // Round 3 (failure path only): per-item sweep over surviving
        // replicas. Lazy reconnection matters here — a restarted server
        // is dialed fresh instead of erroring forever on a dead stream.
        // A server that failed in this request, or answered it without
        // the item, is not asked again.
        for &index in third.iter() {
            let line = &mut wire.line;
            line.clear();
            line.extend_from_slice(b"get ");
            write_item_key(distinct[index], line);
            let key_end = line.len();
            line.extend_from_slice(b"\r\n");
            for (at, &server) in plan_scratch.candidates(index).iter().enumerate() {
                let s = server as usize;
                if failed[s] || refused[index] & candidate_bit(at) != 0 {
                    continue;
                }
                stats.round3_txns += 1;
                let slot = &mut slots[index];
                let reply = conn_for(conns, stats, s).and_then(|c| {
                    c.send_request(line)?;
                    c.recv_values(
                        1,
                        |_| &line[4..key_end],
                        false,
                        |_, data, _, _| *slot = Some(data.to_vec()),
                    )
                });
                match reply {
                    Ok(()) if slot.is_some() => break,
                    Ok(()) => {}
                    Err(_) => {
                        conns[s].mark_broken();
                        failed[s] = true;
                    }
                }
            }
            if slots[index].is_none() {
                stats.unavailable_items += 1;
            }
        }

        // Write-back (§III-C2): each recovered miss goes back to the
        // server it missed at, in one pipelined storage burst per server,
        // each server's items in the order they missed. The bursts are
        // quiet `noreply` sets, a cache fill nobody reads back, so the
        // request returns once they are sent; whatever this client sends
        // that server later rides the same connection behind them.
        // Write-back never dials: a server whose connection a failed
        // transaction broke in this request, and nothing redialed since,
        // is skipped — so a dead node costs no connect per item. A failed
        // burst marks its connection broken like any other transaction.
        if config.writeback {
            by_server.clear();
            for (at, &(index, server)) in missed.iter().enumerate() {
                let live = conns.get(server as usize).is_some_and(ServerConn::is_live);
                if live && slots[index].is_some() {
                    by_server.push((server, at, index));
                }
            }
            by_server.sort_unstable();
            let WriteScratch {
                keys, bursts, acks, ..
            } = write;
            keys.clear();
            bursts.clear();
            for of_server in by_server.chunk_by(|a, b| a.0 == b.0) {
                let from = keys.spans.len();
                for &(_, _, index) in of_server {
                    keys.push(distinct[index]);
                }
                let ops = Span {
                    from,
                    to: keys.spans.len(),
                };
                let server = of_server[0].0;
                bursts.push(Burst {
                    server,
                    ops,
                    sent: false,
                });
            }
            // Op `i` writes back the `i`-th of `by_server`.
            let (acked, _) = run_write_bursts(
                conns,
                stats,
                bursts,
                config.pipeline,
                |stats| stats.writeback_txns += 1,
                |i| StorageOp::Set {
                    key: keys.get(i),
                    value: by_server
                        .get(i)
                        .and_then(|&(_, _, index)| slots[index].as_deref())
                        .unwrap_or_default(),
                    flags: 0,
                    noreply: true,
                },
                acks,
            );
            stats.writebacks += acked;
        }

        stats.requests += 1;
        // Each value moves out of its slot to its request position (a
        // request that came sorted and distinct is its own index space);
        // only an item requested more than once has to be copied.
        let in_order = items == distinct;
        let duplicates = distinct.len() < items.len();
        let mut values = Vec::with_capacity(items.len());
        values.extend(items.iter().enumerate().map(|(position, &item)| {
            let index = if in_order {
                position
            } else {
                plan_scratch.index_of(item)?
            };
            if duplicates {
                slots[index].clone()
            } else {
                slots[index].take()
            }
        }));
        Ok(values)
    }

    /// Run `op` on the connection for `server` (reconnecting lazily
    /// first), marking the connection broken if the operation fails so
    /// the next use reconnects instead of reusing a desynced stream.
    fn with_conn<T>(
        &mut self,
        server: usize,
        op: impl FnOnce(&mut StoreClient) -> io::Result<T>,
    ) -> io::Result<T> {
        let out = conn_for(&mut self.conns, &mut self.stats, server).and_then(op);
        if out.is_err() {
            self.conns[server].mark_broken();
        }
        out
    }

    /// Store `item` on all of its replica servers per the write policy:
    /// the policy's invalidations first, one `delete` each, then one plain
    /// `set` per written copy. rnb-store pins via its in-process API only,
    /// so over the wire the distinguished copy is an ordinary entry.
    pub fn set(&mut self, item: ItemId, value: &[u8]) -> io::Result<()> {
        let plan = self.writer.plan_write(item);
        let key = item_key(item);
        for txn in &plan.invalidations {
            self.with_conn(txn.server as usize, |c| c.delete(&key))?;
            self.stats.write_txns += 1;
        }
        for txn in &plan.writes {
            self.with_conn(txn.server as usize, |c| c.set(&key, value, 0))?;
            self.stats.write_txns += 1;
        }
        self.stats.writes += 1;
        Ok(())
    }

    /// Store a whole batch of `(item, value)` pairs with bundled,
    /// pipelined write transactions.
    ///
    /// The pooled [`WriteBatchPlanner`] groups every per-replica
    /// transaction of the batch by server, then each touched server
    /// receives its whole op list as ONE pipelined burst
    /// ([`StoreClient::send_storage_batch`] /
    /// [`StoreClient::recv_storage_batch`]): per batch, a server costs
    /// one round-trip per phase instead of one per item-replica. Under
    /// [`WritePolicy::InvalidateThenWrite`] the invalidation bursts are
    /// fully received before any write burst is sent, so the §IV
    /// ordering invariant holds batch-wide: no stale replica outlives
    /// its item's distinguished write.
    ///
    /// Duplicate items keep batch order (later value wins), and with
    /// pipelining disabled this degrades to the sequential
    /// [`RnbClient::set`] loop — the differential oracle for the TCP
    /// equivalence proptest. I/O errors follow `multi_get`'s failure
    /// semantics (broken connections are marked and redialed lazily,
    /// failed bursts counted in [`ClientStats::failed_txns`]); the first
    /// error is returned after every burst has completed, so a partial
    /// failure never desyncs the surviving connections.
    pub fn multi_set<V: AsRef<[u8]>>(&mut self, entries: &[(ItemId, V)]) -> io::Result<()> {
        if !self.config.pipeline {
            for (item, value) in entries {
                self.set(*item, value.as_ref())?;
            }
            return Ok(());
        }
        let RnbClient {
            conns,
            writer,
            stats,
            batcher,
            write,
            ..
        } = self;
        let plan = batcher.plan_batch(writer, entries.iter().map(|&(item, _)| item));

        // Every entry's key, encoded once; the ops of both phases are
        // built from them by batch index as they go out.
        write.keys.clear();
        for &(item, _) in entries {
            write.keys.push(item);
        }

        // Phase 1: invalidation bursts (InvalidateThenWrite only; empty
        // under WriteAll). Fully flushed — sent AND acknowledged —
        // before phase 2 starts.
        let invalidation_err = write.run_phase(conns, stats, plan.invalidations, |key, _| {
            StorageOp::Delete { key }
        });

        // Phase 2: the distinguished writes (every replica's write under
        // WriteAll), one burst per touched server.
        let write_err = write.run_phase(conns, stats, plan.writes, |key, entry| {
            let value = entries
                .get(entry)
                .map_or(&[][..], |(_, value)| value.as_ref());
            StorageOp::Set {
                key,
                value,
                flags: 0,
                noreply: false,
            }
        });

        stats.writes += entries.len() as u64;
        match invalidation_err.or(write_err) {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Delete `item` everywhere (all logical replicas).
    pub fn delete(&mut self, item: ItemId) -> io::Result<bool> {
        let key = item_key(item);
        let mut any = false;
        for server in self.bundler.placement().replicas(item) {
            any |= self.with_conn(server as usize, |c| c.delete(&key))?;
            // Each replica delete is a write-side transaction, counted
            // exactly like `set`'s invalidations (mixed-workload
            // accounting used to undercount here).
            self.stats.write_txns += 1;
        }
        self.stats.writes += 1;
        Ok(any)
    }

    /// §IV atomic read-modify-write: invalidate the non-distinguished
    /// replicas, then CAS-loop `f` on the distinguished copy. Returns the
    /// final stored value; errors if the item does not exist.
    pub fn atomic_update(
        &mut self,
        item: ItemId,
        f: impl Fn(&[u8]) -> Vec<u8>,
    ) -> io::Result<Vec<u8>> {
        let key = item_key(item);
        let replicas = self.bundler.placement().replicas(item);
        for &server in &replicas[1..] {
            self.with_conn(server as usize, |c| c.delete(&key))?;
            self.stats.write_txns += 1;
        }
        let d = replicas[0] as usize;
        loop {
            let got = self.with_conn(d, |c| c.gets_multi(&[&key]))?;
            let Some((data, flags, token)) = got.into_iter().next().flatten() else {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("item {item} has no distinguished copy"),
                ));
            };
            let next = f(&data);
            self.stats.write_txns += 1;
            if self.with_conn(d, |c| c.cas(&key, &next, flags, token))? {
                self.stats.writes += 1;
                return Ok(next);
            }
            self.stats.cas_retries += 1;
        }
    }
}

// Exercised end-to-end in `tests/client_over_tcp.rs` (needs running
// servers); unit tests cover config plumbing.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builders() {
        let c = RnbClientConfig::new(3)
            .with_write_policy(WritePolicy::InvalidateThenWrite)
            .with_hitchhiking(false)
            .with_writeback(false);
        assert_eq!(c.rnb.replication, 3);
        assert_eq!(c.write_policy, WritePolicy::InvalidateThenWrite);
        assert!(!c.hitchhiking);
        assert!(!c.writeback);
    }

    #[test]
    fn connect_rejects_empty_fleet() {
        let r = std::panic::catch_unwind(|| RnbClient::connect(&[], RnbClientConfig::new(1)));
        assert!(r.is_err());
    }

    #[test]
    fn cas_outcome_is_reexported_sanely() {
        // Compile-time guard that the store's CAS surface stays public.
        let _ = rnb_store::shard::CasOutcome::Stored;
    }
}
