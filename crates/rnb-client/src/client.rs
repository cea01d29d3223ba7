//! The client proper.

use crate::keys::{item_key, write_item_key};
use crate::stats::ClientStats;
use rnb_core::{
    Bundler, PlacementStrategy, PlanTarget, ReadEngine, RnbConfig, Round, Transport, Txn,
    WriteEngine, WritePlanner, WritePolicy, WriteStep,
};
use rnb_hash::{ItemId, Placement};
use rnb_store::{StorageOp, StoreClient};
use std::io;
use std::net::SocketAddr;
use std::ops::Range;

/// Configuration of a deployed RnB client. Its reads always append
/// hitchhikers for servers that missed within their last
/// [`HITCHHIKE_WINDOW`](rnb_core::HITCHHIKE_WINDOW) round-1 transactions
/// and always write recovered misses back to the replica they missed at
/// (§III-C2), in one burst of `noreply` sets per server that nothing
/// waits for.
#[derive(Debug, Clone)]
pub struct RnbClientConfig {
    /// Placement and bundling configuration (server count must match the
    /// address list handed to [`RnbClient::connect`]).
    pub rnb: RnbConfig,
    /// How `set` propagates to replicas (§III-G / §IV).
    pub write_policy: WritePolicy,
    /// Pipeline every round: issue each of its transactions before
    /// reading any reply, so round latency is one RTT instead of the sum
    /// of per-server RTTs. Off = the same loop with each receive directly
    /// after its send (the differential oracle of the equivalence
    /// proptests).
    pub pipeline: bool,
}

impl RnbClientConfig {
    /// Defaults matching the paper's evaluated configuration:
    /// 4-way logical replication is the paper's sweet spot; pass your own
    /// [`RnbConfig`] via the field for anything else.
    pub fn new(replication: usize) -> Self {
        RnbClientConfig {
            rnb: RnbConfig::new(1, replication), // server count fixed at connect()
            write_policy: WritePolicy::WriteAll,
            pipeline: true,
        }
    }

    /// Builder-style write-policy override.
    pub fn with_write_policy(mut self, policy: WritePolicy) -> Self {
        self.write_policy = policy;
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

    /// The connection for the next operation, redialing if a previous
    /// error marked it broken; a redial that connects counts in
    /// [`ClientStats::reconnects`].
    fn ready(&mut self, stats: &mut ClientStats) -> io::Result<&mut StoreClient> {
        match &mut self.conn {
            Some(conn) => Ok(conn),
            slot @ None => {
                let conn = slot.insert(StoreClient::connect(self.addr)?);
                stats.reconnects += 1;
                Ok(conn)
            }
        }
    }

    /// Never reuse this connection again; the next use reconnects.
    fn mark_broken(&mut self) {
        self.conn = None;
    }
}

/// The fleet's connections and the counters of what went over them.
struct Fleet {
    conns: Vec<ServerConn>,
    stats: ClientStats,
    pipeline: bool,
}

impl Fleet {
    /// Run one round's transactions: `send(t, conn)` the `t`-th, then
    /// `recv(t, conn)` its reply from the very connection that sent it.
    /// Pipelined, every transaction is sent before any reply is read, so
    /// the round costs one RTT and not the sum of the servers' RTTs;
    /// otherwise each reply is read directly after its request — the
    /// same loop over batches of one. A transaction `failed` already
    /// marks is not sent.
    ///
    /// An I/O error on a transaction (server down) is not fatal to the
    /// round: its connection is marked broken — the stream may be
    /// desynced, so nothing may reuse it, and the next use redials — and
    /// the transaction is counted in [`ClientStats::failed_txns`] and
    /// marked failed, while the others complete, so a desync on one
    /// server corrupts no other. Returns the first error.
    fn exchange(
        &mut self,
        txns: &[Txn],
        failed: &mut [bool],
        mut send: impl FnMut(usize, &mut StoreClient) -> io::Result<()>,
        mut recv: impl FnMut(usize, &mut StoreClient) -> io::Result<()>,
    ) -> Option<io::Error> {
        let batch = if self.pipeline { txns.len().max(1) } else { 1 };
        let mut first_err = None;
        for (first, chunk) in (0..).step_by(batch).zip(txns.chunks(batch)) {
            for receiving in [false, true] {
                for (t, txn) in (first..).zip(chunk) {
                    if failed[t] {
                        continue;
                    }
                    let conn = &mut self.conns[txn.server as usize];
                    let done = if receiving {
                        // A redial here would wait for a reply that was
                        // never requested; a later send to the same
                        // server broke the connection, so it is lost.
                        let sent = conn.conn.as_mut();
                        sent.ok_or_else(|| io::Error::from(io::ErrorKind::NotConnected))
                            .and_then(|c| recv(t, c))
                    } else {
                        conn.ready(&mut self.stats).and_then(|c| send(t, c))
                    };
                    if let Err(e) = done {
                        conn.mark_broken();
                        self.stats.failed_txns += 1;
                        failed[t] = true;
                        first_err.get_or_insert(e);
                    }
                }
            }
        }
        first_err
    }
}

/// A `from..to` range that is `Copy`, which std's is not.
#[derive(Clone, Copy, Default)]
struct Span(usize, usize);

impl Span {
    fn range(self) -> Range<usize> {
        self.0..self.1
    }
}

/// Wire keys in one pooled buffer, each addressed by the position it was
/// pushed at.
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
        self.spans.push(Span(from, self.bytes.len()));
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

/// The request lines of one read round, encoded for the wire into
/// buffers that outlive the request: every line back to back in one
/// byte buffer, which the spans of its keys point into.
#[derive(Default)]
struct Wire {
    keys: KeyArena,
    lines: Vec<Span>,
}

impl Wire {
    /// One `get` line per transaction of `round`, its keys in order.
    fn encode(&mut self, round: &Round<'_>) {
        self.keys.clear();
        self.lines.clear();
        for txn in round.txns {
            let from = self.keys.bytes.len();
            self.keys.bytes.extend_from_slice(b"get");
            for &index in &round.keys[txn.from..txn.to] {
                self.keys.bytes.push(b' ');
                self.keys.push(round.items[index]);
            }
            self.keys.bytes.extend_from_slice(b"\r\n");
            self.lines.push(Span(from, self.keys.bytes.len()));
        }
    }
}

/// The fleet and the buffers that carry requests over it: the read
/// engine's [`Transport`], which copies each value once, out of its
/// connection's read buffer into the slot of its planner index, and the
/// write engine's where a round stores no value.
struct Net {
    fleet: Fleet,
    /// The encoded rounds of `multi_get`.
    wire: Wire,
    /// The found value of each planner index of the request in flight.
    slots: Vec<Option<Vec<u8>>>,
    write: WriteScratch,
}

impl Transport for Net {
    /// One `get` per transaction. A failed one is not fatal to the
    /// request: the engine takes its items to the later rounds — RnB's
    /// replication doubles as availability (the paper's remark that
    /// memcached-tier "data loss … is usually tolerable" becomes "server
    /// loss is tolerable" once every item has k homes).
    fn run_round(&mut self, round: Round<'_>) {
        self.wire.encode(&round);
        let Net {
            fleet, wire, slots, ..
        } = self;
        let Round {
            txns,
            keys,
            answered,
            failed,
            ..
        } = round;
        fleet.exchange(
            txns,
            failed,
            |t, c| c.send_request(&wire.keys.bytes[wire.lines[t].range()]),
            |t, c| {
                let Txn { from, to, .. } = txns[t];
                let (keys, answered) = (&keys[from..to], &mut answered[from..to]);
                c.recv_values(
                    keys.len(),
                    |i| wire.keys.get(from + i),
                    false,
                    |i, data, _flags, _cas| {
                        answered[i] = true;
                        // The first answer wins: a hitchhiker may find
                        // an item twice.
                        slots[keys[i]].get_or_insert_with(|| data.to_vec());
                    },
                )
            },
        );
    }

    /// The values a write-back stores are the ones this request found;
    /// see [`WriteScratch::store`].
    fn store(&mut self, round: Round<'_>, step: WriteStep) {
        let Net {
            fleet,
            slots,
            write,
            ..
        } = self;
        write.store(fleet, round, step, |index| slots[index].as_deref());
    }
}

/// Pooled buffers and outcome of the storage rounds: `multi_set`'s,
/// `delete`'s and `atomic_update`'s, and `multi_get`'s write-back.
#[derive(Default)]
struct WriteScratch {
    /// The wire key of each op of the round in flight.
    keys: KeyArena,
    acks: Vec<bool>,
    /// The first error of an acknowledged round since it was taken.
    err: Option<io::Error>,
    /// `delete`s that found a copy, since it was last zeroed.
    deleted: u64,
}

impl WriteScratch {
    /// Run one store round over [`Fleet::exchange`], one storage burst
    /// per transaction, op `i` being `step` of the round's `i`-th key
    /// with value `value(planner index)`. Ops are built as they go out,
    /// so no op list is collected. A burst whose replies all came back
    /// acknowledges each of its ops: a `delete` that found nothing
    /// leaves no copy either.
    ///
    /// A write-back is a quiet `noreply` set per op: a cache fill nobody
    /// reads back, so it reads no reply and the request returns once the
    /// bursts are sent, and whatever this client sends that server later
    /// rides the same connection behind them. It never dials: a server
    /// whose connection a failed transaction broke in this request, and
    /// nothing redialed since, is skipped — so a dead node costs no
    /// connect per item. Its errors are not kept; the other steps keep
    /// their first.
    fn store<'v>(
        &mut self,
        fleet: &mut Fleet,
        round: Round<'_>,
        step: WriteStep,
        value: impl Fn(usize) -> Option<&'v [u8]>,
    ) {
        let quiet = step == WriteStep::WriteBack;
        let WriteScratch {
            keys,
            acks,
            err,
            deleted,
        } = self;
        keys.clear();
        for &index in round.keys {
            keys.push(round.items[index]);
        }
        let keys: &KeyArena = keys;
        let op = |i: usize| {
            let key = keys.get(i);
            let index = round.keys.get(i).copied().unwrap_or_default();
            match step {
                WriteStep::Invalidate => StorageOp::Delete { key },
                WriteStep::Write | WriteStep::WriteBack => StorageOp::Set {
                    key,
                    value: value(index).unwrap_or_default(),
                    flags: 0,
                    noreply: quiet,
                },
            }
        };
        let Round {
            txns,
            answered,
            failed,
            ..
        } = round;
        if quiet {
            for (failed, txn) in failed.iter_mut().zip(txns) {
                *failed = fleet.conns[txn.server as usize].conn.is_none();
            }
        }
        let bursts = failed.iter().filter(|&&failed| !failed).count() as u64;
        if quiet {
            fleet.stats.writeback_txns += bursts;
        } else {
            fleet.stats.write_txns += bursts;
        }
        let mut acked = 0;
        let ops = |t: usize| (txns[t].from..txns[t].to).map(op);
        let first_err = fleet.exchange(
            txns,
            failed,
            |t, c| c.send_storage_batch(ops(t)),
            |t, c| {
                c.recv_storage_batch(ops(t), acks)?;
                acked += acks.iter().filter(|&&ack| ack).count() as u64;
                answered[txns[t].from..txns[t].to].fill(true);
                Ok(())
            },
        );
        match step {
            WriteStep::Invalidate => *deleted += acked,
            WriteStep::Write => {}
            WriteStep::WriteBack => fleet.stats.writebacks += acked,
        }
        if let (false, Some(e)) = (quiet, first_err) {
            err.get_or_insert(e);
        }
    }
}

/// One `multi_set` batch on its way out: the write engine's
/// [`Transport`], over the fleet's connections, with the batch's values.
struct Batch<'a, V> {
    net: &'a mut Net,
    entries: &'a [(ItemId, V)],
}

impl<V: AsRef<[u8]>> Transport for Batch<'_, V> {
    fn run_round(&mut self, round: Round<'_>) {
        self.net.run_round(round);
    }

    /// Each op's value is its entry's.
    fn store(&mut self, round: Round<'_>, step: WriteStep) {
        let Net { fleet, write, .. } = &mut *self.net;
        let entries = self.entries;
        write.store(fleet, round, step, |index| {
            entries.get(index).map(|(_, v)| v.as_ref())
        });
    }
}

/// A connected RnB deployment client.
pub struct RnbClient {
    net: Net,
    /// The planner; its placement is the write path's too.
    bundler: Bundler<PlacementStrategy>,
    write_policy: WritePolicy,
    /// The read path, planner scratch included.
    read: ReadEngine,
    /// The write path, shared with `rnb-sim` like `read`.
    write: WriteEngine,
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
        Ok(RnbClient {
            bundler: Bundler::from_config(&config.rnb),
            write_policy: config.write_policy,
            read: ReadEngine::new(true),
            write: WriteEngine::new(),
            net: Net {
                fleet: Fleet {
                    conns,
                    stats: ClientStats::default(),
                    pipeline: config.pipeline,
                },
                wire: Wire::default(),
                slots: Vec::new(),
                write: WriteScratch::default(),
            },
        })
    }

    /// Number of servers in the deployment.
    pub fn num_servers(&self) -> usize {
        self.net.fleet.conns.len()
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
        if let Some(slot) = self.net.fleet.conns.get_mut(server) {
            slot.addr = addr;
            slot.mark_broken();
        }
    }

    /// Accumulated counters.
    pub fn stats(&self) -> ClientStats {
        self.net.fleet.stats
    }

    /// The planner (for tests and tooling).
    pub fn bundler(&self) -> &Bundler<PlacementStrategy> {
        &self.bundler
    }

    /// Fetch `items` with full RnB treatment: the `rnb-core` read engine
    /// over this client's connections. Returns one entry per input
    /// position; `None` means the item's distinguished copy does not hold
    /// it (if that server is down: no other replica does either).
    ///
    /// At steady state the call allocates the returned vector and one
    /// buffer per found value, nothing else: every value is copied once,
    /// out of its connection's read buffer into the slot of its item.
    pub fn multi_get(&mut self, items: &[ItemId]) -> io::Result<Vec<Option<Vec<u8>>>> {
        let net = &mut self.net;
        // One slot per planner index, and the request has at least as
        // many items as the planner has indices.
        net.slots.clear();
        net.slots.resize_with(items.len(), || None);
        let c = self.read.fetch(&self.bundler, items, PlanTarget::Full, net);
        let stats = &mut net.fleet.stats;
        stats.requests += 1;
        stats.round1_txns += c.round1_txns;
        stats.round2_txns += c.round2_txns;
        stats.round3_txns += c.round3_txns;
        stats.planned_misses += c.planned_misses;
        stats.rescued_by_hitchhikers += c.rescued;
        stats.hitchhikers += c.hitchhikers;
        stats.unavailable_items += c.unavailable;

        // Each value moves out of its slot to its request position (a
        // request that came sorted and distinct is its own index space);
        // only an item requested more than once has to be copied.
        let (scratch, slots) = (self.read.scratch(), &mut net.slots);
        let in_order = items == scratch.items();
        let duplicates = scratch.items().len() < items.len();
        let mut values = Vec::with_capacity(items.len());
        values.extend(items.iter().enumerate().map(|(position, &item)| {
            let index = if in_order {
                position
            } else {
                scratch.index_of(item)?
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
        let Fleet { conns, stats, .. } = &mut self.net.fleet;
        let out = conns[server].ready(stats).and_then(op);
        if out.is_err() {
            conns[server].mark_broken();
        }
        out
    }

    /// Store `item` on its replica servers per the write policy: a
    /// one-entry [`RnbClient::multi_set`]. rnb-store pins via its
    /// in-process API only, so over the wire the distinguished copy is an
    /// ordinary entry.
    pub fn set(&mut self, item: ItemId, value: &[u8]) -> io::Result<()> {
        self.multi_set(&[(item, value)])
    }

    /// Store a whole batch of `(item, value)` pairs: the `rnb-core` write
    /// engine over this client's connections.
    ///
    /// Each touched server receives its ops of a round as ONE storage
    /// burst ([`StoreClient::send_storage_batch`] /
    /// [`StoreClient::recv_storage_batch`]): per batch, a server costs one
    /// round-trip per round instead of one per item-replica. Under
    /// [`WritePolicy::InvalidateThenWrite`] the invalidation bursts are
    /// fully received before any write burst is sent, and an entry whose
    /// invalidation failed is not written, so no replica outlives its
    /// item's distinguished write (§IV).
    ///
    /// Duplicate items keep batch order (the later value wins). With
    /// pipelining off, the same rounds run in batches of one. I/O errors
    /// follow `multi_get`'s failure semantics (broken connections are
    /// marked and redialed lazily, failed bursts counted in
    /// [`ClientStats::failed_txns`]); the first error is returned after
    /// every burst has completed, so a partial failure never desyncs the
    /// surviving connections.
    pub fn multi_set<V: AsRef<[u8]>>(&mut self, entries: &[(ItemId, V)]) -> io::Result<()> {
        let mut batch = Batch {
            net: &mut self.net,
            entries,
        };
        let writer = WritePlanner::new(self.bundler.placement(), self.write_policy);
        let items = entries.iter().map(|&(item, _)| item);
        self.write.store(&writer, items, &mut batch);
        self.net.fleet.stats.writes += entries.len() as u64;
        self.net.write.err.take().map_or(Ok(()), Err)
    }

    /// Delete `item` everywhere: one pipelined invalidation round over
    /// all its logical replicas, one transaction per replica server.
    /// Returns whether some copy existed. Every burst completes before
    /// the first error is returned, so a dead replica stops no other
    /// copy's delete.
    pub fn delete(&mut self, item: ItemId) -> io::Result<bool> {
        self.net.write.deleted = 0;
        let placement = self.bundler.placement();
        self.write
            .invalidate(placement, [item], true, &mut self.net);
        self.net.fleet.stats.writes += 1;
        let deleted = self.net.write.deleted > 0;
        self.net.write.err.take().map_or(Ok(deleted), Err)
    }

    /// §IV atomic read-modify-write: invalidate the non-distinguished
    /// replicas (the write engine's invalidation round, as
    /// [`RnbClient::delete`] runs it), then CAS-loop `f` on the
    /// distinguished copy. Returns the final stored value; errors if the
    /// item does not exist, or — before the CAS loop runs — if an
    /// invalidation failed, so no replica outlives the update.
    pub fn atomic_update(
        &mut self,
        item: ItemId,
        f: impl Fn(&[u8]) -> Vec<u8>,
    ) -> io::Result<Vec<u8>> {
        let placement = self.bundler.placement();
        self.write
            .invalidate(placement, [item], false, &mut self.net);
        if let Some(e) = self.net.write.err.take() {
            return Err(e);
        }
        let key = item_key(item);
        let d = placement.replicas(item)[0] as usize;
        loop {
            let got = self.with_conn(d, |c| c.gets_multi(&[&key]))?;
            let Some((data, flags, token)) = got.into_iter().next().flatten() else {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("item {item} has no distinguished copy"),
                ));
            };
            let next = f(&data);
            self.net.fleet.stats.write_txns += 1;
            if self.with_conn(d, |c| c.cas(&key, &next, flags, token))? {
                self.net.fleet.stats.writes += 1;
                return Ok(next);
            }
            self.net.fleet.stats.cas_retries += 1;
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
        let c = RnbClientConfig::new(3).with_write_policy(WritePolicy::InvalidateThenWrite);
        assert_eq!(c.rnb.replication, 3);
        assert_eq!(c.write_policy, WritePolicy::InvalidateThenWrite);
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
