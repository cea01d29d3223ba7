//! The RnB read path, written once: plan → hitchhikers → round 1 →
//! round 2 at the distinguished copies → round-3 survivor sweep →
//! write-back, over any [`Transport`]. Its write-side sibling is
//! [`crate::WriteEngine`], over the same rounds and transports.
//!
//! `rnb-client` runs it over TCP and `rnb-sim` over simulated servers,
//! so the two cannot disagree on policy. The engine keeps all request
//! state that is not about the wire, indexed by planner index
//! ([`PlanScratch::items`]), in pooled buffers; values never enter it.

use crate::bundler::{Bundler, PlanScratch, PlanTarget};
use crate::plan::FetchPlan;
use rnb_hash::{ItemId, Placement, ServerId};

/// Clean round-1 transactions in a row after which a server's planned
/// items stop carrying hitchhikers. A planned miss or a failed
/// transaction there re-arms the count; an engine starts armed.
/// Hitchhikers insure against misses (§III-C2), so they are paid for
/// only where misses have been seen: at the per-transaction miss rates
/// of overbooked or write-heavy fleets (≈ 0.7–0.8) 64 clean
/// transactions in a row do not happen, and on a resident fleet the
/// insurance costs each server its first 64 transactions.
pub const HITCHHIKE_WINDOW: u32 = 64;

/// One transaction of a [`Round`]: a `get` of `keys[from..to]` at
/// `server`, or in a write round one storage burst of them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Txn {
    /// The server asked.
    pub server: ServerId,
    /// Its first key in [`Round::keys`].
    pub from: usize,
    /// One past its last key.
    pub to: usize,
    /// How many of its keys are asked for their own sake; hitchhikers
    /// follow them.
    pub planned: usize,
}

/// One round of transactions, laid out by the engine for a [`Transport`].
#[derive(Debug)]
pub struct Round<'a> {
    /// The item of each planner index.
    pub items: &'a [ItemId],
    /// The transactions, in the order to send them.
    pub txns: &'a [Txn],
    /// The planner index of every key of every transaction.
    pub keys: &'a [usize],
    /// Per key: set by the transport when the server returned it, or in
    /// a write round when the server replied to its op at all.
    pub answered: &'a mut [bool],
    /// Per transaction: set by the transport when it failed to go out or
    /// to come back whole.
    pub failed: &'a mut [bool],
}

/// What a [`Transport::store`] round does with its keys: the two rounds
/// of a [`crate::WriteEngine`] batch, and the read path's write-back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteStep {
    /// Delete each key at its server: an invalidation round.
    Invalidate,
    /// Store each key's value at its server, each op acknowledged.
    Write,
    /// Store each key's value at its server as a quiet `noreply` set:
    /// the read path's write-back of the items this request found,
    /// written where they missed (§III-C2). Nothing waits for it.
    WriteBack,
}

/// What carries a [`ReadEngine`]'s and a [`crate::WriteEngine`]'s
/// transactions: connections in `rnb-client`, simulated servers in
/// `rnb-sim`.
pub trait Transport {
    /// Run every transaction of `round`, marking each key its server
    /// returned and each transaction that failed.
    fn run_round(&mut self, round: Round<'_>);

    /// Run every transaction of a store round: `step` each key of it at
    /// its server. Mark each key whose server replied — a `delete` that
    /// found nothing replied too — and each transaction that failed. The
    /// default stores nothing and so acknowledges nothing.
    fn store(&mut self, _round: Round<'_>, _step: WriteStep) {}
}

/// What one request cost and found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReadCounts {
    /// Round-1 (planned) transactions.
    pub round1_txns: u64,
    /// Round-2 transactions, to distinguished copies.
    pub round2_txns: u64,
    /// Round-3 transactions: the survivor sweep, failure path only.
    pub round3_txns: u64,
    /// Items the plan assigned.
    pub planned_items: u64,
    /// Planned fetches that did not return their item.
    pub planned_misses: u64,
    /// Keys sent as hitchhikers.
    pub hitchhikers: u64,
    /// Hitchhikers returned.
    pub hitchhiker_hits: u64,
    /// Planned misses a hitchhiker had already found.
    pub rescued: u64,
    /// Planned items no server returned.
    pub unavailable: u64,
}

/// The RnB read state machine with its pooled buffers; one per client or
/// simulated cluster, since the hitchhiker gate remembers every server's
/// recent round-1 transactions across requests.
#[derive(Debug, Default)]
pub struct ReadEngine {
    hitchhiking: bool,
    scratch: PlanScratch,
    plan: FetchPlan,
    /// Server → its transaction in `plan`, sized by the fleet.
    txn_of_server: Vec<Option<usize>>,
    /// Per transaction of `plan`, the planner indices of its hitchhikers.
    extras: Vec<Vec<usize>>,
    round: RoundBuf,
    /// Per planner index: whether some server returned it.
    found: Vec<bool>,
    /// Planned fetches that missed: (planner index, the server asked).
    missed: Vec<(usize, ServerId)>,
    /// Round 2's fetches, then the write-backs: (server, planner index).
    by_server: Vec<(ServerId, usize)>,
    /// Planner indices left to round 3.
    third: Vec<usize>,
    /// Per server, the round-1 transactions left before its planned
    /// items stop carrying hitchhikers.
    countdown: Vec<u32>,
    /// Per planner index, a bit per candidate position whose server
    /// answered this request without the item (bit 0: distinguished).
    refused: Vec<u32>,
    /// Per server: whether a transaction to it failed in this request.
    failed: Vec<bool>,
}

impl ReadEngine {
    /// An engine that hitchhikes (§III-C2), or never; the default never
    /// does.
    ///
    /// ```
    /// let engine = rnb_core::ReadEngine::new(true);
    /// assert!(engine.scratch().items().is_empty());
    /// ```
    pub fn new(hitchhiking: bool) -> Self {
        ReadEngine {
            hitchhiking,
            ..ReadEngine::default()
        }
    }

    /// The planner state of the last request: [`PlanScratch::items`] is
    /// the index space of every [`Round`].
    pub fn scratch(&self) -> &PlanScratch {
        &self.scratch
    }

    /// The planned items of the last request that no server returned,
    /// each with the server it was planned on.
    ///
    /// ```
    /// use rnb_core::{Bundler, PlanTarget, ReadEngine, RnbConfig, Round, Transport};
    /// struct Empty;
    /// impl Transport for Empty { fn run_round(&mut self, _: Round<'_>) {} }
    /// let mut engine = ReadEngine::new(false);
    /// let bundler = Bundler::from_config(&RnbConfig::new(8, 2));
    /// engine.fetch(&bundler, &[4, 5], PlanTarget::Full, &mut Empty);
    /// assert_eq!(engine.unavailable().count(), 2);
    /// ```
    pub fn unavailable(&self) -> impl Iterator<Item = (ItemId, ServerId)> + '_ {
        let (items, found) = (self.scratch.items(), &self.found);
        let missed = self.missed.iter().filter(|&&(index, _)| !found[index]);
        missed.map(move |&(index, server)| (items[index], server))
    }

    /// Read `request` through `transport`: plan it towards `target`, run
    /// round 1 with its hitchhikers, fetch the misses no hitchhiker
    /// rescued from their distinguished copies, sweep the survivors where
    /// even that failed, and write what was recovered back where it
    /// missed. Within one request a server is asked for a key at most
    /// once unless its transaction failed (INVARIANTS.md "Ask once").
    ///
    /// ```
    /// use rnb_core::{Bundler, PlanTarget, ReadEngine, RnbConfig, Round, Transport};
    /// struct Resident;
    /// impl Transport for Resident { fn run_round(&mut self, r: Round<'_>) { r.answered.fill(true); } }
    /// let mut engine = ReadEngine::new(true);
    /// let bundler = Bundler::from_config(&RnbConfig::new(8, 2));
    /// let c = engine.fetch(&bundler, &[9, 4, 9], PlanTarget::Full, &mut Resident);
    /// assert_eq!((c.planned_items, c.planned_misses, c.unavailable), (2, 0, 0));
    /// assert_eq!(engine.scratch().items(), &[4, 9]);
    /// ```
    pub fn fetch<P: Placement>(
        &mut self,
        bundler: &Bundler<P>,
        request: &[ItemId],
        target: PlanTarget,
        transport: &mut impl Transport,
    ) -> ReadCounts {
        let plan = &mut self.plan;
        bundler.plan_into(&mut self.scratch, request, target, plan);
        let (scratch, round) = (&self.scratch, &mut self.round);
        let (items, found, refused) = (scratch.items(), &mut self.found, &mut self.refused);
        let (missed, by_server, failed) = (&mut self.missed, &mut self.by_server, &mut self.failed);
        found.clear();
        found.resize(items.len(), false);
        refused.clear();
        refused.resize(items.len(), 0);
        failed.clear();
        failed.resize(bundler.placement().num_servers(), false);
        missed.clear();
        let mut c = ReadCounts {
            round1_txns: plan.tpr() as u64,
            planned_items: plan.planned_items() as u64,
            ..ReadCounts::default()
        };
        // Every planned item is one of `items`.
        let index_of = |&item| scratch.index_of(item).unwrap_or_default();

        // Hitchhikers (§III-C2): a planned item rides along on every
        // other transaction of the plan that goes to one of its replica
        // servers, while its planned server has missed lately (see
        // `HITCHHIKE_WINDOW`). An item is planned once, its replicas are
        // distinct servers and a server has one transaction, so no item
        // reaches a transaction twice.
        let (extras, countdown) = (&mut self.extras, &mut self.countdown);
        countdown.resize(failed.len(), HITCHHIKE_WINDOW);
        extras.iter_mut().for_each(Vec::clear);
        extras.resize_with(extras.len().max(plan.tpr()), Vec::new);
        if self.hitchhiking && plan.tpr() > 1 {
            let txn_of_server = &mut self.txn_of_server;
            txn_of_server.clear();
            txn_of_server.resize(countdown.len(), None);
            for (ti, txn) in plan.transactions.iter().enumerate() {
                txn_of_server[txn.server as usize] = Some(ti);
            }
            for (ti, txn) in plan.transactions.iter().enumerate() {
                if countdown[txn.server as usize] == 0 {
                    continue;
                }
                for index in txn.items.iter().map(index_of) {
                    for &server in scratch.candidates(index) {
                        match txn_of_server[server as usize] {
                            Some(tj) if tj != ti => extras[tj].push(index),
                            _ => {}
                        }
                    }
                }
            }
        }

        // Round 1: the plan, planned keys first and hitchhikers after.
        round.clear();
        for (txn, extra) in plan.transactions.iter().zip(extras.iter()) {
            round.push(txn.server, txn.items.iter().map(index_of), extra);
            c.hitchhikers += extra.len() as u64;
        }
        round.run(items, transport);
        // A key answered without, planned or hitchhiker, is refused.
        for (t, txn) in round.txns.iter().enumerate() {
            let (ok, s) = (!round.failed[t], txn.server as usize);
            let mut clean = ok;
            for at in txn.from..txn.to {
                let (index, answered) = (round.keys[at], round.answered[at]);
                found[index] |= answered;
                if ok && !answered {
                    let candidates = scratch.candidates(index);
                    let at = candidates.iter().position(|&d| d == txn.server);
                    refused[index] |= at.map_or(0, candidate_bit);
                }
                if at - txn.from >= txn.planned {
                    c.hitchhiker_hits += u64::from(answered);
                } else if !(ok && answered) {
                    missed.push((index, txn.server));
                    clean = false;
                }
            }
            failed[s] |= !ok;
            let left = countdown[s].saturating_sub(1);
            countdown[s] = if clean { left } else { HITCHHIKE_WINDOW };
        }

        // Round 2 (§III-D): misses no hitchhiker rescued, one transaction
        // per distinguished server, "if we did not yet fetch their
        // distinguished copy" — unless that server already refused.
        c.planned_misses = missed.len() as u64;
        by_server.clear();
        for &(index, _) in missed.iter() {
            if found[index] {
                c.rescued += 1;
            } else if refused[index] & candidate_bit(0) != 0 {
                c.unavailable += 1;
            } else {
                let distinguished = scratch.candidates(index).first();
                by_server.push((distinguished.copied().unwrap_or_default(), index));
            }
        }
        round.group(by_server);
        c.round2_txns = round.txns.len() as u64;
        round.run(items, transport);
        let third = &mut self.third;
        third.clear();
        for (t, txn) in round.txns.iter().enumerate() {
            let keys = &round.keys[txn.from..txn.to];
            let answered = &round.answered[txn.from..txn.to];
            for (&index, &answered) in keys.iter().zip(answered) {
                found[index] |= answered;
            }
            if round.failed[t] {
                // Even the distinguished server is down: survivor sweep.
                failed[txn.server as usize] = true;
                third.extend_from_slice(keys);
            } else {
                c.unavailable += answered.iter().filter(|&&a| !a).count() as u64;
            }
        }

        // Round 3 (failure path only): per item, one replica at a time,
        // skipping every server that failed in this request or refused it.
        for &index in third.iter() {
            for (at, &server) in scratch.candidates(index).iter().enumerate() {
                if failed[server as usize] || refused[index] & candidate_bit(at) != 0 {
                    continue;
                }
                c.round3_txns += 1;
                round.clear();
                round.push(server, [index], &[]);
                round.run(items, transport);
                found[index] |= round.answered[0];
                if round.failed[0] {
                    failed[server as usize] = true;
                } else if found[index] {
                    break;
                }
            }
            c.unavailable += u64::from(!found[index]);
        }

        // Write-back (§III-C2): each recovered miss goes back to the
        // server it missed at.
        by_server.clear();
        let recovered = missed.iter().filter(|&&(index, _)| found[index]);
        by_server.extend(recovered.map(|&(index, server)| (server, index)));
        round.group(by_server);
        if !round.txns.is_empty() {
            transport.store(round.view(items), WriteStep::WriteBack);
        }
        c
    }
}

/// The bit of candidate position `at` in a [`ReadEngine`] refused mask.
fn candidate_bit(at: usize) -> u32 {
    1u32.checked_shl(at as u32).unwrap_or(0)
}

/// The pooled buffers behind every [`Round`], read or write.
#[derive(Debug, Default)]
pub(crate) struct RoundBuf {
    pub(crate) txns: Vec<Txn>,
    pub(crate) keys: Vec<usize>,
    pub(crate) answered: Vec<bool>,
    failed: Vec<bool>,
}

impl RoundBuf {
    fn clear(&mut self) {
        self.txns.clear();
        self.keys.clear();
    }

    /// Add a transaction to `server`: `planned`, then the hitchhikers.
    fn push(
        &mut self,
        server: ServerId,
        planned: impl IntoIterator<Item = usize>,
        extra: &[usize],
    ) {
        let from = self.keys.len();
        self.keys.extend(planned);
        let planned = self.keys.len() - from;
        self.keys.extend_from_slice(extra);
        let to = self.keys.len();
        self.txns.push(Txn {
            server,
            from,
            to,
            planned,
        });
    }

    /// Replace the round by one transaction per server of `by_server`,
    /// in (server, planner index) order.
    pub(crate) fn group(&mut self, by_server: &mut [(ServerId, usize)]) {
        by_server.sort_unstable();
        self.clear();
        for group in by_server.chunk_by(|a, b| a.0 == b.0) {
            self.push(group[0].0, group.iter().map(|&(_, index)| index), &[]);
        }
    }

    /// Hand the round to `transport`, if it has any transaction.
    fn run(&mut self, items: &[ItemId], transport: &mut impl Transport) {
        if !self.txns.is_empty() {
            transport.run_round(self.view(items));
        }
    }

    pub(crate) fn view<'a>(&'a mut self, items: &'a [ItemId]) -> Round<'a> {
        self.answered.clear();
        self.answered.resize(self.keys.len(), false);
        self.failed.clear();
        self.failed.resize(self.txns.len(), false);
        Round {
            items,
            txns: &self.txns,
            keys: &self.keys,
            answered: &mut self.answered,
            failed: &mut self.failed,
        }
    }
}
