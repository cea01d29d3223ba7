//! Scenario cells: (topology, workload, event) driven against a real
//! process fleet, with recovery and miss-rate metrics.
//!
//! A scenario runs a fixed number of *rounds*. Each round drives a batch
//! of multi-get requests from a seeded workload stream through one
//! [`RnbClient`] and snapshots [`ClientStats`] deltas, so every counter
//! (fallback rounds, failed transactions, reconnects, unavailable
//! items) is attributable to exactly one round. Events — node kill and
//! restart, elastic scale-out/scale-in, hot-key storms, flash crowds —
//! fire at declared round boundaries. The harness then derives the
//! three regression-gated numbers the Harmonia framing asks for
//! (PAPERS.md): *miss rate during the transition*, *recovery time*
//! (rounds and wall milliseconds), and *reconnect count*, and checks
//! them against per-scenario [`Bounds`].
//!
//! Synchronization is entirely readiness-based (process handshakes and
//! blocking reads; see [`crate::stored`]); the only wall-clock use is
//! the recovery stopwatch, which is why `crates/rnb-cluster/` is on the
//! xtask R2 time allowlist.

use crate::cluster::Cluster;
use crate::stored::NodeConfig;
use rnb_client::{ClientStats, RnbClient, RnbClientConfig};
use rnb_workload::{RequestStream, ScriptedRequests, UniformRequests, ZipfRequests};
use std::io;
use std::time::Instant;

/// Fleet shape for a scenario.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Number of `rnb-stored` processes at launch.
    pub nodes: usize,
    /// Declared replication level k.
    pub replication: usize,
    /// Per-node memory budget (MB).
    pub mem_mb: usize,
}

/// Read workload for a scenario (uniform multi-gets; events may splice
/// in skewed phases).
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Item universe size; items `0..universe` are pre-populated.
    pub universe: u64,
    /// Items per multi-get request.
    pub request_size: usize,
    /// Requests driven per round.
    pub requests_per_round: usize,
    /// Total rounds in the scenario.
    pub rounds: usize,
    /// Workload RNG seed (placement seed is the deployment default).
    pub seed: u64,
    /// Fraction of driven ops that are `multi_set` write bursts (of
    /// `request_size` items) instead of multi-gets. Writes are spread
    /// evenly among the reads of a round; write failures during an
    /// event (e.g. a killed distinguished server) are data — they land
    /// in `failed_txns` — not harness errors.
    pub write_fraction: f64,
}

/// The mid-run event a scenario injects.
#[derive(Debug, Clone)]
pub enum Event {
    /// No event: pure steady-state baseline.
    None,
    /// SIGKILL `node` at the start of round `kill_at`; restart it (on a
    /// fresh port, repointing the client) and repair at the start of
    /// round `restart_at`.
    KillRestart {
        /// Server slot to crash.
        node: usize,
        /// Round at whose start the kill fires.
        kill_at: usize,
        /// Round at whose start the restart + repair fires.
        restart_at: usize,
    },
    /// Append a node at the start of round `grow_at` (repair one round
    /// later), then gracefully retire it at the start of round
    /// `shrink_at` (repair one round later). The un-repaired round after
    /// each membership change measures the honest transition miss rate.
    Elastic {
        /// Round at whose start the fleet grows by one node.
        grow_at: usize,
        /// Round at whose start the fleet shrinks back.
        shrink_at: usize,
    },
    /// Replace the uniform stream with a Zipf-skewed stream over the
    /// same universe for `storm_rounds` rounds starting at `at`.
    HotKeyStorm {
        /// First storm round.
        at: usize,
        /// Storm duration in rounds.
        storm_rounds: usize,
        /// Zipf exponent (higher = hotter head).
        exponent: f64,
    },
    /// Multiply the per-round request count by `multiplier` for
    /// `crowd_rounds` rounds starting at `at`.
    FlashCrowd {
        /// First crowd round.
        at: usize,
        /// Crowd duration in rounds.
        crowd_rounds: usize,
        /// Request-rate multiplier during the crowd.
        multiplier: usize,
    },
}

impl Event {
    /// Round at whose start the first disturbance fires (`None` for the
    /// baseline event).
    fn first_action_round(&self) -> Option<usize> {
        match *self {
            Event::None => None,
            Event::KillRestart { kill_at, .. } => Some(kill_at),
            Event::Elastic { grow_at, .. } => Some(grow_at),
            Event::HotKeyStorm { at, .. } => Some(at),
            Event::FlashCrowd { at, .. } => Some(at),
        }
    }

    /// Round at whose start the system is left alone to recover.
    fn last_action_round(&self) -> Option<usize> {
        match *self {
            Event::None => None,
            Event::KillRestart { restart_at, .. } => Some(restart_at),
            Event::Elastic { shrink_at, .. } => Some(shrink_at + 1),
            Event::HotKeyStorm {
                at, storm_rounds, ..
            } => Some(at + storm_rounds),
            Event::FlashCrowd {
                at, crowd_rounds, ..
            } => Some(at + crowd_rounds),
        }
    }

    /// Human-readable event description for reports.
    pub fn describe(&self) -> String {
        match *self {
            Event::None => "none".into(),
            Event::KillRestart {
                node,
                kill_at,
                restart_at,
            } => format!("kill node {node} @r{kill_at}, restart+repair @r{restart_at}"),
            Event::Elastic { grow_at, shrink_at } => {
                format!("scale-out @r{grow_at}, scale-in @r{shrink_at} (repair 1 round after each)")
            }
            Event::HotKeyStorm {
                at,
                storm_rounds,
                exponent,
            } => format!("zipf({exponent}) storm @r{at} for {storm_rounds} rounds"),
            Event::FlashCrowd {
                at,
                crowd_rounds,
                multiplier,
            } => format!("{multiplier}x flash crowd @r{at} for {crowd_rounds} rounds"),
        }
    }
}

/// Regression bounds a scenario's metrics are checked against.
#[derive(Debug, Clone)]
pub struct Bounds {
    /// Max rounds from the last event action to confirmed recovery.
    pub max_recovery_rounds: usize,
    /// Max per-round unavailable-item rate while the event is in flight.
    pub max_transition_miss_rate: f64,
    /// Max per-round unavailable-item rate after recovery.
    pub max_steady_miss_rate: f64,
    /// Max transactions-per-request over the whole run.
    pub max_tpr: f64,
    /// Min reconnects the client must have performed (kill scenarios
    /// assert the lazy-reconnect path actually fired; 0 elsewhere).
    pub min_reconnects: u64,
}

/// One declared scenario cell.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Unique scenario name (also the artifact file stem).
    pub name: &'static str,
    /// Fleet shape.
    pub topology: Topology,
    /// Request workload.
    pub workload: WorkloadSpec,
    /// Injected event.
    pub event: Event,
    /// Pass/fail bounds.
    pub bounds: Bounds,
}

/// Per-round observed counters (a [`ClientStats`] delta plus derived
/// rates).
#[derive(Debug, Clone)]
pub struct RoundStats {
    /// Round index (0-based).
    pub round: usize,
    /// Post-hoc phase label: `baseline`, `transition`, or `steady`.
    pub phase: &'static str,
    /// Requests driven this round.
    pub requests: u64,
    /// Item fetches requested this round.
    pub items: u64,
    /// Round-1 transactions.
    pub round1_txns: u64,
    /// Round-2 (distinguished fallback) transactions.
    pub round2_txns: u64,
    /// Round-3 (survivor sweep) transactions.
    pub round3_txns: u64,
    /// Transactions that failed with I/O errors.
    pub failed_txns: u64,
    /// Reconnects performed.
    pub reconnects: u64,
    /// Round-1 planned misses.
    pub planned_misses: u64,
    /// Keys sent as hitchhikers.
    pub hitchhikers: u64,
    /// Write-backs sent: `noreply` sets, counted when they go out on a
    /// live connection, never acknowledged.
    pub writebacks: u64,
    /// Write-back bursts (one per server a request wrote back to).
    pub writeback_txns: u64,
    /// Items written via `multi_set` bursts this round.
    pub writes: u64,
    /// Write-side transactions (one per pipelined burst per touched
    /// server) this round.
    pub write_txns: u64,
    /// Items no server could supply.
    pub unavailable: u64,
    /// `unavailable / items`.
    pub miss_rate: f64,
    /// Transactions per request this round.
    pub tpr: f64,
}

/// Derived scenario metrics (the regression-gated numbers).
#[derive(Debug, Clone)]
pub struct ScenarioMetrics {
    /// Rounds from the last event action to the first of two
    /// consecutive clean rounds (`None` = never recovered).
    pub recovery_rounds: Option<usize>,
    /// Wall milliseconds from the last event action to the end of the
    /// first clean round.
    pub recovery_ms: Option<f64>,
    /// Max per-round miss rate during the transition window.
    pub transition_miss_rate: f64,
    /// Max per-round miss rate after recovery.
    pub steady_miss_rate: f64,
    /// Transactions per request over the whole run.
    pub overall_tpr: f64,
    /// Total reconnects over the whole run.
    pub reconnects: u64,
    /// Total transactions that failed with I/O errors.
    pub failed_txns: u64,
    /// Total round-3 survivor-sweep transactions.
    pub round3_txns: u64,
}

/// The full result of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// The scenario that produced this report.
    pub scenario: Scenario,
    /// Per-round observations.
    pub rounds: Vec<RoundStats>,
    /// Derived metrics.
    pub metrics: ScenarioMetrics,
    /// Bound violations (empty = passed).
    pub violations: Vec<String>,
}

impl ScenarioReport {
    /// Whether every bound held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Deterministic value for a populated item.
fn value_for(item: u64) -> Vec<u8> {
    format!("val-{item:08}").into_bytes()
}

/// Write every universe item through the client (initial population and
/// post-membership-change repair: a real deployment would migrate, the
/// harness re-installs).
fn repopulate(client: &mut RnbClient, universe: u64) -> io::Result<()> {
    for item in 0..universe {
        client.set(item, &value_for(item))?;
    }
    Ok(())
}

/// Build the scenario's request stream (events may splice phases).
fn build_stream(s: &Scenario) -> Box<dyn RequestStream> {
    let w = &s.workload;
    let base = || UniformRequests::new(w.universe, w.request_size, w.seed);
    match s.event {
        Event::HotKeyStorm {
            at,
            storm_rounds,
            exponent,
        } => {
            let rpr = w.requests_per_round;
            Box::new(
                ScriptedRequests::new()
                    .phase(at * rpr, base())
                    .phase(
                        storm_rounds * rpr,
                        ZipfRequests::new(w.universe, w.request_size, exponent, w.seed ^ 0x5a5a),
                    )
                    .phase(0, base()),
            )
        }
        _ => Box::new(base()),
    }
}

/// Run one scenario against a real fleet. Every node is a separate
/// `rnb-stored` process; the call blocks until all rounds complete and
/// the fleet is shut down.
pub fn run_scenario(s: &Scenario) -> io::Result<ScenarioReport> {
    assert!(
        s.topology.nodes >= 2,
        "scenarios need at least two nodes for replication to mean anything"
    );
    let template = NodeConfig {
        mem_mb: s.topology.mem_mb,
        ..NodeConfig::default()
    };
    let mut cluster = Cluster::launch(s.topology.nodes, template)?;
    let connect = |cluster: &Cluster| -> io::Result<RnbClient> {
        RnbClient::connect(
            &cluster.addrs(),
            RnbClientConfig::new(s.topology.replication),
        )
    };
    let mut client = Some(connect(&cluster)?);
    if let Some(c) = client.as_mut() {
        repopulate(c, s.workload.universe)?;
    }

    let mut stream = build_stream(s);
    let w = s.workload.clone();
    let mut rounds: Vec<RoundStats> = Vec::with_capacity(w.rounds);
    let mut totals = ClientStats::default();
    let mut prev = client.as_ref().map(|c| c.stats()).unwrap_or_default();

    // Recovery bookkeeping: the stopwatch starts at the last event
    // action; recovery is confirmed by two consecutive clean rounds.
    let last_action = s.event.last_action_round();
    let mut stopwatch: Option<Instant> = None;
    let mut clean_streak = 0usize;
    let mut pending: Option<(usize, f64)> = None; // (round, ms at round end)
    let mut recovered: Option<(usize, f64)> = None;
    // Deterministic write cursor: mixed-write cells cycle the universe
    // so repeated bursts re-store `value_for(item)` and reads stay
    // consistent with the populated values.
    let mut next_write_item = 0u64;
    let mut entries: Vec<(u64, Vec<u8>)> = Vec::with_capacity(w.request_size);

    for round in 0..w.rounds {
        // --- apply event actions scheduled at this round boundary ---
        match s.event {
            Event::KillRestart {
                node,
                kill_at,
                restart_at,
            } => {
                if round == kill_at {
                    cluster.kill(node)?;
                }
                if round == restart_at {
                    let addr = cluster.restart(node)?;
                    if let Some(c) = client.as_mut() {
                        c.set_server_addr(node, addr);
                        // Repair: the restarted node is empty; re-install
                        // so its planned reads hit again.
                        repopulate(c, w.universe)?;
                    }
                    stopwatch = Some(Instant::now());
                }
            }
            Event::Elastic { grow_at, shrink_at } => {
                if round == grow_at {
                    cluster.add_node()?;
                    // Membership changed: placement is a function of the
                    // server count, so the client is rebuilt. Per-round
                    // deltas already flowed into the running totals.
                    client = Some(connect(&cluster)?);
                    prev = ClientStats::default();
                } else if round == grow_at + 1 || round == shrink_at + 1 {
                    if let Some(c) = client.as_mut() {
                        repopulate(c, w.universe)?;
                    }
                    if round == shrink_at + 1 {
                        stopwatch = Some(Instant::now());
                    }
                } else if round == shrink_at {
                    // Drop the client first: a graceful shutdown drains,
                    // and it should not have to wait out our own open
                    // connections.
                    drop(client.take());
                    cluster.remove_last()?;
                    client = Some(connect(&cluster)?);
                    prev = ClientStats::default();
                }
            }
            Event::HotKeyStorm {
                at, storm_rounds, ..
            } => {
                if round == at + storm_rounds {
                    stopwatch = Some(Instant::now());
                }
            }
            Event::FlashCrowd {
                at, crowd_rounds, ..
            } => {
                if round == at + crowd_rounds {
                    stopwatch = Some(Instant::now());
                }
            }
            Event::None => {}
        }
        if stopwatch.is_none() && last_action == Some(round) {
            // Events whose last action carries no explicit work (e.g. a
            // kill-only cell) still start the stopwatch here.
            stopwatch = Some(Instant::now());
        }

        // --- drive the round ---
        let multiplier = match s.event {
            Event::FlashCrowd {
                at,
                crowd_rounds,
                multiplier,
            } if round >= at && round < at + crowd_rounds => multiplier,
            _ => 1,
        };
        let c = client
            .as_mut()
            .ok_or_else(|| io::Error::other("client missing outside a membership change"))?;
        let mut items_requested = 0u64;
        let ops = w.requests_per_round * multiplier;
        let write_ops = (ops as f64 * w.write_fraction).round() as usize;
        for i in 0..ops {
            // Bresenham spread: `write_ops` of the round's `ops` slots
            // are multi_set bursts, interleaved evenly among the reads.
            let is_write = write_ops > 0 && ((i + 1) * write_ops) / ops > (i * write_ops) / ops;
            if is_write {
                entries.clear();
                for _ in 0..w.request_size {
                    let item = next_write_item % w.universe;
                    next_write_item += 1;
                    entries.push((item, value_for(item)));
                }
                // Degraded writes (e.g. a killed distinguished server
                // mid-burst) are data, not an error: the failure is
                // already recorded in failed_txns.
                let _ = c.multi_set(&entries);
            } else {
                let request = stream.next_request();
                items_requested += request.len() as u64;
                // Degraded service (failed transactions, misses) is data,
                // not an error: multi_get only fails on client-side bugs.
                let _values = c.multi_get(&request)?;
            }
        }
        let now = c.stats();
        let delta = now.since(&prev);
        prev = now;
        totals = add(totals, &delta);

        let txns = delta.round1_txns + delta.round2_txns + delta.round3_txns;
        rounds.push(RoundStats {
            round,
            phase: "baseline", // relabeled post-hoc below
            requests: delta.requests,
            items: items_requested,
            round1_txns: delta.round1_txns,
            round2_txns: delta.round2_txns,
            round3_txns: delta.round3_txns,
            failed_txns: delta.failed_txns,
            reconnects: delta.reconnects,
            planned_misses: delta.planned_misses,
            hitchhikers: delta.hitchhikers,
            writebacks: delta.writebacks,
            writeback_txns: delta.writeback_txns,
            writes: delta.writes,
            write_txns: delta.write_txns,
            unavailable: delta.unavailable_items,
            miss_rate: if items_requested == 0 {
                0.0
            } else {
                delta.unavailable_items as f64 / items_requested as f64
            },
            tpr: if delta.requests == 0 {
                0.0
            } else {
                txns as f64 / delta.requests as f64
            },
        });

        // --- recovery detection ---
        if let (Some(last), Some(started)) = (last_action, stopwatch.as_ref()) {
            if round >= last && recovered.is_none() {
                let clean = delta.unavailable_items == 0 && delta.failed_txns == 0;
                if clean {
                    clean_streak += 1;
                    if clean_streak == 1 {
                        pending = Some((round, started.elapsed().as_secs_f64() * 1e3));
                    }
                    if clean_streak >= 2 {
                        recovered = pending.take();
                    }
                } else {
                    clean_streak = 0;
                    pending = None;
                }
            }
        }
    }

    drop(client);
    cluster.shutdown_all()?;

    // --- post-hoc phase labels and aggregate metrics ---
    let first_action = s.event.first_action_round();
    let steady_from = recovered.map(|(r, _)| r);
    for r in rounds.iter_mut() {
        r.phase = match (first_action, steady_from) {
            (None, _) => "baseline",
            (Some(f), _) if r.round < f => "baseline",
            (_, Some(sf)) if r.round >= sf => "steady",
            _ => "transition",
        };
    }
    let phase_max_miss = |phase: &str| {
        rounds
            .iter()
            .filter(|r| r.phase == phase)
            .map(|r| r.miss_rate)
            .fold(0.0f64, f64::max)
    };
    let metrics = ScenarioMetrics {
        recovery_rounds: match (recovered, last_action) {
            (Some((r, _)), Some(last)) => Some(r - last + 1),
            _ => None,
        },
        recovery_ms: recovered.map(|(_, ms)| ms),
        transition_miss_rate: phase_max_miss("transition"),
        steady_miss_rate: phase_max_miss("steady"),
        overall_tpr: totals.tpr(),
        reconnects: totals.reconnects,
        failed_txns: totals.failed_txns,
        round3_txns: totals.round3_txns,
    };

    // --- bounds ---
    let b = &s.bounds;
    let mut violations = Vec::new();
    if !matches!(s.event, Event::None) {
        match metrics.recovery_rounds {
            None => violations.push("never recovered (no two consecutive clean rounds)".into()),
            Some(rr) if rr > b.max_recovery_rounds => violations.push(format!(
                "recovery took {rr} rounds (bound {})",
                b.max_recovery_rounds
            )),
            Some(_) => {}
        }
    }
    if metrics.transition_miss_rate > b.max_transition_miss_rate {
        violations.push(format!(
            "transition miss rate {:.4} exceeds bound {:.4}",
            metrics.transition_miss_rate, b.max_transition_miss_rate
        ));
    }
    if metrics.steady_miss_rate > b.max_steady_miss_rate {
        violations.push(format!(
            "steady miss rate {:.4} exceeds bound {:.4}",
            metrics.steady_miss_rate, b.max_steady_miss_rate
        ));
    }
    if metrics.overall_tpr > b.max_tpr {
        violations.push(format!(
            "overall TPR {:.3} exceeds bound {:.3}",
            metrics.overall_tpr, b.max_tpr
        ));
    }
    if metrics.reconnects < b.min_reconnects {
        violations.push(format!(
            "only {} reconnects observed (expected >= {})",
            metrics.reconnects, b.min_reconnects
        ));
    }

    Ok(ScenarioReport {
        scenario: s.clone(),
        rounds,
        metrics,
        violations,
    })
}

/// Field-wise sum of two counter snapshots (totals across client
/// rebuilds, where the cumulative counters reset).
fn add(a: ClientStats, d: &ClientStats) -> ClientStats {
    ClientStats {
        requests: a.requests + d.requests,
        round1_txns: a.round1_txns + d.round1_txns,
        round2_txns: a.round2_txns + d.round2_txns,
        round3_txns: a.round3_txns + d.round3_txns,
        planned_misses: a.planned_misses + d.planned_misses,
        rescued_by_hitchhikers: a.rescued_by_hitchhikers + d.rescued_by_hitchhikers,
        hitchhikers: a.hitchhikers + d.hitchhikers,
        writebacks: a.writebacks + d.writebacks,
        writeback_txns: a.writeback_txns + d.writeback_txns,
        unavailable_items: a.unavailable_items + d.unavailable_items,
        writes: a.writes + d.writes,
        write_txns: a.write_txns + d.write_txns,
        cas_retries: a.cas_retries + d.cas_retries,
        failed_txns: a.failed_txns + d.failed_txns,
        reconnects: a.reconnects + d.reconnects,
    }
}

/// The declared scenario grid. `quick` shrinks universes and round
/// counts for CI smoke runs; the cell structure is identical.
pub fn scenario_grid(quick: bool) -> Vec<Scenario> {
    let (universe, rpr) = if quick { (384, 32) } else { (2048, 128) };
    let topology = Topology {
        nodes: 3,
        replication: 2,
        mem_mb: 64,
    };
    let workload = |rounds: usize, seed: u64| WorkloadSpec {
        universe,
        request_size: 8,
        requests_per_round: rpr,
        rounds,
        seed,
        write_fraction: 0.0,
    };
    vec![
        Scenario {
            name: "kill_restart",
            topology: topology.clone(),
            workload: workload(8, 0xA11CE),
            event: Event::KillRestart {
                node: 1,
                kill_at: 2,
                restart_at: 4,
            },
            bounds: Bounds {
                max_recovery_rounds: 3,
                // k=2 means a single crash loses no items: the survivor
                // sweep keeps serving, so even mid-transition the miss
                // rate must stay (near) zero. This IS the paper's
                // availability claim, regression-gated.
                max_transition_miss_rate: 0.01,
                max_steady_miss_rate: 0.001,
                max_tpr: 5.0,
                min_reconnects: 1,
            },
        },
        Scenario {
            name: "elastic_scale",
            topology: topology.clone(),
            workload: workload(10, 0xB0B),
            event: Event::Elastic {
                grow_at: 2,
                shrink_at: 6,
            },
            bounds: Bounds {
                max_recovery_rounds: 3,
                // The un-repaired round after a membership change honestly
                // measures RCH remapping: a minority of items move, so
                // misses spike but must stay a minority.
                max_transition_miss_rate: 0.6,
                max_steady_miss_rate: 0.001,
                max_tpr: 5.0,
                min_reconnects: 0,
            },
        },
        Scenario {
            name: "hot_key_storm",
            topology: topology.clone(),
            workload: workload(8, 0xC0FFEE),
            event: Event::HotKeyStorm {
                at: 2,
                storm_rounds: 3,
                exponent: 1.2,
            },
            bounds: Bounds {
                max_recovery_rounds: 2,
                max_transition_miss_rate: 0.01,
                max_steady_miss_rate: 0.001,
                max_tpr: 5.0,
                min_reconnects: 0,
            },
        },
        Scenario {
            name: "mixed_write",
            topology: topology.clone(),
            workload: WorkloadSpec {
                write_fraction: 0.3,
                ..workload(8, 0xD00D)
            },
            event: Event::KillRestart {
                node: 1,
                kill_at: 2,
                restart_at: 4,
            },
            bounds: Bounds {
                max_recovery_rounds: 3,
                // Reads keep serving through the crash (k=2), and write
                // failures land in failed_txns rather than losing items:
                // the bundled write path must not turn a dead server
                // into read unavailability.
                max_transition_miss_rate: 0.01,
                max_steady_miss_rate: 0.001,
                max_tpr: 5.0,
                min_reconnects: 1,
            },
        },
        Scenario {
            name: "flash_crowd",
            topology,
            workload: workload(8, 0xF1A54),
            event: Event::FlashCrowd {
                at: 2,
                crowd_rounds: 2,
                multiplier: 3,
            },
            bounds: Bounds {
                max_recovery_rounds: 2,
                max_transition_miss_rate: 0.01,
                max_steady_miss_rate: 0.001,
                max_tpr: 5.0,
                min_reconnects: 0,
            },
        },
    ]
}
