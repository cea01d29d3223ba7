//! Differential test: the same (topology, workload, seed) cell run
//! through `rnb-sim` and through a real process fleet must cost the same
//! transactions, round by round.
//!
//! Both sides run `rnb_core::ReadEngine` and `rnb_core::WriteEngine`
//! over the same planner and placement config, with hitchhiking on (the
//! client's default), and both start holding every replica of the
//! universe. Only the transports differ — simulated servers on one side,
//! TCP on the other — so any difference in transactions, planned misses
//! or hitchhikers is drift between the two.

use rnb_client::{RnbClient, RnbClientConfig};
use rnb_cluster::{Cluster, NodeConfig};
use rnb_core::WritePolicy;
use rnb_sim::{run_experiment, ExperimentConfig, SimCluster, SimConfig};
use rnb_workload::{Op, ReadWriteMix, RequestStream, UniformRequests};

const SERVERS: usize = 4;
const REPLICATION: usize = 2;
const UNIVERSE: u64 = 512;
const REQUEST_SIZE: usize = 8;
const SEED: u64 = 0xD1FF;
const REQUESTS: usize = 256;

#[test]
fn sim_and_real_cluster_agree_on_tpr() {
    // Simulator side.
    let sim = SimConfig::basic(SERVERS, REPLICATION).with_hitchhiking(true);
    let rnb = sim.client_config();
    let mut stream = UniformRequests::new(UNIVERSE, REQUEST_SIZE, SEED);
    let metrics = run_experiment(
        &ExperimentConfig::new(sim, 0, REQUESTS),
        UNIVERSE as usize,
        &mut stream,
    );
    assert_eq!(metrics.planned_misses, 0, "unlimited sim memory");

    // Real side: same placement config (server count, hash, seed), same
    // request stream reconstructed from the same seed.
    let mut cluster = Cluster::launch(SERVERS, NodeConfig::default()).expect("fleet up");
    let mut config = RnbClientConfig::new(REPLICATION);
    config.rnb = rnb;
    let mut client = RnbClient::connect(&cluster.addrs(), config).expect("client connects");
    for item in 0..UNIVERSE {
        client.set(item, b"payload").expect("populate");
    }
    let before = client.stats();
    let mut stream = UniformRequests::new(UNIVERSE, REQUEST_SIZE, SEED);
    for _ in 0..REQUESTS {
        client.multi_get(&stream.next_request()).expect("multi_get");
    }
    let d = client.stats().since(&before);
    // Close our connections before the graceful shutdown: a drain waits
    // (bounded) for clients to hang up.
    drop(client);
    cluster.shutdown_all().expect("graceful shutdown");

    assert_eq!(d.requests, REQUESTS as u64);
    assert_eq!(d.unavailable_items, 0, "fully populated fleet");
    assert_eq!(d.failed_txns, 0, "healthy fleet");
    assert_eq!(
        (d.round1_txns, d.round2_txns, d.round3_txns),
        (metrics.round1_txns, metrics.round2_txns, 0),
        "sim/real transactions per round"
    );
    assert_eq!(d.planned_misses, metrics.planned_misses);
    // A fresh engine is insured, so both sides sent hitchhikers — the
    // same ones — until every server's gate closed.
    assert!(d.hitchhikers > 0);
    assert_eq!(d.hitchhikers, metrics.hitchhiker_probes);
    assert_eq!(d.tpr(), metrics.tpr());
}

#[test]
fn sim_and_real_cluster_agree_on_mixed_writes() {
    // 30 % of ops are 16-item invalidate-then-write bursts: they delete
    // replicas, so later reads miss, fall back to the distinguished
    // copies and write back — the write engine and the miss path, on
    // both transports.
    let policy = WritePolicy::InvalidateThenWrite;
    let sim_config = SimConfig::basic(SERVERS, REPLICATION).with_hitchhiking(true);
    let rnb = sim_config.client_config();
    let reads = UniformRequests::new(UNIVERSE, REQUEST_SIZE, SEED);
    let ops = ReadWriteMix::new(reads, UNIVERSE, 0.3, SEED ^ 1)
        .with_write_burst(16)
        .take_ops(REQUESTS);
    let mut sim = SimCluster::new(sim_config, UNIVERSE as usize);
    for op in &ops {
        match op {
            Op::Read(request) => {
                sim.execute(request);
            }
            Op::Write(item) => {
                sim.execute_write_batch(&[*item], policy);
            }
            Op::WriteBurst(items) => {
                sim.execute_write_batch(items, policy);
            }
        }
    }
    let m = sim.metrics();
    assert!(m.writes > 0 && m.round2_txns > 0, "{m:?}");

    // Real side: every replica stored first, as the simulator starts.
    let mut cluster = Cluster::launch(SERVERS, NodeConfig::default()).expect("fleet up");
    let mut config = RnbClientConfig::new(REPLICATION);
    config.rnb = rnb;
    let mut loader = RnbClient::connect(&cluster.addrs(), config.clone()).expect("connects");
    let universe: Vec<(u64, &[u8])> = (0..UNIVERSE).map(|item| (item, &b"payload"[..])).collect();
    loader.multi_set(&universe).expect("populate");
    drop(loader);
    let config = config.with_write_policy(policy);
    let mut client = RnbClient::connect(&cluster.addrs(), config).expect("client connects");
    for op in &ops {
        match op {
            Op::Read(request) => drop(client.multi_get(request).expect("multi_get")),
            Op::Write(item) => client.set(*item, b"fresh").expect("set"),
            Op::WriteBurst(items) => {
                let entries: Vec<(u64, &[u8])> =
                    items.iter().map(|&i| (i, &b"fresh"[..])).collect();
                client.multi_set(&entries).expect("multi_set");
            }
        }
    }
    let d = client.stats();
    drop(client);
    cluster.shutdown_all().expect("graceful shutdown");

    assert_eq!((d.requests, d.writes), (m.requests, m.writes));
    assert_eq!(
        (d.unavailable_items, d.failed_txns),
        (0, 0),
        "healthy fleet"
    );
    assert_eq!(d.write_txns, m.write_txns, "sim/real write transactions");
    assert_eq!(
        (d.round1_txns, d.round2_txns, d.round3_txns),
        (m.round1_txns, m.round2_txns, 0),
        "sim/real transactions per round"
    );
    assert_eq!(d.planned_misses, m.planned_misses);
    assert_eq!(d.hitchhikers, m.hitchhiker_probes);
}
