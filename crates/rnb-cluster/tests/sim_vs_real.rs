//! Differential test: the same (topology, workload, seed) cell run
//! through `rnb-sim` and through a real process fleet must cost the same
//! transactions, round by round.
//!
//! Both sides run `rnb_core::ReadEngine` over the same planner and
//! placement config, with hitchhiking on (the client's default), and
//! both hold every replica of the universe, so neither misses. Only the
//! transports differ — simulated servers on one side, TCP on the other —
//! so any difference in transactions, planned misses or hitchhikers is
//! drift between the two.

use rnb_client::{RnbClient, RnbClientConfig};
use rnb_cluster::{Cluster, NodeConfig};
use rnb_sim::{run_experiment, ExperimentConfig, SimConfig};
use rnb_workload::{RequestStream, UniformRequests};

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
