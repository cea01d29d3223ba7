//! Proof that a steady-state write batch allocates nothing: after one
//! warm-up batch per shape, [`rnb_core::WriteEngine`] lays out and runs
//! both rounds without touching the allocator, for both write policies,
//! including smaller follow-up batches (pools shrink logically, never
//! physically) and the failure path that drops blocked entries.
//!
//! Kept to a single `#[test]` so no sibling test thread muddies the
//! warm-up ordering.

use alloc_counter::{count_alloc, AllocCounterSystem};
use rnb_core::{
    PlacementStrategy, RnbConfig, Round, ServerId, Transport, WriteEngine, WritePlanner,
    WritePolicy, WriteStep,
};

#[global_allocator]
static ALLOC: AllocCounterSystem = AllocCounterSystem;

/// Acknowledges every op except those sent to `dead`; counts the ops.
struct Acks {
    dead: Option<ServerId>,
    ops: usize,
}

impl Transport for Acks {
    fn run_round(&mut self, _: Round<'_>) {}

    fn store(&mut self, round: Round<'_>, _: WriteStep) {
        for txn in round.txns {
            let ok = Some(txn.server) != self.dead;
            round.answered[txn.from..txn.to].fill(ok);
            self.ops += txn.to - txn.from;
        }
    }
}

#[test]
fn steady_state_write_batches_do_not_allocate() {
    let config = RnbConfig::new(16, 4);
    let batch: Vec<u64> = (0..200u64).map(|i| i * 7 % 331).collect();
    for policy in [WritePolicy::WriteAll, WritePolicy::InvalidateThenWrite] {
        let writer = WritePlanner::new(PlacementStrategy::from_config(&config), policy);
        let mut engine = WriteEngine::new();
        for dead in [None, Some(5)] {
            let mut acks = Acks { dead, ops: 0 };
            // Warm-up: the first batch grows every pool to this shape.
            engine.store(&writer, batch.iter().copied(), &mut acks);
            for round in 0..20 {
                acks.ops = 0;
                let ((allocs, reallocs, deallocs), c) =
                    count_alloc(|| engine.store(&writer, batch.iter().copied(), &mut acks));
                assert_eq!(
                    (allocs, reallocs, deallocs),
                    (0, 0, 0),
                    "round {round} under {policy:?}, dead {dead:?}, touched the allocator"
                );
                // A blocked entry's set never goes out.
                let blocked = acks.ops < batch.len() * 4;
                assert_eq!(blocked, dead.is_some() && policy != WritePolicy::WriteAll);
                let plan = engine
                    .plan_batch(&writer, batch.iter().copied())
                    .total_txns();
                assert!(c.invalidation_txns + c.write_txns <= plan as u64);
            }
            assert!(acks.ops > 0);
        }

        // A smaller batch after warm-up also stays allocation-free.
        let mut acks = Acks { dead: None, ops: 0 };
        let ((a, r, d), c) = count_alloc(|| engine.store(&writer, 0..10u64, &mut acks));
        assert_eq!(acks.ops, 10 * 4);
        assert!(c.write_txns > 0);
        assert_eq!((a, r, d), (0, 0, 0), "shrunken batch allocated");
        let ((a, r, d), txns) = count_alloc(|| engine.plan_batch(&writer, 0..10u64).total_txns());
        assert!(txns > 0);
        assert_eq!((a, r, d), (0, 0, 0), "shrunken layout allocated");
    }
}
