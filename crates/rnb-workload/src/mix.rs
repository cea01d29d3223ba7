//! Read/write operation mixes, for the §III-G "activity is not read
//! mostly" boundary experiments (and mirroring the Appendix benchmark's
//! one-set-per-1000-gets configuration).

use crate::{Request, RequestStream};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One storage-tier operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// A multi-item read request.
    Read(Request),
    /// A single-item write.
    Write(u64),
    /// A multi-item write burst (the bundled write path's unit of work;
    /// only emitted when [`ReadWriteMix::with_write_burst`] set a burst
    /// size above 1).
    WriteBurst(Vec<u64>),
}

/// Interleaves writes into a read-request stream.
///
/// Each emitted operation is a write with probability `write_fraction`,
/// drawn uniformly from `universe`; otherwise the next read request from
/// the inner stream.
pub struct ReadWriteMix<S> {
    reads: S,
    universe: u64,
    write_fraction: f64,
    write_burst: usize,
    rng: StdRng,
}

impl<S: RequestStream> ReadWriteMix<S> {
    /// Build a mix. `write_fraction` must be in `[0, 1)` (1.0 would never
    /// emit a read).
    pub fn new(reads: S, universe: u64, write_fraction: f64, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&write_fraction),
            "write_fraction {write_fraction} out of [0, 1)"
        );
        assert!(universe > 0, "need a non-empty universe");
        ReadWriteMix {
            reads,
            universe,
            write_fraction,
            write_burst: 1,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Emit writes as [`Op::WriteBurst`]s of `burst` items instead of
    /// single [`Op::Write`]s — the shape `RnbClient::multi_set` consumes
    /// and sends to each server as one pipelined storage burst. `burst` must be at least 1; a
    /// burst of 1 keeps the single-write encoding.
    pub fn with_write_burst(mut self, burst: usize) -> Self {
        assert!(burst >= 1, "write burst must be at least 1");
        self.write_burst = burst;
        self
    }

    /// Produce the next operation.
    pub fn next_op(&mut self) -> Op {
        if self.write_fraction > 0.0 && self.rng.random::<f64>() < self.write_fraction {
            if self.write_burst > 1 {
                Op::WriteBurst(
                    (0..self.write_burst)
                        .map(|_| self.rng.random_range(0..self.universe))
                        .collect(),
                )
            } else {
                Op::Write(self.rng.random_range(0..self.universe))
            }
        } else {
            Op::Read(self.reads.next_request())
        }
    }

    /// Collect `n` operations.
    pub fn take_ops(&mut self, n: usize) -> Vec<Op> {
        (0..n).map(|_| self.next_op()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mc::UniformRequests;

    fn mix(frac: f64) -> ReadWriteMix<UniformRequests> {
        ReadWriteMix::new(UniformRequests::new(1000, 5, 1), 1000, frac, 2)
    }

    #[test]
    fn zero_fraction_is_all_reads() {
        let mut m = mix(0.0);
        assert!(m.take_ops(200).iter().all(|op| matches!(op, Op::Read(_))));
    }

    #[test]
    fn fraction_is_respected() {
        let mut m = mix(0.3);
        let ops = m.take_ops(5000);
        let writes = ops.iter().filter(|op| matches!(op, Op::Write(_))).count();
        let frac = writes as f64 / ops.len() as f64;
        assert!((frac - 0.3).abs() < 0.03, "write fraction {frac}");
    }

    #[test]
    fn writes_stay_in_universe() {
        let mut m = mix(0.5);
        for op in m.take_ops(500) {
            if let Op::Write(item) = op {
                assert!(item < 1000);
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = mix(0.2).take_ops(50);
        let b = mix(0.2).take_ops(50);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "out of [0, 1)")]
    fn full_write_fraction_rejected() {
        mix(1.0);
    }

    #[test]
    fn write_bursts_replace_single_writes() {
        let mut m = mix(0.4).with_write_burst(16);
        let ops = m.take_ops(500);
        assert!(
            !ops.iter().any(|op| matches!(op, Op::Write(_))),
            "burst mode must not emit single writes"
        );
        let bursts: Vec<&Vec<u64>> = ops
            .iter()
            .filter_map(|op| match op {
                Op::WriteBurst(items) => Some(items),
                _ => None,
            })
            .collect();
        assert!(!bursts.is_empty());
        for items in bursts {
            assert_eq!(items.len(), 16);
            assert!(items.iter().all(|&i| i < 1000));
        }
    }

    #[test]
    fn burst_of_one_keeps_single_write_encoding() {
        let mut m = mix(0.4).with_write_burst(1);
        assert!(m
            .take_ops(500)
            .iter()
            .all(|op| matches!(op, Op::Read(_) | Op::Write(_))));
    }
}
