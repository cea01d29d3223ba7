//! Client-side operation counters (mirror of the simulator's metrics,
//! measured against real servers).

/// Counters accumulated by an [`crate::RnbClient`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Multi-get requests served.
    pub requests: u64,
    /// Round-1 (planned) transactions issued.
    pub round1_txns: u64,
    /// Round-2 (distinguished fallback) transactions issued.
    pub round2_txns: u64,
    /// Round-3 (survivor sweep, failure path only) transactions issued.
    /// Counted separately from round 2 so failure-path traffic is not
    /// misattributed to the ordinary miss fallback.
    pub round3_txns: u64,
    /// Planned item fetches that missed in round 1.
    pub planned_misses: u64,
    /// Misses satisfied by a hitchhiker in the same round.
    pub rescued_by_hitchhikers: u64,
    /// Keys sent as hitchhikers: round-1 keys beyond the plan's own.
    pub hitchhikers: u64,
    /// Replica write-backs sent on a live connection. They go out as
    /// `noreply` sets, so no server acknowledges them: a write-back the
    /// server refuses (for memory) still counts.
    pub writebacks: u64,
    /// Write-back bursts sent: one per server a request writes back to.
    pub writeback_txns: u64,
    /// Items no server supplied. One its distinguished server answered
    /// without in round 1 is counted at once, with no round-2 transaction.
    pub unavailable_items: u64,
    /// Write operations issued (all policies).
    pub writes: u64,
    /// Server transactions spent on writes.
    pub write_txns: u64,
    /// CAS retries inside atomic updates.
    pub cas_retries: u64,
    /// Transactions that failed with an I/O error (server down); their
    /// items were recovered from other replicas where possible.
    pub failed_txns: u64,
    /// Connections re-established after an I/O error marked them broken
    /// (a desynced or dead stream is never reused; the next use of that
    /// server reconnects lazily).
    pub reconnects: u64,
}

impl ClientStats {
    /// Mean transactions per request (all read rounds).
    pub fn tpr(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            (self.round1_txns + self.round2_txns + self.round3_txns) as f64 / self.requests as f64
        }
    }

    /// Field-wise difference `self - earlier`, saturating at zero.
    ///
    /// [`crate::RnbClient::stats`] returns cumulative counters; scenario
    /// harnesses snapshot them between rounds and difference the
    /// snapshots to attribute traffic to one round:
    ///
    /// ```
    /// use rnb_client::ClientStats;
    /// let before = ClientStats { requests: 10, round1_txns: 20, ..Default::default() };
    /// let after = ClientStats { requests: 14, round1_txns: 30, ..Default::default() };
    /// let delta = after.since(&before);
    /// assert_eq!(delta.requests, 4);
    /// assert_eq!(delta.round1_txns, 10);
    /// ```
    pub fn since(&self, earlier: &ClientStats) -> ClientStats {
        ClientStats {
            requests: self.requests.saturating_sub(earlier.requests),
            round1_txns: self.round1_txns.saturating_sub(earlier.round1_txns),
            round2_txns: self.round2_txns.saturating_sub(earlier.round2_txns),
            round3_txns: self.round3_txns.saturating_sub(earlier.round3_txns),
            planned_misses: self.planned_misses.saturating_sub(earlier.planned_misses),
            rescued_by_hitchhikers: self
                .rescued_by_hitchhikers
                .saturating_sub(earlier.rescued_by_hitchhikers),
            hitchhikers: self.hitchhikers.saturating_sub(earlier.hitchhikers),
            writebacks: self.writebacks.saturating_sub(earlier.writebacks),
            writeback_txns: self.writeback_txns.saturating_sub(earlier.writeback_txns),
            unavailable_items: self
                .unavailable_items
                .saturating_sub(earlier.unavailable_items),
            writes: self.writes.saturating_sub(earlier.writes),
            write_txns: self.write_txns.saturating_sub(earlier.write_txns),
            cas_retries: self.cas_retries.saturating_sub(earlier.cas_retries),
            failed_txns: self.failed_txns.saturating_sub(earlier.failed_txns),
            reconnects: self.reconnects.saturating_sub(earlier.reconnects),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tpr_math() {
        let s = ClientStats {
            requests: 4,
            round1_txns: 10,
            round2_txns: 2,
            ..Default::default()
        };
        assert!((s.tpr() - 3.0).abs() < 1e-12);
        assert_eq!(ClientStats::default().tpr(), 0.0);
    }

    #[test]
    fn since_differences_every_field() {
        let earlier = ClientStats {
            requests: 1,
            round1_txns: 2,
            round2_txns: 3,
            round3_txns: 4,
            planned_misses: 5,
            rescued_by_hitchhikers: 6,
            hitchhikers: 7,
            writebacks: 8,
            writeback_txns: 9,
            unavailable_items: 10,
            writes: 11,
            write_txns: 12,
            cas_retries: 13,
            failed_txns: 14,
            reconnects: 15,
        };
        let later = ClientStats {
            requests: 11,
            round1_txns: 12,
            round2_txns: 13,
            round3_txns: 14,
            planned_misses: 15,
            rescued_by_hitchhikers: 16,
            hitchhikers: 17,
            writebacks: 18,
            writeback_txns: 19,
            unavailable_items: 20,
            writes: 21,
            write_txns: 22,
            cas_retries: 23,
            failed_txns: 24,
            reconnects: 25,
        };
        let delta = later.since(&earlier);
        let expect = ClientStats {
            requests: 10,
            round1_txns: 10,
            round2_txns: 10,
            round3_txns: 10,
            planned_misses: 10,
            rescued_by_hitchhikers: 10,
            hitchhikers: 10,
            writebacks: 10,
            writeback_txns: 10,
            unavailable_items: 10,
            writes: 10,
            write_txns: 10,
            cas_retries: 10,
            failed_txns: 10,
            reconnects: 10,
        };
        assert_eq!(delta, expect);
        // A stale (newer) snapshot saturates instead of wrapping.
        assert_eq!(earlier.since(&later), ClientStats::default());
    }

    #[test]
    fn tpr_counts_survivor_round() {
        // Regression: round-3 traffic used to be folded into
        // `round2_txns`; it must both have its own counter and still
        // participate in transactions-per-request.
        let s = ClientStats {
            requests: 2,
            round1_txns: 4,
            round2_txns: 1,
            round3_txns: 3,
            ..Default::default()
        };
        assert!((s.tpr() - 4.0).abs() < 1e-12);
    }
}
