//! Fetch plans: the output of bundling.

use rnb_hash::{ItemId, ServerId};

/// One server round-trip: a multi-get of `items` sent to `server`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    /// Target server.
    pub server: ServerId,
    /// Items fetched in this transaction (the items the planner *assigned*
    /// here; hitchhikers are added later by the execution layer).
    pub items: Vec<ItemId>,
}

/// A plan for satisfying one request: the set of transactions to issue.
#[derive(Debug, Clone, Default)]
pub struct FetchPlan {
    /// Transactions in pick order (greedy order: largest bundle first,
    /// modulo post-processing).
    pub transactions: Vec<Transaction>,
    /// Number of distinct items in the original request.
    pub requested: usize,
}

impl FetchPlan {
    /// Transactions Per Request contributed by this plan — the paper's
    /// central metric (before miss handling adds second-round
    /// transactions).
    ///
    /// ```
    /// use rnb_core::{Bundler, RnbConfig};
    /// let bundler = Bundler::from_config(&RnbConfig::new(16, 4));
    /// let plan = bundler.plan(&[1, 2, 3, 4, 5]);
    /// assert_eq!(plan.tpr(), plan.transactions.len());
    /// assert!(plan.tpr() <= 5);
    /// ```
    pub fn tpr(&self) -> usize {
        self.transactions.len()
    }

    /// Total items the plan fetches (≤ `requested` for LIMIT plans).
    ///
    /// ```
    /// use rnb_core::{FetchPlan, Transaction};
    /// let plan = FetchPlan {
    ///     transactions: vec![
    ///         Transaction { server: 3, items: vec![10, 11, 12] },
    ///         Transaction { server: 0, items: vec![13] },
    ///     ],
    ///     requested: 4,
    /// };
    /// assert_eq!(plan.planned_items(), 4);
    /// ```
    pub fn planned_items(&self) -> usize {
        self.transactions.iter().map(|t| t.items.len()).sum()
    }

    /// The server each planned item was assigned to.
    ///
    /// ```
    /// use rnb_core::{FetchPlan, Transaction};
    /// let plan = FetchPlan {
    ///     transactions: vec![
    ///         Transaction { server: 3, items: vec![10, 11] },
    ///         Transaction { server: 0, items: vec![13] },
    ///     ],
    ///     requested: 3,
    /// };
    /// let pairs: Vec<_> = plan.assignment().collect();
    /// assert_eq!(pairs, vec![(10, 3), (11, 3), (13, 0)]);
    /// ```
    pub fn assignment(&self) -> impl Iterator<Item = (ItemId, ServerId)> + '_ {
        self.transactions
            .iter()
            .flat_map(|t| t.items.iter().map(move |&i| (i, t.server)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> FetchPlan {
        FetchPlan {
            transactions: vec![
                Transaction {
                    server: 3,
                    items: vec![10, 11, 12],
                },
                Transaction {
                    server: 0,
                    items: vec![13],
                },
            ],
            requested: 4,
        }
    }

    #[test]
    fn metrics() {
        let p = plan();
        assert_eq!(p.tpr(), 2);
        assert_eq!(p.planned_items(), 4);
    }

    #[test]
    fn assignment_pairs() {
        let p = plan();
        let pairs: Vec<_> = p.assignment().collect();
        assert_eq!(pairs, vec![(10, 3), (11, 3), (12, 3), (13, 0)]);
    }

    #[test]
    fn empty_plan() {
        let p = FetchPlan::default();
        assert_eq!(p.tpr(), 0);
        assert_eq!(p.planned_items(), 0);
    }
}
