//! Degree histograms — Figs 4–5 of the paper.

use crate::graph::DiGraph;

/// A histogram over node out-degrees.
#[derive(Clone, Debug)]
pub struct DegreeHistogram {
    /// `counts[d]` = number of nodes with out-degree `d`.
    counts: Vec<usize>,
}

impl DegreeHistogram {
    /// Histogram of `graph`'s out-degrees.
    pub fn of_out_degrees(graph: &DiGraph) -> Self {
        Self::from_degrees(graph.out_degrees().into_iter())
    }

    /// Build from any degree iterator.
    pub fn from_degrees(degrees: impl Iterator<Item = usize>) -> Self {
        let mut counts = Vec::new();
        for d in degrees {
            if d >= counts.len() {
                counts.resize(d + 1, 0);
            }
            counts[d] += 1;
        }
        DegreeHistogram { counts }
    }

    /// Nodes with exactly degree `d`.
    pub fn count(&self, d: usize) -> usize {
        self.counts.get(d).copied().unwrap_or(0)
    }

    /// Largest degree present.
    pub fn max_degree(&self) -> usize {
        self.counts.len().saturating_sub(1)
    }

    /// Total nodes counted.
    pub fn total_nodes(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Mean degree.
    pub fn mean(&self) -> f64 {
        let n = self.total_nodes();
        if n == 0 {
            return 0.0;
        }
        let sum: usize = self.counts.iter().enumerate().map(|(d, &c)| d * c).sum();
        sum as f64 / n as f64
    }

    /// The `q`-quantile degree (`q` in `[0, 1]`), by cumulative count.
    pub fn quantile(&self, q: f64) -> usize {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        let n = self.total_nodes();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        let mut cum = 0;
        for (d, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return d;
            }
        }
        self.max_degree()
    }

    /// Log2-binned rows `(lo, hi_inclusive, count)` — the presentation
    /// used for heavy-tailed histograms like the paper's Figs 4–5. Bin 0
    /// is degree 0 alone; then \[1,1\], \[2,3\], \[4,7\], ...
    pub fn log2_bins(&self) -> Vec<(usize, usize, usize)> {
        let mut rows = Vec::new();
        if self.counts.is_empty() {
            return rows;
        }
        rows.push((0, 0, self.count(0)));
        let mut lo = 1usize;
        while lo <= self.max_degree() {
            let hi = lo * 2 - 1;
            let count: usize = (lo..=hi.min(self.max_degree()))
                .map(|d| self.count(d))
                .sum();
            rows.push((lo, hi, count));
            lo *= 2;
        }
        rows
    }

    /// Raw per-degree counts (trailing zeros trimmed by construction).
    pub fn raw(&self) -> &[usize] {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(degrees: &[usize]) -> DegreeHistogram {
        DegreeHistogram::from_degrees(degrees.iter().copied())
    }

    #[test]
    fn counts_and_mean() {
        let h = hist(&[0, 1, 1, 2, 5]);
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(1), 2);
        assert_eq!(h.count(2), 1);
        assert_eq!(h.count(5), 1);
        assert_eq!(h.count(99), 0);
        assert_eq!(h.max_degree(), 5);
        assert_eq!(h.total_nodes(), 5);
        assert!((h.mean() - 9.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles() {
        let h = hist(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(h.quantile(0.5), 5);
        assert_eq!(h.quantile(0.9), 9);
        assert_eq!(h.quantile(1.0), 10);
        assert_eq!(h.quantile(0.0), 1);
    }

    #[test]
    fn log2_bins_cover_everything() {
        let h = hist(&[0, 0, 1, 2, 3, 4, 7, 8, 100]);
        let bins = h.log2_bins();
        assert_eq!(bins[0], (0, 0, 2));
        assert_eq!(bins[1], (1, 1, 1));
        assert_eq!(bins[2], (2, 3, 2));
        assert_eq!(bins[3], (4, 7, 2));
        assert_eq!(bins[4], (8, 15, 1));
        let total: usize = bins.iter().map(|&(_, _, c)| c).sum();
        assert_eq!(total, h.total_nodes());
    }

    #[test]
    fn graph_roundtrip() {
        let g = DiGraph::from_edges(4, &[(0, 1), (0, 2), (1, 2)]);
        let h = DegreeHistogram::of_out_degrees(&g);
        assert_eq!(h.count(2), 1); // node 0
        assert_eq!(h.count(1), 1); // node 1
        assert_eq!(h.count(0), 2); // nodes 2, 3
    }

    #[test]
    fn empty() {
        let h = hist(&[]);
        assert_eq!(h.total_nodes(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
        assert!(h.log2_bins().is_empty());
    }
}
