//! Phase-scripted request timelines.
//!
//! Cluster scenarios (see the `rnb-cluster` crate) need workloads whose
//! *shape changes mid-run*: a uniform baseline that turns into a hot-key
//! storm for a few rounds, or a flash crowd that multiplies the request
//! rate and then subsides. [`ScriptedRequests`] expresses that as an
//! ordered list of phases, each a `(request budget, inner stream)` pair;
//! the stream serves each phase's budget in order and then stays on the
//! final phase forever (a [`RequestStream`] never ends).
//!
//! ```
//! use rnb_workload::{RequestStream, ScriptedRequests, UniformRequests};
//!
//! let mut script = ScriptedRequests::new()
//!     .phase(2, UniformRequests::new(1000, 4, 7))
//!     .phase(1, UniformRequests::new(10, 4, 7)) // "storm": tiny hot set
//!     .phase(0, UniformRequests::new(1000, 4, 7)); // endless tail
//! let batch = script.take_requests(4);
//! assert_eq!(batch.len(), 4);
//! // Requests 0-1 draw from the full universe, request 2 from the hot
//! // set, request 3 (and everything after) from the tail phase.
//! assert!(batch[2].iter().all(|&item| item < 10));
//! ```

use crate::{Request, RequestStream};

/// A request stream that switches between inner streams on a declared
/// schedule. See the [module docs](self) for the scenario motivation.
#[derive(Default)]
pub struct ScriptedRequests {
    /// `(budget, stream)` per phase; a budget of 0 means "unbounded"
    /// (useful only for the final phase — later phases would starve).
    phases: Vec<(usize, Box<dyn RequestStream>)>,
    current: usize,
    served_in_phase: usize,
}

impl ScriptedRequests {
    /// An empty script; add phases with [`ScriptedRequests::phase`].
    pub fn new() -> Self {
        ScriptedRequests::default()
    }

    /// Append a phase serving `requests` requests from `stream` (0 =
    /// unbounded). The final phase never expires regardless of budget.
    pub fn phase(mut self, requests: usize, stream: impl RequestStream + 'static) -> Self {
        self.phases.push((requests, Box::new(stream)));
        self
    }
}

impl RequestStream for ScriptedRequests {
    fn next_request(&mut self) -> Request {
        assert!(!self.phases.is_empty(), "ScriptedRequests needs >= 1 phase");
        // Advance past exhausted phases (skipping 0-budget ones unless
        // they are last); the final phase is never left.
        while self.current + 1 < self.phases.len() {
            let budget = self.phases[self.current].0;
            if budget != 0 && self.served_in_phase < budget {
                break;
            }
            self.current += 1;
            self.served_in_phase = 0;
        }
        self.served_in_phase += 1;
        self.phases[self.current].1.next_request()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UniformRequests;

    /// A stream returning a constant single-item request, for schedule
    /// assertions.
    struct Fixed(u64);
    impl RequestStream for Fixed {
        fn next_request(&mut self) -> Request {
            vec![self.0]
        }
    }

    #[test]
    fn phases_serve_in_declared_order() {
        let mut s = ScriptedRequests::new()
            .phase(2, Fixed(1))
            .phase(3, Fixed(2))
            .phase(0, Fixed(3));
        let got: Vec<u64> = (0..8).map(|_| s.next_request()[0]).collect();
        assert_eq!(got, vec![1, 1, 2, 2, 2, 3, 3, 3]);
    }

    #[test]
    fn final_phase_is_endless_even_with_budget() {
        let mut s = ScriptedRequests::new().phase(1, Fixed(7));
        for _ in 0..5 {
            assert_eq!(s.next_request(), vec![7]);
        }
    }

    #[test]
    fn zero_budget_middle_phase_is_skipped() {
        let mut s = ScriptedRequests::new()
            .phase(1, Fixed(1))
            .phase(0, Fixed(2))
            .phase(0, Fixed(3));
        let got: Vec<u64> = (0..3).map(|_| s.next_request()[0]).collect();
        assert_eq!(got, vec![1, 3, 3]);
    }

    #[test]
    fn works_with_real_generators() {
        let mut s = ScriptedRequests::new()
            .phase(2, UniformRequests::new(100, 4, 11))
            .phase(0, UniformRequests::new(8, 2, 11));
        let wide = s.take_requests(2);
        let narrow = s.take_requests(10);
        assert!(wide.iter().all(|r| r.len() == 4));
        assert!(narrow.iter().flatten().all(|&item| item < 8));
    }

    #[test]
    #[should_panic(expected = "needs >= 1 phase")]
    fn empty_script_panics() {
        ScriptedRequests::new().next_request();
    }
}
