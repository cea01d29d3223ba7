//! A reusable, zero-steady-state-allocation cover planner.
//!
//! The paper's premise (§IV) is that bundling is cheap enough to run on
//! every request. The one-shot path — [`CoverInstance::from_item_candidates`]
//! followed by [`crate::greedy_cover`] — is algorithmically that cheap, but
//! it *allocates* per request: an interner, one `BitSet` per candidate
//! server, and fresh pick vectors. [`Planner`] amortizes all of it:
//!
//! * **[`CoverScratch`]** pools every buffer. The universe only grows the
//!   pools; subsequent requests zero words in place instead of
//!   reallocating.
//! * An **epoch-stamped interner** (`LabelInterner`) replaces the
//!   per-request `HashMap`: a flat stamp array is "cleared" by bumping one
//!   epoch counter.
//! * A **fused greedy inner loop** computes each winner's gain, the
//!   newly-covered word mask, the uncovered-set update, and the item
//!   extraction in a single pass over the words — the one-shot greedy
//!   spends three extra full-word sweeps per pick (`clone`,
//!   `intersect_with`, `difference_with`).
//! * **Pooled lazy selection** on the dense path: instead of rescanning
//!   every set each round, a pooled max-heap of stale gain upper bounds
//!   (keyed `gain << 32 | !slot`, so equal gains pop the lowest slot — the
//!   exact plain-greedy tie-break) pops candidates, refreshes the top's
//!   gain, and accepts only when the refreshed gain still equals its
//!   bound. Gains are monotone non-increasing, so this reproduces
//!   [`crate::greedy_cover`]'s argmax per round while touching only a few
//!   sets — the same argument that makes [`crate::lazy_greedy_cover`]
//!   exact.
//! * An **exhausted-set skip list**: sets whose gain hits zero are never
//!   reconsidered — dropped from the heap on the dense path, swap-removed
//!   from the scan list on the single-word path.
//! * A **single-word fast path** for small instances (universe ≤ 64
//!   items, the common request size in the paper's experiments): the
//!   uncovered mask lives in a register and per-set membership is one
//!   `u64`, skipping multi-word bitset handling entirely.
//!
//! Output is **byte-identical** to [`crate::greedy_cover`] (same picks,
//! same order, same tie-breaks, same graceful degradation on stalls);
//! `tests` and the crate's proptests pin this against the retained
//! reference implementation.

use crate::instance::{CoverInstance, CoverSolution, CoverTarget, Pick};

/// Epoch-stamped label interner: maps arbitrary `u32` labels (server ids)
/// to dense slots in first-appearance order without per-request clearing.
///
/// `stamp[label] == epoch` means `slot[label]` is valid for the current
/// generation; starting a new generation is a single counter bump. The
/// stamp array is sized to the largest label ever seen, so labels are
/// expected to be small dense ids (RnB server ids `0..N`), not hashes.
#[derive(Debug, Default)]
pub(crate) struct LabelInterner {
    epoch: u32,
    stamp: Vec<u32>,
    slot: Vec<u32>,
}

impl LabelInterner {
    /// Start a new interning generation. All previous slots become invalid
    /// at the cost of one increment.
    pub(crate) fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // The u32 epoch wrapped: a stamp written 2^32 generations ago
            // would now collide, so clear them all once and restart at 1
            // (stamp 0 can then never equal a live epoch).
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Intern `label`, appending it to `labels` on first appearance in the
    /// current generation; returns its dense slot.
    pub(crate) fn intern(&mut self, label: u32, labels: &mut Vec<u32>) -> usize {
        let idx = label as usize;
        if idx >= self.stamp.len() {
            self.stamp.resize(idx + 1, 0);
            self.slot.resize(idx + 1, 0);
        }
        if self.stamp[idx] != self.epoch {
            self.stamp[idx] = self.epoch;
            self.slot[idx] = labels.len() as u32;
            labels.push(label);
        }
        self.slot[idx] as usize
    }
}

/// Pooled planning memory, reused across requests.
///
/// Lifecycle: every buffer is logically reset per request (`clear` +
/// zero-fill within retained capacity, or an interner epoch bump) and
/// physically grows monotonically to the largest request shape seen. After
/// the first request of a given shape, planning performs no allocator
/// calls at all — `crates/rnb-cover/tests/zero_alloc.rs` proves it with a
/// counting global allocator.
#[derive(Debug, Default)]
pub struct CoverScratch {
    interner: LabelInterner,
    /// Slot → label, in first-appearance order (matches
    /// [`CoverInstance::from_item_candidates`]).
    labels: Vec<u32>,
    /// Dense set membership: `num_sets × words_per_set` slab of `u64`s.
    set_words: Vec<u64>,
    /// Word mask of items still uncovered (initialised to the union of all
    /// sets, so its popcount is exactly the coverable-item count).
    uncovered: Vec<u64>,
    /// Skip list of set slots that still have positive gain (single-word
    /// fast path).
    active: Vec<u32>,
    /// Max-heap of `gain << 32 | !slot` keys for the dense path's lazy
    /// selection.
    heap: Vec<u64>,
}

/// One pick in the pooled output buffer; item ranges are delimited by the
/// running `items_end` offsets into [`PlanBuf::items`].
#[derive(Debug, Clone, Copy)]
struct PickMeta {
    set: u32,
    label: u32,
    items_end: u32,
}

/// Pooled solver output: picks as flat metadata plus one shared item
/// vector, so re-planning reuses capacity instead of allocating per pick.
#[derive(Debug, Default)]
struct PlanBuf {
    meta: Vec<PickMeta>,
    items: Vec<u32>,
    covered: usize,
}

impl PlanBuf {
    fn reset(&mut self) {
        self.meta.clear();
        self.items.clear();
        self.covered = 0;
    }
}

/// Borrowed view of the planner's most recent cover, valid until the next
/// `solve_*` call. Use [`PlannedCover::picks`] for zero-allocation
/// consumption or [`PlannedCover::to_solution`] to materialise an owned
/// [`CoverSolution`].
#[derive(Debug)]
pub struct PlannedCover<'a> {
    buf: &'a PlanBuf,
}

/// One pick of a [`PlannedCover`]: the chosen set, its caller label
/// (server id), and the items newly covered by it, ascending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedPick<'a> {
    /// Index of the chosen set within the instance / interning order.
    pub set_idx: usize,
    /// Caller label (server id) of the chosen set.
    pub label: u32,
    /// Items this pick newly covers, ascending.
    pub items: &'a [u32],
}

impl<'a> PlannedCover<'a> {
    /// Total items covered.
    #[must_use]
    pub fn covered(&self) -> usize {
        self.buf.covered
    }

    /// Number of picks (transactions in RnB terms).
    #[must_use]
    pub fn num_picks(&self) -> usize {
        self.buf.meta.len()
    }

    /// Iterate the picks in pick order without allocating.
    #[must_use = "the iterator is the computed cover; dropping it discards the plan"]
    pub fn picks(&self) -> impl Iterator<Item = PlannedPick<'a>> + 'a {
        let buf = self.buf;
        let mut start = 0usize;
        buf.meta.iter().map(move |m| {
            let end = m.items_end as usize;
            let pick = PlannedPick {
                set_idx: m.set as usize,
                label: m.label,
                items: &buf.items[start..end],
            };
            start = end;
            pick
        })
    }

    /// Materialise an owned [`CoverSolution`] (allocates; byte-identical
    /// to what [`crate::greedy_cover`] returns for the same input).
    #[must_use]
    pub fn to_solution(&self) -> CoverSolution {
        CoverSolution {
            picks: self
                .picks()
                .map(|p| Pick {
                    set_idx: p.set_idx,
                    label: p.label,
                    items: p.items.to_vec(),
                })
                .collect(),
            covered: self.covered(),
        }
    }
}

/// Reusable greedy cover solver; see the [module docs](self) for the
/// design and [`CoverScratch`] for the pooling lifecycle.
///
/// One `Planner` per planning thread (cluster, client connection, bench
/// loop); it is cheap to construct but only pays off when reused.
#[derive(Debug, Default)]
pub struct Planner {
    scratch: CoverScratch,
    out: PlanBuf,
}

impl Planner {
    /// A planner with empty pools (first request grows them).
    pub fn new() -> Self {
        Self::default()
    }

    /// Solve `inst` and materialise an owned solution — a drop-in,
    /// output-identical replacement for [`crate::greedy_cover`] that
    /// reuses scratch memory across calls.
    #[must_use]
    pub fn plan(&mut self, inst: &CoverInstance, target: CoverTarget) -> CoverSolution {
        self.solve(inst, target).to_solution()
    }

    /// Solve a prebuilt [`CoverInstance`] without allocating, returning a
    /// borrowed view of the picks.
    #[must_use]
    pub fn solve(&mut self, inst: &CoverInstance, target: CoverTarget) -> PlannedCover<'_> {
        let Planner { scratch, out } = self;
        let wps = inst.universe().div_ceil(64);
        scratch.uncovered.clear();
        scratch.uncovered.resize(wps, 0);
        for idx in 0..inst.num_sets() {
            for (u, &w) in scratch.uncovered.iter_mut().zip(inst.set(idx).words()) {
                *u |= w;
            }
        }
        let coverable: usize = scratch
            .uncovered
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        out.reset();
        greedy_rounds_dense(
            inst.num_sets(),
            |s| inst.set(s).words(),
            |s| inst.label(s),
            &mut scratch.uncovered,
            &mut scratch.heap,
            Goal::of(target, coverable),
            out,
        );
        PlannedCover { buf: out }
    }

    /// Solve directly from per-item candidate lists (the natural RnB
    /// direction), skipping [`CoverInstance`] construction entirely.
    ///
    /// Sets are interned in first-appearance order, so the result is
    /// byte-identical to building the instance with
    /// [`CoverInstance::from_item_candidates`] and running
    /// [`crate::greedy_cover`].
    #[must_use]
    pub fn solve_item_candidates(
        &mut self,
        item_candidates: &[Vec<u32>],
        target: CoverTarget,
    ) -> PlannedCover<'_> {
        self.solve_candidates_inner(
            item_candidates.len(),
            |i| item_candidates[i].as_slice(),
            target,
        )
    }

    /// Like [`Planner::solve_item_candidates`] but over a flat candidate
    /// buffer: item `i`'s candidates are
    /// `flat[offsets[i] as usize..offsets[i + 1] as usize]` and the
    /// universe is `offsets.len() - 1`. This is the fully pooled entry
    /// point the bundler uses — caller-side request state can be flat and
    /// reused too.
    #[must_use]
    pub fn solve_flat_candidates(
        &mut self,
        offsets: &[u32],
        flat: &[u32],
        target: CoverTarget,
    ) -> PlannedCover<'_> {
        let universe = offsets.len().saturating_sub(1);
        self.solve_candidates_inner(
            universe,
            |i| &flat[offsets[i] as usize..offsets[i + 1] as usize],
            target,
        )
    }

    /// Convenience: [`Planner::solve_item_candidates`] + owned solution.
    #[must_use]
    pub fn plan_item_candidates(
        &mut self,
        item_candidates: &[Vec<u32>],
        target: CoverTarget,
    ) -> CoverSolution {
        self.solve_item_candidates(item_candidates, target)
            .to_solution()
    }

    #[must_use]
    fn solve_candidates_inner<'c>(
        &mut self,
        universe: usize,
        cand_of: impl Fn(usize) -> &'c [u32],
        target: CoverTarget,
    ) -> PlannedCover<'_> {
        let Planner { scratch, out } = self;
        let CoverScratch {
            interner,
            labels,
            set_words,
            uncovered,
            active,
            heap,
        } = scratch;
        let wps = universe.div_ceil(64);
        interner.begin();
        labels.clear();
        set_words.clear();
        uncovered.clear();
        uncovered.resize(wps, 0);
        let mut coverable = 0usize;
        for item in 0..universe {
            let cands = cand_of(item);
            if cands.is_empty() {
                continue;
            }
            coverable += 1;
            let bit = 1u64 << (item % 64);
            uncovered[item / 64] |= bit;
            for &label in cands {
                let slot = interner.intern(label, labels);
                if (slot + 1) * wps > set_words.len() {
                    // New slot: append one zeroed row (within retained
                    // capacity after warm-up).
                    set_words.resize((slot + 1) * wps, 0);
                }
                set_words[slot * wps + item / 64] |= bit;
            }
        }
        let goal = Goal::of(target, coverable);
        out.reset();
        if wps == 1 {
            // Single-word fast path: uncovered lives in a register and
            // each set is exactly one u64 of the slab.
            let unc = uncovered.first().copied().unwrap_or(0);
            active.clear();
            active.extend(0..labels.len() as u32);
            greedy_rounds_small(set_words, |s| labels[s], unc, active, goal, out);
        } else {
            greedy_rounds_dense(
                labels.len(),
                |s| &set_words[s * wps..(s + 1) * wps],
                |s| labels[s],
                uncovered,
                heap,
                goal,
                out,
            );
        }
        PlannedCover { buf: out }
    }
}

/// Concrete item goal for `target`, given the coverable-item count (the
/// popcount of the union mask) — mirrors [`CoverTarget::resolve`] without
/// touching a [`CoverInstance`].
fn resolve_need(target: CoverTarget, coverable: usize) -> usize {
    match target {
        CoverTarget::Full | CoverTarget::MaxPicks(_) => coverable,
        CoverTarget::AtLeast(k) => k.min(coverable),
    }
}

/// The stopping condition of a greedy run: items to cover and the pick
/// budget, resolved from a [`CoverTarget`].
#[derive(Debug, Clone, Copy)]
struct Goal {
    need: usize,
    budget: usize,
}

impl Goal {
    fn of(target: CoverTarget, coverable: usize) -> Self {
        Goal {
            need: resolve_need(target, coverable),
            budget: target.pick_budget(),
        }
    }
}

/// A lazy-selection heap key: gain in the high 32 bits, the *complement*
/// of the set slot in the low 32. Max-key order therefore prefers higher
/// gain, and on equal gain the lower slot — plain greedy's tie-break.
#[inline]
fn heap_key(gain: usize, slot: u32) -> u64 {
    ((gain as u64) << 32) | u64::from(!slot)
}

/// Restore the max-heap property downward from `i`.
fn sift_down(h: &mut [u64], mut i: usize) {
    loop {
        let left = 2 * i + 1;
        if left >= h.len() {
            break;
        }
        let mut child = left;
        if left + 1 < h.len() && h[left + 1] > h[left] {
            child = left + 1;
        }
        if h[child] <= h[i] {
            break;
        }
        h.swap(i, child);
        i = child;
    }
}

/// Push `key` onto the pooled max-heap.
fn heap_push(h: &mut Vec<u64>, key: u64) {
    h.push(key);
    let mut i = h.len() - 1;
    while i > 0 {
        let parent = (i - 1) / 2;
        if h[parent] >= h[i] {
            break;
        }
        h.swap(i, parent);
        i = parent;
    }
}

/// Pop the max key from the pooled heap.
fn heap_pop(h: &mut Vec<u64>) -> Option<u64> {
    let last = h.len().checked_sub(1)?;
    h.swap(0, last);
    let top = h.pop();
    sift_down(h, 0);
    top
}

/// The greedy rounds over multi-word sets. `set_of` yields the word slice
/// of a set slot (from the scratch slab or a [`CoverInstance`]'s bitsets).
///
/// Selection is lazy: the heap holds each set's last-known gain, an upper
/// bound since gains only shrink as items get covered. Pop the max,
/// refresh its gain, and accept only if the refreshed gain matches the
/// bound — then no other set can beat it (their bounds are all ≤ this
/// key), and no lower slot can tie it (an equal-gain lower slot would
/// have sorted above this key). Otherwise reinsert with the fresh gain,
/// or drop the set for good when the gain hits zero.
fn greedy_rounds_dense<'s>(
    num_sets: usize,
    set_of: impl Fn(usize) -> &'s [u64],
    label_of: impl Fn(usize) -> u32,
    uncovered: &mut [u64],
    heap: &mut Vec<u64>,
    goal: Goal,
    out: &mut PlanBuf,
) {
    let Goal { need, budget } = goal;
    let gain_of = |s: usize, uncovered: &[u64]| -> usize {
        set_of(s)
            .iter()
            .zip(uncovered.iter())
            .map(|(w, u)| (w & u).count_ones() as usize)
            .sum()
    };
    heap.clear();
    for s in 0..num_sets {
        // Initial gains are exact (nothing is covered yet), so the first
        // pick needs no refresh detour.
        let gain = gain_of(s, uncovered);
        if gain > 0 {
            heap.push(heap_key(gain, s as u32));
        }
    }
    for i in (0..heap.len() / 2).rev() {
        sift_down(heap, i);
    }
    while out.covered < need && out.meta.len() < budget {
        let Some(top) = heap_pop(heap) else {
            debug_assert!(
                false,
                "planner stalled before target: need is clamped to coverable items"
            );
            break;
        };
        let s = !(top as u32);
        let gain = gain_of(s as usize, uncovered);
        if gain == 0 {
            // Exhausted: never reconsidered (the dense-path skip list).
            continue;
        }
        if (gain as u64) < top >> 32 {
            // Stale bound: reinsert at the refreshed gain and re-pop.
            heap_push(heap, heap_key(gain, s));
            continue;
        }
        let words = set_of(s as usize);
        let before = out.items.len();
        for (w, (u, &sw)) in uncovered.iter_mut().zip(words).enumerate() {
            // Fused pick: newly-covered mask, uncovered update, and item
            // extraction in one pass over the words.
            let newly = sw & *u;
            if newly != 0 {
                *u &= !newly;
                let base = (w * 64) as u32;
                let mut bits = newly;
                while bits != 0 {
                    out.items.push(base + bits.trailing_zeros());
                    bits &= bits - 1;
                }
            }
        }
        debug_assert_eq!(
            out.items.len() - before,
            gain,
            "fused pick must extract exactly the scanned gain"
        );
        out.covered += gain;
        out.meta.push(PickMeta {
            set: s,
            label: label_of(s as usize),
            items_end: out.items.len() as u32,
        });
    }
}

/// Single-word specialisation of [`greedy_rounds_dense`] for universes of
/// at most 64 items: `masks[slot]` is the whole set and the uncovered mask
/// stays in a register.
fn greedy_rounds_small(
    masks: &[u64],
    label_of: impl Fn(usize) -> u32,
    mut uncovered: u64,
    active: &mut Vec<u32>,
    goal: Goal,
    out: &mut PlanBuf,
) {
    let Goal { need, budget } = goal;
    while out.covered < need && out.meta.len() < budget {
        let mut best: Option<(u32, u32, usize)> = None;
        let mut i = 0;
        while i < active.len() {
            let s = active[i];
            let gain = (masks[s as usize] & uncovered).count_ones();
            if gain == 0 {
                if let Some((_, _, pos)) = &mut best {
                    if *pos == active.len() - 1 {
                        *pos = i;
                    }
                }
                active.swap_remove(i);
                continue;
            }
            let better = match best {
                None => true,
                Some((bg, bs, _)) => gain > bg || (gain == bg && s < bs),
            };
            if better {
                best = Some((gain, s, i));
            }
            i += 1;
        }
        let Some((gain, s, pos)) = best else {
            debug_assert!(
                false,
                "planner stalled before target: need is clamped to coverable items"
            );
            break;
        };
        active.swap_remove(pos);
        let newly = masks[s as usize] & uncovered;
        uncovered &= !newly;
        let before = out.items.len();
        let mut bits = newly;
        while bits != 0 {
            out.items.push(bits.trailing_zeros());
            bits &= bits - 1;
        }
        debug_assert_eq!(
            out.items.len() - before,
            gain as usize,
            "fused pick must extract exactly the scanned gain"
        );
        out.covered += gain as usize;
        out.meta.push(PickMeta {
            set: s,
            label: label_of(s as usize),
            items_end: out.items.len() as u32,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::{greedy_cover_reference, lazy_greedy_cover};
    use proptest::prelude::*;

    fn inst_from(universe: usize, sets: &[&[u32]]) -> CoverInstance {
        let v: Vec<Vec<u32>> = sets.iter().map(|s| s.to_vec()).collect();
        CoverInstance::from_sets(universe, &v)
    }

    fn assert_identical(sol: &CoverSolution, oracle: &CoverSolution) {
        assert_eq!(sol.picks, oracle.picks);
        assert_eq!(sol.covered, oracle.covered);
    }

    #[test]
    fn matches_reference_on_fixed_cases() {
        let cases = vec![
            inst_from(6, &[&[0, 2, 4], &[1, 3, 5], &[0, 1, 2, 3]]),
            inst_from(10, &[&[0, 1, 2, 3], &[4, 5, 6], &[7, 8], &[9], &[0, 9]]),
            inst_from(4, &[&[0, 1], &[2, 3], &[0, 1]]),
            // > 64 items exercises the multi-word dense path.
            inst_from(
                130,
                &[
                    &[0, 64, 129],
                    &[1, 65, 128],
                    &[0, 1, 2, 3],
                    &[127, 128, 129],
                ],
            ),
            CoverInstance::from_sets(0, &[]),
            inst_from(4, &[&[], &[], &[]]),
        ];
        let mut planner = Planner::new();
        for inst in &cases {
            for target in [
                CoverTarget::Full,
                CoverTarget::AtLeast(3),
                CoverTarget::AtLeast(0),
                CoverTarget::MaxPicks(2),
                CoverTarget::MaxPicks(0),
            ] {
                let sol = planner.plan(inst, target);
                assert_identical(&sol, &greedy_cover_reference(inst, target));
                assert!(sol.validate(inst).is_ok());
            }
        }
    }

    #[test]
    fn item_candidates_path_matches_instance_path() {
        let cands: Vec<Vec<u32>> = vec![
            vec![7],
            vec![7, 9],
            vec![9, 3],
            vec![],
            vec![3, 7, 9],
            vec![11],
        ];
        let inst = CoverInstance::from_item_candidates(&cands);
        let mut planner = Planner::new();
        for target in [
            CoverTarget::Full,
            CoverTarget::AtLeast(4),
            CoverTarget::MaxPicks(2),
        ] {
            let via_cands = planner.plan_item_candidates(&cands, target);
            let via_inst = planner.plan(&inst, target);
            assert_identical(&via_cands, &via_inst);
            assert_identical(&via_cands, &greedy_cover_reference(&inst, target));
        }
    }

    #[test]
    fn flat_candidates_path_matches_nested() {
        let cands: Vec<Vec<u32>> = vec![vec![2], vec![2, 5], vec![5], vec![0, 2]];
        let mut offsets = vec![0u32];
        let mut flat = Vec::new();
        for c in &cands {
            flat.extend_from_slice(c);
            offsets.push(flat.len() as u32);
        }
        let mut planner = Planner::new();
        let a = planner
            .solve_flat_candidates(&offsets, &flat, CoverTarget::Full)
            .to_solution();
        let b = planner.plan_item_candidates(&cands, CoverTarget::Full);
        assert_identical(&a, &b);
    }

    /// Reuse across wildly different shapes: shrinking and growing the
    /// universe and label space must not leak state between requests
    /// (epoch bumps + zero-fills do the isolation).
    #[test]
    fn reuse_across_shapes_is_stateless() {
        let mut planner = Planner::new();
        let shapes: Vec<Vec<Vec<u32>>> = vec![
            vec![vec![1, 2], vec![2], vec![1]],
            vec![vec![9]],
            (0..100).map(|i| vec![i % 7, (i % 7) + 40]).collect(),
            vec![vec![], vec![]],
            vec![vec![1, 2], vec![2], vec![1]],
        ];
        for cands in &shapes {
            let inst = CoverInstance::from_item_candidates(cands);
            for target in [CoverTarget::Full, CoverTarget::AtLeast(2)] {
                let sol = planner.plan_item_candidates(cands, target);
                assert_identical(&sol, &greedy_cover_reference(&inst, target));
            }
        }
    }

    /// Epoch wrap: after u32::MAX generations the stamps reset. Simulate
    /// by spinning the interner close to the wrap point directly.
    #[test]
    fn interner_epoch_wrap_resets_stamps() {
        let mut interner = LabelInterner::default();
        let mut labels = Vec::new();
        interner.begin();
        assert_eq!(interner.intern(5, &mut labels), 0);
        assert_eq!(interner.intern(3, &mut labels), 1);
        assert_eq!(interner.intern(5, &mut labels), 0);
        assert_eq!(labels, vec![5, 3]);
        // Force the wrap: epoch jumps to u32::MAX, next begin() wraps to 0
        // and must reset rather than treat stale stamps as current.
        interner.epoch = u32::MAX - 1;
        interner.begin(); // epoch == u32::MAX
        labels.clear();
        assert_eq!(interner.intern(5, &mut labels), 0);
        interner.begin(); // wraps: stamps cleared, epoch restarts at 1
        assert_eq!(interner.epoch, 1);
        labels.clear();
        assert_eq!(interner.intern(3, &mut labels), 0);
        assert_eq!(interner.intern(5, &mut labels), 1);
        assert_eq!(labels, vec![3, 5]);
    }

    proptest! {
        /// The satellite guarantee: one reused `Planner` returns
        /// byte-identical `CoverSolution`s to `greedy_cover` (and the seed
        /// reference) across random instances and all `CoverTarget`
        /// variants — both the instance path and the candidates path.
        #[test]
        fn planner_matches_greedy_cover_randomised(
            cands in proptest::collection::vec(
                proptest::collection::vec(0u32..12, 0..5), 0..90),
            limit in 0usize..100,
        ) {
            let inst = CoverInstance::from_item_candidates(&cands);
            let mut planner = Planner::new();
            for target in [
                CoverTarget::Full,
                CoverTarget::AtLeast(limit),
                CoverTarget::MaxPicks(limit / 10),
            ] {
                let oracle = crate::greedy_cover(&inst, target);
                let reference = greedy_cover_reference(&inst, target);
                prop_assert_eq!(&oracle.picks, &reference.picks);
                // Same planner reused for every target and entry point.
                let a = planner.plan(&inst, target);
                let b = planner.plan_item_candidates(&cands, target);
                prop_assert_eq!(&a.picks, &oracle.picks);
                prop_assert_eq!(a.covered, oracle.covered);
                prop_assert_eq!(&b.picks, &oracle.picks);
                prop_assert_eq!(b.covered, oracle.covered);
                prop_assert!(a.validate(&inst).is_ok());
            }
        }

        /// Duplicate-heavy instances force exact gain ties every round, so
        /// the skip list's scrambled scan order must still reproduce the
        /// reference's lowest-index tie-break.
        #[test]
        fn skip_list_preserves_tie_breaks(
            pool in proptest::collection::vec(
                proptest::collection::vec(0u32..24, 1..6), 1..6),
            dups in proptest::collection::vec(0usize..6, 1..8),
        ) {
            let mut sets = pool.clone();
            for &d in &dups {
                sets.push(pool[d % pool.len()].clone());
            }
            let inst = CoverInstance::from_sets(24, &sets);
            let mut planner = Planner::new();
            for target in [CoverTarget::Full, CoverTarget::MaxPicks(3)] {
                let sol = planner.plan(&inst, target);
                let oracle = greedy_cover_reference(&inst, target);
                prop_assert_eq!(&sol.picks, &oracle.picks);
                let lazy = lazy_greedy_cover(&inst, target);
                prop_assert_eq!(&sol.picks, &lazy.picks);
            }
        }

        /// Same torture at a multi-word universe, so the dense path's
        /// lazy-heap selection (not the single-word skip-list scan) must
        /// reproduce the reference tie-breaks through stale-bound pops.
        #[test]
        fn lazy_heap_preserves_tie_breaks_dense(
            pool in proptest::collection::vec(
                proptest::collection::vec(0u32..150, 1..10), 1..8),
            dups in proptest::collection::vec(0usize..8, 1..8),
        ) {
            let mut sets = pool.clone();
            for &d in &dups {
                sets.push(pool[d % pool.len()].clone());
            }
            let inst = CoverInstance::from_sets(150, &sets);
            let mut planner = Planner::new();
            for target in [CoverTarget::Full, CoverTarget::AtLeast(5), CoverTarget::MaxPicks(3)] {
                let sol = planner.plan(&inst, target);
                let oracle = greedy_cover_reference(&inst, target);
                prop_assert_eq!(&sol.picks, &oracle.picks);
                prop_assert_eq!(sol.covered, oracle.covered);
                let lazy = lazy_greedy_cover(&inst, target);
                prop_assert_eq!(&sol.picks, &lazy.picks);
            }
        }
    }
}
