//! Item-granularity LRU cache used by the simulated servers.
//!
//! Classic intrusive doubly-linked list over a slab, with a hash index —
//! O(1) touch/insert/evict. Capacity is counted in items (the paper's
//! unit-size-item assumption).

use rnb_hash::ItemId;
use std::collections::HashMap;

const NIL: usize = usize::MAX;

#[derive(Clone, Copy, Debug)]
struct Node {
    item: ItemId,
    prev: usize,
    next: usize,
}

/// An LRU set of items with a fixed capacity.
#[derive(Debug)]
pub struct ItemLru {
    map: HashMap<ItemId, usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
}

impl ItemLru {
    /// An LRU holding at most `capacity` items (0 stores nothing).
    pub fn new(capacity: usize) -> Self {
        ItemLru {
            map: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Items currently resident.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Presence check without touching recency.
    pub fn contains(&self, item: ItemId) -> bool {
        self.map.contains_key(&item)
    }

    /// Look up `item`, promoting it to most-recently-used on a hit.
    pub fn touch(&mut self, item: ItemId) -> bool {
        match self.map.get(&item) {
            Some(&idx) => {
                self.unlink(idx);
                self.push_front(idx);
                true
            }
            None => false,
        }
    }

    /// Insert `item` as most-recently-used, evicting the LRU item if the
    /// cache is full. Returns the evicted item, if any. Inserting an
    /// already-resident item just promotes it.
    pub fn insert(&mut self, item: ItemId) -> Option<ItemId> {
        if self.capacity == 0 {
            return None;
        }
        if self.touch(item) {
            return None;
        }
        let evicted = if self.map.len() >= self.capacity {
            self.pop_back()
        } else {
            None
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i] = Node {
                    item,
                    prev: NIL,
                    next: NIL,
                };
                i
            }
            None => {
                self.nodes.push(Node {
                    item,
                    prev: NIL,
                    next: NIL,
                });
                self.nodes.len() - 1
            }
        };
        self.push_front(idx);
        self.map.insert(item, idx);
        evicted
    }

    /// Remove `item` if resident; returns whether it was present.
    pub fn remove(&mut self, item: ItemId) -> bool {
        match self.map.remove(&item) {
            Some(idx) => {
                self.unlink(idx);
                self.free.push(idx);
                true
            }
            None => false,
        }
    }

    /// Iterate items from most- to least-recently-used.
    pub fn iter_mru(&self) -> impl Iterator<Item = ItemId> + '_ {
        std::iter::successors((self.head != NIL).then_some(self.head), move |&i| {
            let n = self.nodes[i].next;
            (n != NIL).then_some(n)
        })
        .map(|i| self.nodes[i].item)
    }

    fn unlink(&mut self, idx: usize) {
        let Node { prev, next, .. } = self.nodes[idx];
        if prev != NIL {
            self.nodes[prev].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn pop_back(&mut self) -> Option<ItemId> {
        if self.tail == NIL {
            return None;
        }
        let idx = self.tail;
        let item = self.nodes[idx].item;
        self.unlink(idx);
        self.map.remove(&item);
        self.free.push(idx);
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_touch_evict() {
        let mut lru = ItemLru::new(3);
        assert_eq!(lru.insert(1), None);
        assert_eq!(lru.insert(2), None);
        assert_eq!(lru.insert(3), None);
        assert_eq!(lru.len(), 3);
        // 1 is LRU; touching it saves it, so 2 gets evicted next.
        assert!(lru.touch(1));
        assert_eq!(lru.insert(4), Some(2));
        assert!(lru.contains(1) && lru.contains(3) && lru.contains(4));
        assert!(!lru.contains(2));
    }

    #[test]
    fn reinsert_promotes_without_evicting() {
        let mut lru = ItemLru::new(2);
        lru.insert(1);
        lru.insert(2);
        assert_eq!(lru.insert(1), None); // promote, no eviction
        assert_eq!(lru.insert(3), Some(2));
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let mut lru = ItemLru::new(0);
        assert_eq!(lru.insert(1), None);
        assert!(!lru.contains(1));
        assert!(lru.is_empty());
    }

    #[test]
    fn remove_and_reuse_slot() {
        let mut lru = ItemLru::new(2);
        lru.insert(1);
        assert!(lru.remove(1));
        assert!(!lru.remove(1));
        lru.insert(2);
        lru.insert(3);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.iter_mru().collect::<Vec<_>>(), vec![3, 2]);
    }

    #[test]
    fn mru_order() {
        let mut lru = ItemLru::new(4);
        for i in 1..=4 {
            lru.insert(i);
        }
        assert_eq!(lru.iter_mru().collect::<Vec<_>>(), vec![4, 3, 2, 1]);
        lru.touch(2);
        assert_eq!(lru.iter_mru().collect::<Vec<_>>(), vec![2, 4, 3, 1]);
    }

    #[test]
    fn touch_missing_is_false() {
        let mut lru = ItemLru::new(2);
        assert!(!lru.touch(42));
    }

    /// Model-based test: the slab LRU behaves exactly like a naive
    /// Vec-based reference implementation under arbitrary op sequences.
    #[derive(Debug, Clone)]
    enum Op {
        Insert(ItemId),
        Touch(ItemId),
        Remove(ItemId),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..20).prop_map(Op::Insert),
            (0u64..20).prop_map(Op::Touch),
            (0u64..20).prop_map(Op::Remove),
        ]
    }

    struct NaiveLru {
        items: Vec<ItemId>, // front = MRU
        capacity: usize,
    }

    impl NaiveLru {
        fn insert(&mut self, item: ItemId) -> Option<ItemId> {
            if self.capacity == 0 {
                return None;
            }
            if let Some(pos) = self.items.iter().position(|&i| i == item) {
                self.items.remove(pos);
                self.items.insert(0, item);
                return None;
            }
            let evicted = if self.items.len() >= self.capacity {
                self.items.pop()
            } else {
                None
            };
            self.items.insert(0, item);
            evicted
        }
        fn touch(&mut self, item: ItemId) -> bool {
            if let Some(pos) = self.items.iter().position(|&i| i == item) {
                self.items.remove(pos);
                self.items.insert(0, item);
                true
            } else {
                false
            }
        }
        fn remove(&mut self, item: ItemId) -> bool {
            if let Some(pos) = self.items.iter().position(|&i| i == item) {
                self.items.remove(pos);
                true
            } else {
                false
            }
        }
    }

    proptest! {
        #[test]
        fn matches_reference_model(
            capacity in 0usize..6,
            ops in proptest::collection::vec(op_strategy(), 0..120),
        ) {
            let mut real = ItemLru::new(capacity);
            let mut model = NaiveLru { items: Vec::new(), capacity };
            for op in ops {
                match op {
                    Op::Insert(i) => prop_assert_eq!(real.insert(i), model.insert(i)),
                    Op::Touch(i) => prop_assert_eq!(real.touch(i), model.touch(i)),
                    Op::Remove(i) => prop_assert_eq!(real.remove(i), model.remove(i)),
                }
                prop_assert_eq!(real.len(), model.items.len());
                prop_assert_eq!(real.iter_mru().collect::<Vec<_>>(), model.items.clone());
            }
        }
    }
}
