//! A dense, `FlowId`-indexed map.
//!
//! Flow identifiers are allocated densely from zero (background flows use
//! a fixed base offset), so a flat slot vector beats a tree or hash map on
//! the simulator's per-frame hot paths: lookups are one bounds check and
//! one index, iteration is in id order (which keeps float aggregation
//! deterministic), and the 100k–1M-flow working set stays contiguous.

use crate::ids::FlowId;
use core::fmt;

/// A map from [`FlowId`] to `T` backed by a dense slot vector.
///
/// Missing entries cost one `Option` discriminant each, which is fine for
/// the near-dense id spaces the workloads produce. Iteration order is
/// ascending flow id.
///
/// # Example
///
/// ```
/// use tsn_types::{FlowId, FlowMap};
///
/// let mut m: FlowMap<u64> = FlowMap::new();
/// m.insert(FlowId::new(3), 30);
/// m.insert(FlowId::new(1), 10);
/// assert_eq!(m.get(FlowId::new(3)), Some(&30));
/// assert_eq!(m.get(FlowId::new(2)), None);
/// assert_eq!(m.len(), 2);
/// let ids: Vec<u32> = m.iter().map(|(id, _)| id.index()).collect();
/// assert_eq!(ids, vec![1, 3]);
/// ```
#[derive(Clone)]
pub struct FlowMap<T> {
    slots: Vec<Option<T>>,
    len: usize,
}

impl<T> FlowMap<T> {
    /// Creates an empty map.
    #[must_use]
    pub fn new() -> Self {
        FlowMap {
            slots: Vec::new(),
            len: 0,
        }
    }

    /// Creates an empty map with room for flow ids `0..capacity` without
    /// reallocating.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        FlowMap {
            slots: Vec::with_capacity(capacity),
            len: 0,
        }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the map holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a value, returning the previous one if the flow was
    /// already present.
    pub fn insert(&mut self, flow: FlowId, value: T) -> Option<T> {
        let idx = flow.as_usize();
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        let old = self.slots[idx].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Looks up a flow.
    #[must_use]
    pub fn get(&self, flow: FlowId) -> Option<&T> {
        self.slots.get(flow.as_usize())?.as_ref()
    }

    /// Mutable lookup.
    #[must_use]
    pub fn get_mut(&mut self, flow: FlowId) -> Option<&mut T> {
        self.slots.get_mut(flow.as_usize())?.as_mut()
    }

    /// `true` when the flow has an entry.
    #[must_use]
    pub fn contains_key(&self, flow: FlowId) -> bool {
        self.get(flow).is_some()
    }

    /// Removes an entry, returning it if present. The slot stays
    /// allocated (ids are never reused within a run).
    pub fn remove(&mut self, flow: FlowId) -> Option<T> {
        let old = self.slots.get_mut(flow.as_usize())?.take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Iterates entries in ascending flow-id order.
    pub fn iter(&self) -> impl Iterator<Item = (FlowId, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(idx, slot)| slot.as_ref().map(|v| (FlowId::new(idx as u32), v)))
    }

    /// Iterates values in ascending flow-id order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// Iterates keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = FlowId> + '_ {
        self.iter().map(|(id, _)| id)
    }
}

impl<T> Default for FlowMap<T> {
    fn default() -> Self {
        FlowMap::new()
    }
}

// Manual impl: trailing empty slots are representation detail, not state —
// two maps with the same entries must compare equal however they were
// grown.
impl<T: PartialEq> PartialEq for FlowMap<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T: fmt::Debug> fmt::Debug for FlowMap<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// A collected map holds exactly its highest id + 1 slots: dense ids
/// fill the iterator's size hint without growing, and any growth slack
/// from sparse ids is released at the end.
impl<T> FromIterator<(FlowId, T)> for FlowMap<T> {
    fn from_iter<I: IntoIterator<Item = (FlowId, T)>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut map = FlowMap::with_capacity(iter.size_hint().0);
        for (flow, value) in iter {
            map.insert(flow, value);
        }
        map.slots.shrink_to_fit();
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = FlowMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(FlowId::new(5), "a"), None);
        assert_eq!(m.insert(FlowId::new(5), "b"), Some("a"));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(FlowId::new(5)), Some(&"b"));
        assert!(!m.contains_key(FlowId::new(4)));
        assert_eq!(m.remove(FlowId::new(5)), Some("b"));
        assert_eq!(m.remove(FlowId::new(5)), None);
        assert!(m.is_empty());
    }

    #[test]
    fn iteration_is_id_ordered() {
        let m: FlowMap<u32> = [(FlowId::new(7), 70), (FlowId::new(2), 20)]
            .into_iter()
            .collect();
        let pairs: Vec<(u32, u32)> = m.iter().map(|(id, &v)| (id.index(), v)).collect();
        assert_eq!(pairs, vec![(2, 20), (7, 70)]);
        assert_eq!(m.values().copied().collect::<Vec<_>>(), vec![20, 70]);
    }

    #[test]
    fn a_collected_map_keeps_no_slack() {
        let dense: FlowMap<u64> = (0..1000u32).map(|i| (FlowId::new(i), 0)).collect();
        assert_eq!(dense.slots.capacity(), 1000);
        let filtered: FlowMap<u64> = (0..1000u32)
            .filter(|i| i % 3 == 0)
            .map(|i| (FlowId::new(i), 0))
            .collect();
        assert_eq!(filtered.slots.capacity(), 999 + 1);
        let sparse: FlowMap<u8> = [(FlowId::new(5000), 1), (FlowId::new(2), 2)]
            .into_iter()
            .collect();
        assert_eq!(sparse.slots.capacity(), 5001);
        assert_eq!(sparse.len(), 2);
    }

    #[test]
    fn equality_ignores_trailing_capacity() {
        let mut a = FlowMap::new();
        a.insert(FlowId::new(1), 1u8);
        let mut b = FlowMap::new();
        b.insert(FlowId::new(1), 1u8);
        b.insert(FlowId::new(100), 2u8);
        b.remove(FlowId::new(100));
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        b.insert(FlowId::new(1), 3u8);
        assert_ne!(a, b);
    }
}
