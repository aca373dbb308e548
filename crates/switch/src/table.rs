//! A capacity-limited lookup table.
//!
//! Hardware tables have a fixed number of entries — that is the entire
//! point of the paper's customization model. [`CapTable`] behaves like a
//! map that refuses inserts beyond its configured capacity, so an
//! under-provisioned `class_size` or `unicast_size` fails *visibly* (the
//! same way the FPGA table would stop learning), and occupancy and
//! rejected inserts are tracked for reports.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use tsn_types::{TsnError, TsnResult};

/// Deterministic multiply-xor hasher (the `FxHash` construction from
/// rustc). Lookup tables sit on the per-frame hot path — one classify
/// plus one forwarding lookup per hop — and profiling the 100k-flow
/// plant showed SipHash itself as the largest single cost there. The
/// table's iteration order is never observable (no `CapTable` API
/// exposes it), so a weaker, faster hash cannot leak into reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher(u64);

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`] — zero-state, so every map hashes
/// identically across runs (part of the determinism story).
pub type FxBuild = BuildHasherDefault<FxHasher>;

/// A fixed-capacity key/value table with occupancy statistics.
///
/// # Example
///
/// ```
/// use tsn_switch::table::CapTable;
///
/// let mut t: CapTable<u32, &str> = CapTable::new("demo table", 2);
/// t.insert(1, "a")?;
/// t.insert(2, "b")?;
/// assert!(t.insert(3, "c").is_err(), "third entry exceeds capacity");
/// assert_eq!(t.get(&1), Some(&"a"));
/// assert_eq!(t.occupancy(), 2);
/// # Ok::<(), tsn_types::TsnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CapTable<K, V> {
    name: &'static str,
    capacity: usize,
    entries: HashMap<K, V, FxBuild>,
    rejected_inserts: u64,
}

impl<K: Eq + Hash, V> CapTable<K, V> {
    /// Creates an empty table that accepts up to `capacity` entries.
    /// `name` is used in error messages (e.g. `"classification table"`).
    ///
    /// The capacity is the modelled hardware's size and only ever a check
    /// on inserts: no storage is reserved up front. Callers that know how
    /// many entries they will install size the storage with
    /// [`CapTable::reserve`].
    #[must_use]
    pub fn new(name: &'static str, capacity: usize) -> Self {
        CapTable {
            name,
            capacity,
            entries: HashMap::with_hasher(FxBuild::default()),
            rejected_inserts: 0,
        }
    }

    /// Inserts an entry. Overwriting an existing key is always allowed
    /// (it does not grow the table).
    ///
    /// # Errors
    ///
    /// Returns [`TsnError::CapacityExceeded`] if the table is full and the
    /// key is new. The rejection is also counted in
    /// [`CapTable::rejected_inserts`].
    pub fn insert(&mut self, key: K, value: V) -> TsnResult<Option<V>> {
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            self.rejected_inserts += 1;
            return Err(TsnError::capacity(self.name, self.capacity));
        }
        Ok(self.entries.insert(key, value))
    }

    /// Reserves storage for `entries` more entries, clipped to the room
    /// the capacity still leaves: inserts beyond it are rejected anyway.
    /// Storage only; the capacity and every insert outcome are unchanged.
    pub fn reserve(&mut self, entries: usize) {
        let room = self.capacity.saturating_sub(self.entries.len());
        self.entries.reserve(entries.min(room));
    }

    /// Looks up a key.
    #[must_use]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.entries.get(key)
    }

    /// Mutable access to an entry.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.entries.get_mut(key)
    }

    /// Removes an entry, returning it if present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.entries.remove(key)
    }

    /// Removes all entries (the rejected-insert count is kept).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Re-provisions the table to `capacity` entries, keeping the current
    /// contents — the incremental-reconfiguration path, where a cloned,
    /// already-programmed table is adopted under a new resource
    /// configuration instead of being rebuilt entry by entry.
    ///
    /// Returns `false` (leaving the table untouched) when the current
    /// occupancy does not fit: a from-scratch build at that capacity
    /// would have rejected an insert, so the caller must fall back to the
    /// full replay to reproduce that rejection exactly.
    #[must_use]
    pub fn set_capacity(&mut self, capacity: usize) -> bool {
        if self.entries.len() > capacity {
            return false;
        }
        self.capacity = capacity;
        true
    }

    /// Current number of entries.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// `true` when no further new keys fit.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Inserts rejected because the table was full.
    #[must_use]
    pub fn rejected_inserts(&self) -> u64 {
        self.rejected_inserts
    }

    /// Occupancy as a fraction of capacity (0 when capacity is 0).
    #[must_use]
    pub fn utilization(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.entries.len() as f64 / self.capacity as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_is_enforced_for_new_keys_only() {
        // Reserved storage, even beyond the capacity, moves no outcome.
        for reserve in [0, 2, 64] {
            let mut t: CapTable<u8, u8> = CapTable::new("t", 2);
            t.reserve(reserve);
            t.insert(1, 10).expect("fits");
            t.insert(2, 20).expect("fits");
            assert!(t.is_full());
            assert_eq!(t.insert(3, 30), Err(TsnError::capacity("t", 2)));
            // Overwrite of an existing key is fine even when full.
            assert_eq!(t.insert(1, 11).expect("overwrite allowed"), Some(10));
            assert_eq!(t.get(&1), Some(&11));
            assert_eq!(t.occupancy(), 2);
            assert_eq!(t.rejected_inserts(), 1, "an overwrite is not a rejection");
        }
    }

    #[test]
    fn lookups_hit_inserted_keys_and_miss_others() {
        let mut t: CapTable<u8, u8> = CapTable::new("t", 4);
        t.insert(1, 10).expect("fits");
        assert_eq!(t.get(&1), Some(&10));
        assert_eq!(t.get(&9), None);
        // A miss inserts nothing: the table still holds one entry.
        assert_eq!(t.get(&9), None);
        assert_eq!(t.occupancy(), 1);
        *t.get_mut(&1).expect("hit") = 11;
        assert_eq!(t.get(&1), Some(&11));
        assert_eq!(t.get_mut(&9), None);
    }

    #[test]
    fn remove_and_clear_free_space() {
        let mut t: CapTable<u8, u8> = CapTable::new("t", 1);
        t.insert(1, 1).expect("fits");
        assert!(t.insert(2, 2).is_err());
        assert_eq!(t.remove(&1), Some(1));
        t.insert(2, 2).expect("fits after removal");
        t.clear();
        assert_eq!(t.occupancy(), 0);
        assert!(!t.is_full());
    }

    #[test]
    fn utilization_fraction() {
        let mut t: CapTable<u8, u8> = CapTable::new("t", 4);
        assert_eq!(t.utilization(), 0.0);
        t.insert(1, 1).expect("fits");
        assert_eq!(t.utilization(), 0.25);
        let z: CapTable<u8, u8> = CapTable::new("z", 0);
        assert_eq!(z.utilization(), 0.0);
    }

    #[test]
    fn a_reserve_beyond_the_capacity_is_clipped() {
        let mut t: CapTable<u32, u32> = CapTable::new("t", 4);
        assert_eq!(t.entries.capacity(), 0, "nothing reserved up front");
        t.reserve(100_000);
        assert!(
            (4..16).contains(&t.entries.capacity()),
            "storage for 4 entries, not 100k: {}",
            t.entries.capacity()
        );
        assert_eq!(t.capacity(), 4, "a reserve never moves the capacity");
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let mut t: CapTable<u8, u8> = CapTable::new("t", 0);
        assert!(t.insert(1, 1).is_err());
    }
}
