//! Parallel scenario-sweep runner.
//!
//! The paper's workflow — and every experiment binary in this repo — is a
//! *sweep*: run `Network::build` + `Network::run` over a list of
//! independent `(topology × workload × resources)` points and collect the
//! reports. The points share no mutable state, so they parallelize
//! trivially; this module provides the bounded worker pool that fans them
//! out plus the concurrent memo-cache that lets scenarios share planning
//! work (CQF slot choice, ITP injection plans, derived resource
//! configurations). The cache takes any `Hash + Eq` key; the scenario
//! planner (`tsn_builder::SweepPlanner`) keys it by `u64`
//! [`tsn_types::digest::Digest`]s of values (a scenario's requirements
//! digest with its slot, options or base config), never by `Debug` text.
//!
//! Guarantees:
//!
//! * **Input-order output** — results come back indexed exactly like the
//!   inputs, independent of scheduling.
//! * **Determinism** — a scenario's result is the same for 1 worker, N
//!   workers, or a plain serial loop (the simulator itself is
//!   deterministic; the pool adds no coupling between runs).
//! * **Panic isolation** — a panicking scenario yields
//!   [`SweepError::Panicked`] for *its* slot; the other scenarios
//!   complete normally.
//!
//! # Example
//!
//! ```
//! use tsn_sim::sweep;
//!
//! let inputs = vec![1u64, 2, 3, 4];
//! let results = sweep::run_sweep(&inputs, 2, |_idx, &n| Ok(n * n));
//! let squares: Vec<u64> = results.into_iter().map(|r| r.unwrap()).collect();
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::collections::HashMap;
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use tsn_types::TsnError;

/// Why one sweep entry produced no report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// The scenario closure returned an error (bad topology, infeasible
    /// slot, unroutable flow, …).
    Failed(TsnError),
    /// The scenario panicked; the payload is the panic message. Only the
    /// offending entry is lost — the sweep itself completes.
    Panicked(String),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Failed(e) => write!(f, "scenario failed: {e}"),
            SweepError::Panicked(msg) => write!(f, "scenario panicked: {msg}"),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<TsnError> for SweepError {
    fn from(e: TsnError) -> Self {
        SweepError::Failed(e)
    }
}

/// The machine's available parallelism (≥ 1).
#[must_use]
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `f` over every item of `items` on a pool of at most `workers`
/// threads and returns the results **in input order**.
///
/// `f` receives the item index and the item; it may fail (mapped to
/// [`SweepError::Failed`]) or panic (mapped to [`SweepError::Panicked`])
/// without affecting the other entries. Items are claimed from a shared
/// counter, so an expensive scenario never stalls the queue behind it.
pub fn run_sweep<I, T, F>(items: &[I], workers: usize, f: F) -> Vec<Result<T, SweepError>>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> Result<T, TsnError> + Sync,
{
    let workers = workers.max(1).min(items.len().max(1));
    // One pre-allocated slot per item: workers write results by index, so
    // output order is the input order no matter who finishes first.
    let slots: Vec<Mutex<Option<Result<T, SweepError>>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= items.len() {
                    break;
                }
                let outcome = match catch_unwind(AssertUnwindSafe(|| f(idx, &items[idx]))) {
                    Ok(Ok(value)) => Ok(value),
                    Ok(Err(e)) => Err(SweepError::Failed(e)),
                    Err(payload) => Err(SweepError::Panicked(panic_message(&*payload))),
                };
                *slots[idx].lock().expect("result slot lock") = Some(outcome);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot lock")
                .expect("every index was claimed exactly once")
        })
        .collect()
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_owned()
    }
}

/// A concurrent memo-cache for shared planning work.
///
/// Scenarios in one sweep frequently repeat planning inputs — the same
/// `(flows, slot)` ITP plan under different resource configurations, the
/// same derived `ResourceConfig` under different backgrounds. Each
/// distinct key is computed exactly once, even under contention: the
/// first thread to claim a key runs `compute` while later threads block
/// on that key's cell (not on the whole cache) and then clone the result.
///
/// # Example
///
/// ```
/// use tsn_sim::sweep::PlanCache;
///
/// let cache: PlanCache<u32, u64> = PlanCache::new();
/// let a = cache.get_or_compute(7, || 7 * 7);
/// let b = cache.get_or_compute(7, || unreachable!("second lookup is a hit"));
/// assert_eq!((a, b), (49, 49));
/// assert_eq!((cache.hits(), cache.misses()), (1, 1));
/// ```
#[derive(Debug)]
pub struct PlanCache<K, V> {
    cells: Mutex<HashMap<K, Arc<OnceLock<V>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K, V> Default for PlanCache<K, V> {
    fn default() -> Self {
        PlanCache {
            cells: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl<K: Eq + Hash + Clone, V: Clone> PlanCache<K, V> {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Returns the cached value for `key`, computing it with `compute` on
    /// first use. The map lock is held only for the cell lookup, never
    /// during `compute`, so unrelated keys make progress concurrently.
    pub fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> V {
        let cell = {
            let mut cells = self.cells.lock().expect("plan cache lock");
            Arc::clone(cells.entry(key).or_default())
        };
        let mut computed_here = false;
        let value = cell
            .get_or_init(|| {
                computed_here = true;
                compute()
            })
            .clone();
        if computed_here {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        value
    }

    /// Lookups that found an already-computed value.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to compute.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Every key looked up so far, in no particular order.
    #[must_use]
    pub fn keys(&self) -> Vec<K> {
        self.cells
            .lock()
            .expect("plan cache lock")
            .keys()
            .cloned()
            .collect()
    }

    /// Number of distinct keys computed so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.lock().expect("plan cache lock").len()
    }

    /// `true` when no key has been touched yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time snapshot of the counters.
    ///
    /// Because each lookup bumps exactly one counter and every distinct
    /// key computes exactly once, `misses` equals the number of distinct
    /// keys seen and `hits + misses` equals total lookups — both are
    /// schedule-independent for a fixed workload, which lets callers
    /// (e.g. the `dse` batch response) report cache statistics
    /// byte-deterministically across worker counts.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits(),
            misses: self.misses(),
            entries: self.len(),
        }
    }
}

/// Counter snapshot of a [`PlanCache`], see [`PlanCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from an already-computed cell.
    pub hits: u64,
    /// Lookups that ran the compute closure.
    pub misses: u64,
    /// Distinct keys resident.
    pub entries: usize,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when untouched).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        // Make later items finish first: item i sleeps inversely to i.
        let items: Vec<u64> = (0..16).collect();
        let results = run_sweep(&items, 8, |_idx, &n| {
            std::thread::sleep(std::time::Duration::from_millis(16 - n));
            Ok(n * 10)
        });
        let values: Vec<u64> = results.into_iter().map(|r| r.expect("ok")).collect();
        assert_eq!(values, (0..16).map(|n| n * 10).collect::<Vec<_>>());
    }

    #[test]
    fn one_worker_equals_many_workers() {
        let items: Vec<u64> = (0..24).collect();
        let f = |_: usize, n: &u64| Ok(n.wrapping_mul(0x9e37_79b9).rotate_left(13));
        let serial: Vec<_> = run_sweep(&items, 1, f);
        let parallel: Vec<_> = run_sweep(&items, 8, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn a_panicking_item_is_isolated() {
        let items: Vec<u32> = vec![1, 2, 3, 4];
        let results = run_sweep(&items, 4, |_idx, &n| {
            assert!(n != 3, "item three explodes");
            Ok(n)
        });
        assert_eq!(results[0], Ok(1));
        assert_eq!(results[1], Ok(2));
        assert!(matches!(&results[2], Err(SweepError::Panicked(msg)) if msg.contains("explodes")));
        assert_eq!(results[3], Ok(4));
    }

    #[test]
    fn a_failing_item_surfaces_its_error() {
        let items = vec![0u32, 1];
        let results = run_sweep(&items, 2, |_idx, &n| {
            if n == 0 {
                Err(TsnError::invalid_parameter("n", "zero"))
            } else {
                Ok(n)
            }
        });
        assert!(matches!(&results[0], Err(SweepError::Failed(_))));
        assert_eq!(results[1], Ok(1));
    }

    #[test]
    fn empty_input_is_fine() {
        let results: Vec<Result<u32, _>> = run_sweep(&[], 4, |_idx, n: &u32| Ok(*n));
        assert!(results.is_empty());
    }

    #[test]
    fn cache_computes_each_key_once() {
        let cache: PlanCache<u32, u32> = PlanCache::new();
        let computes = AtomicUsize::new(0);
        let keys: Vec<u32> = (0..64).map(|i| i % 4).collect();
        run_sweep(&keys, 8, |_idx, &k| {
            Ok(cache.get_or_compute(k, || {
                computes.fetch_add(1, Ordering::Relaxed);
                k * 2
            }))
        })
        .into_iter()
        .zip(&keys)
        .for_each(|(r, &k)| assert_eq!(r.expect("ok"), k * 2));
        assert_eq!(computes.load(Ordering::Relaxed), 4, "4 distinct keys");
        assert_eq!(cache.misses(), 4);
        assert_eq!(cache.hits(), 60);
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn available_workers_is_positive() {
        assert!(available_workers() >= 1);
    }
}
