//! Offline stand-in for `rayon`.
//!
//! Provides the parallel-iterator subset the workspace uses
//! (`into_par_iter` on ranges and vectors, `map`, `enumerate`,
//! `for_each`, `collect`) with *real* parallelism: items are split into
//! contiguous chunks, one per available core, executed on scoped threads.
//! Order is preserved by `collect`, exactly like rayon.
//!
//! Unlike rayon there is no work-stealing pool: each call spawns scoped
//! threads for all chunks but the first, which the calling thread runs.
//! The workloads in this repository hand over coarse-grained items (one
//! whole linear solve per item), so per-call thread spawn cost is small
//! against the work performed.

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Number of worker threads to use for a batch of `len` items.
fn workers_for(len: usize) -> usize {
    cores().min(len).max(1)
}

/// The host's available parallelism, read once, as rayon sizes its pool
/// once. On Linux `available_parallelism` re-reads the cgroup quota
/// files on every call, which would put file opens and reads on every
/// batched launch.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Run `f` over `items` on scoped threads, preserving item order in the
/// returned vector. Chunks are contiguous, so thread `t` handles items
/// `[t*chunk, ...)` — deterministic assignment, deterministic output.
fn parallel_map<T, R, F>(items: Vec<T>, f: &F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let len = items.len();
    if len == 0 {
        return Vec::new();
    }
    let workers = workers_for(len);
    if workers == 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk = len.div_ceil(workers);
    let mut slots: Vec<Vec<T>> = Vec::with_capacity(workers);
    let mut items = items;
    // Split from the back to avoid repeated shifts; reverse to restore order.
    while !items.is_empty() {
        let at = items.len().saturating_sub(chunk);
        slots.push(items.split_off(at));
    }
    slots.reverse();
    let mut slots = slots.into_iter();
    let first = slots.next().expect("a non-empty batch has a first chunk");
    std::thread::scope(|scope| {
        let handles: Vec<_> = slots
            .map(|part| scope.spawn(move || part.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        let mut out: Vec<R> = Vec::with_capacity(len);
        out.extend(first.into_iter().map(f));
        for h in handles {
            out.extend(h.join().expect("rayon-shim worker panicked"));
        }
        out
    })
}

/// A materialized parallel iterator (items are owned up front).
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Pair every item with its index, like `ParallelIterator::enumerate`.
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    /// Lazy parallel map; the closure runs on worker threads at the
    /// terminal operation (`collect` / `for_each`).
    pub fn map<R, F>(self, f: F) -> ParMap<T, F>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Consume every item in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        parallel_map(self.items, &|item| f(item));
    }

    /// Collect the items (identity pipeline), preserving order.
    pub fn collect<C: From<Vec<T>>>(self) -> C {
        C::from(self.items)
    }
}

/// A parallel map pipeline awaiting its terminal operation.
pub struct ParMap<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T, R, F> ParMap<T, F>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    /// Run the map on worker threads and collect in item order.
    pub fn collect<C: From<Vec<R>>>(self) -> C {
        C::from(parallel_map(self.items, &self.f))
    }

    /// Run the map for its effects only.
    pub fn for_each<G>(self, g: G)
    where
        G: Fn(R) + Sync,
    {
        let f = self.f;
        parallel_map(self.items, &|item| g(f(item)));
    }
}

/// Conversion into a parallel iterator (rayon's entry-point trait).
pub trait IntoParallelIterator {
    /// Item type of the iterator.
    type Item: Send;

    /// Materialize the parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

impl IntoParallelIterator for std::ops::Range<u32> {
    type Item = u32;
    fn into_par_iter(self) -> ParIter<u32> {
        ParIter {
            items: self.collect(),
        }
    }
}

pub mod prelude {
    //! Glob-import surface, mirroring `rayon::prelude`.
    pub use super::IntoParallelIterator;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let out: Vec<usize> = (0..1000usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(out.len(), 1000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 2 * i);
        }
    }

    #[test]
    fn enumerate_matches_sequential() {
        let data = vec!["a", "b", "c", "d"];
        let out: Vec<(usize, &str)> = data.clone().into_par_iter().enumerate().collect();
        assert_eq!(out, data.into_iter().enumerate().collect::<Vec<_>>());
    }

    #[test]
    fn for_each_runs_every_item() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let hits = AtomicUsize::new(0);
        (0..257usize).into_par_iter().for_each(|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 257);
    }

    #[test]
    fn actually_uses_multiple_threads_when_available() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let ids: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        (0..64usize).into_par_iter().for_each(|_| {
            ids.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        let distinct = ids.lock().unwrap().len();
        let cores = std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1);
        if cores > 1 {
            assert!(distinct > 1, "expected >1 worker threads, saw {distinct}");
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = Vec::<u32>::new().into_par_iter().map(|v| v).collect();
        assert!(out.is_empty());
    }
}
