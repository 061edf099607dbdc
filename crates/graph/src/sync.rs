//! Panic-free mutex access, and the one lock-free parallel fan-out.
//!
//! A poisoned `Mutex` means some other thread panicked while holding the
//! lock. Every mutex in this workspace guards data whose invariants are
//! maintained *before* the lock is released (caches, accumulators,
//! worklists), so the guarded value is still coherent after a poison —
//! recovering it is strictly better than propagating a second panic out
//! of an otherwise-healthy thread. These helpers centralize that policy
//! so callers never need `lock().unwrap()`.
//!
//! [`fan_out`] is how the workspace runs independent per-index work on
//! several cores, and the only fork in its libraries: APSP's rows (one
//! SSSP per source), `hl_core::cover`'s sources, `hl_core::pll`'s pruned waves,
//! `ShardRouter::query_many`'s shard waiters, `QueryEngine::query_batch`'s
//! shares of a split batch, and a v2 store's three section decodes. A
//! spawn the OS refuses costs it parallelism, never an error or a panic.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread;

/// The machine's available parallelism (at least 1): the worker count of
/// a fan-out whose caller has no width of its own.
pub fn machine_workers() -> usize {
    thread::available_parallelism().map_or(1, |p| p.get())
}

/// Runs `work(state, i)` for every `i` in `0..len` and returns the
/// results in index order.
///
/// Each element of `states` is one worker's private state (a search
/// scratch, or `()`). The calling thread is worker 0 and owns the first
/// state; one scoped thread per further state (at most `len` workers in
/// all) joins it. Every worker pulls indices from a shared cursor and
/// keeps its own `(index, result)` pairs, which are put in order once
/// every worker has joined: no lock is taken. A spawn the OS refuses
/// leaves its indices to the workers that exist, down to the caller
/// alone. The results do not depend on the schedule. `states` must be
/// non-empty when `len > 0`.
///
/// # Errors
///
/// Returns the panic payload of a worker that panicked, the caller's
/// own share included.
pub fn fan_out<S: Send, T: Send>(
    states: &mut [S],
    len: usize,
    work: impl Fn(&mut S, usize) -> T + Sync,
) -> thread::Result<Vec<T>> {
    let Some((mine, theirs)) = states.split_first_mut() else {
        return Ok(Vec::new());
    };
    let cursor = AtomicUsize::new(0);
    let pull = |state: &mut S| {
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= len {
                break done;
            }
            done.push((i, work(state, i)));
        }
    };
    let per_worker = thread::scope(|scope| {
        let handles: Vec<_> = theirs
            .iter_mut()
            .take(len.saturating_sub(1))
            .map_while(|state| {
                let pull = &pull;
                thread::Builder::new()
                    .spawn_scoped(scope, move || pull(state))
                    .ok()
            })
            .collect();
        let own = panic::catch_unwind(AssertUnwindSafe(|| pull(mine)));
        let spawned = handles
            .into_iter()
            .map(thread::ScopedJoinHandle::join)
            .collect::<thread::Result<Vec<_>>>();
        spawned.and_then(|mut all| {
            all.push(own?);
            Ok(all)
        })
    })?;
    let mut placed: Vec<(usize, T)> = per_worker.into_iter().flatten().collect();
    placed.sort_unstable_by_key(|&(i, _)| i);
    Ok(placed.into_iter().map(|(_, t)| t).collect())
}

/// Locks `m`, recovering the guard if the mutex was poisoned.
pub fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Acquires a read guard on `l`, recovering from poison.
pub fn read_unpoisoned<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Acquires a write guard on `l`, recovering from poison.
pub fn write_unpoisoned<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, RwLock};

    #[test]
    fn lock_roundtrip() {
        let m = Mutex::new(7u32);
        *lock_unpoisoned(&m) += 1;
        assert_eq!(*lock_unpoisoned(&m), 8);
    }

    #[test]
    fn rwlock_read_write_roundtrip() {
        let l = RwLock::new(3u32);
        *write_unpoisoned(&l) += 1;
        assert_eq!(*read_unpoisoned(&l), 4);
    }

    #[test]
    fn poisoned_rwlock_is_recovered() {
        let l = std::sync::Arc::new(RwLock::new(9u32));
        let l2 = l.clone();
        let _ = std::thread::spawn(move || {
            let _guard = l2.write();
            panic!("poison the lock");
        })
        .join();
        assert!(l.is_poisoned());
        *write_unpoisoned(&l) += 1;
        assert_eq!(*read_unpoisoned(&l), 10);
    }

    #[test]
    fn fan_out_returns_results_in_index_order() {
        for workers in [1, 2, 3] {
            let mut calls = vec![0usize; workers];
            let out = fan_out(&mut calls, 50, |calls, i| {
                *calls += 1;
                i * i
            })
            .unwrap();
            assert_eq!(out, (0..50).map(|i| i * i).collect::<Vec<_>>());
            assert_eq!(calls.iter().sum::<usize>(), 50, "{workers} workers");
        }
        assert!(fan_out(&mut [(), ()], 0, |(), i| i).unwrap().is_empty());
    }

    #[test]
    fn fan_out_reports_a_worker_panic() {
        let out = fan_out(&mut [(), ()], 8, |(), i| {
            assert_ne!(i, 5, "worker fails on index 5");
            i
        });
        assert!(out.is_err());
    }

    /// Two states and two indices meet at a `Barrier(2)`: the two run at
    /// once, one on a spawned thread and one on the caller's.
    #[test]
    fn fan_out_runs_the_caller_as_worker_zero() {
        let meet = std::sync::Barrier::new(2);
        let ran = fan_out(&mut [(), ()], 2, |(), _| {
            meet.wait();
            thread::current().id()
        })
        .unwrap();
        assert_ne!(ran[0], ran[1], "two workers ran");
        assert!(ran.contains(&thread::current().id()), "{ran:?}");
    }

    #[test]
    fn poisoned_mutex_is_recovered() {
        let m = std::sync::Arc::new(Mutex::new(41u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison the lock");
        })
        .join();
        assert!(m.is_poisoned());
        *lock_unpoisoned(&m) += 1;
        assert_eq!(*lock_unpoisoned(&m), 42);
    }
}
