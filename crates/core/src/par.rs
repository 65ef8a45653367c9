//! A tiny deterministic fork-join helper.
//!
//! The analysis fans independent work items (per-statement / per-depth
//! candidate derivations, per-kernel suite rows) out over OS threads. The
//! container this project builds in has no third-party crates available, so
//! this is a ~40-line stand-in for `rayon`'s `par_iter().map().collect()`:
//! scoped worker threads pull indices from an atomic counter and write into
//! per-index slots, and results come back **in input order** regardless of
//! which thread finished when — callers observe exactly the same value a
//! serial map would produce.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Maps `f` over `items`, using up to `available_parallelism` worker threads,
/// and returns the results in input order. Falls back to a plain serial map
/// when there is a single item or a single core.
///
/// The caller's **ambient engine session**, when it has one, is propagated
/// into every worker thread, so a parallel map inside an
/// [`iolb_poly::EngineCtx`] scope keeps all polyhedral work (cache, stats,
/// interner) in that session. Outside a scope the workers run unscoped too,
/// and each item opens whatever session it needs.
///
/// # Panics
///
/// Propagates the first worker panic (like `rayon`'s `par_iter`).
pub fn parallel_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let n = items.len();
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n);
    if workers <= 1 {
        return items.iter().map(&f).collect();
    }
    let engine = iolb_poly::EngineCtx::try_current();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let _session = engine.as_ref().map(|engine| engine.enter());
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let v = f(&items[i]);
                    *slots[i].lock().unwrap() = Some(v);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("worker filled every slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map(&items, |&i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton() {
        let empty: Vec<u8> = vec![];
        assert!(parallel_map(&empty, |&b| b).is_empty());
        assert_eq!(parallel_map(&[7], |&b: &i32| b + 1), vec![8]);
    }

    #[test]
    fn propagates_the_ambient_session() {
        let session = iolb_poly::EngineCtx::new();
        let items: Vec<u32> = (0..64).collect();
        session.scope(|| {
            let ids = parallel_map(&items, |_| iolb_poly::EngineCtx::current().id());
            assert!(ids.iter().all(|&id| id == session.id()));
        });
    }

    #[test]
    #[should_panic]
    fn propagates_worker_panics() {
        let items: Vec<usize> = (0..8).collect();
        let _ = parallel_map(&items, |&i| {
            if i == 3 {
                panic!("boom");
            }
            i
        });
    }
}
