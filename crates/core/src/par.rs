//! Shared scoped worker pool for sweep fan-out.
//!
//! Every parallel stage in the experiment pipeline has the same shape:
//! a fixed list of independent jobs, workers pulling indices from an
//! atomic cursor, and results landing in index-order slots so output is
//! deterministic regardless of scheduling. This module is that shape,
//! extracted once; `run_compression_sweep` and `run_transit_sweep` both
//! use it instead of growing their own inline pools.

use lcpio_codec::chunked::effective_threads;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Apply `f` to every item on up to `threads` scoped workers (0 ⇒ all
/// cores), returning results in item order. Panics in `f` propagate when
/// the scope joins. Falls back to a plain sequential map for one worker
/// or tiny inputs, so callers never pay thread spawn cost needlessly.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = effective_threads(threads).min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(i, &items[i]);
                *slots[i].lock().expect("slot lock") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("slot lock").expect("every job filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn preserves_item_order() {
        let items: Vec<u32> = (0..100).collect();
        for threads in [0, 1, 3, 8] {
            let out = par_map(&items, threads, |i, &x| (i as u32, x * 2));
            assert_eq!(out.len(), items.len());
            for (i, (idx, doubled)) in out.iter().enumerate() {
                assert_eq!(*idx as usize, i);
                assert_eq!(*doubled, items[i] * 2);
            }
        }
    }

    #[test]
    fn runs_every_job_exactly_once() {
        let calls = AtomicU32::new(0);
        let items: Vec<usize> = (0..57).collect();
        let out = par_map(&items, 4, |_, &x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out, items);
        assert_eq!(calls.load(Ordering::Relaxed), 57);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u8> = par_map(&[] as &[u8], 4, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn effective_threads_resolves_auto() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(3), 3);
    }
}
