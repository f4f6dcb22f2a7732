//! Zero-dependency parallel sweep executor.
//!
//! The paper's methodology is a design-space sweep of independent runs
//! (Tables II–III), and each run is a pure function of its `Experiment` —
//! simulated machines share no state. That makes the sweep embarrassingly
//! parallel on the host: results are collected into submission-order
//! slots, so callers see the same `Vec` regardless of which worker
//! finished first, and every report is identical under `--jobs N`.
//!
//! Built on [`std::thread::scope`] + one [`AtomicUsize`] work index — no
//! external crates, matching the repo's zero-dependency rule.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A slot is locked only to store a finished result, so no panic can
/// poison it.
const POISONED: &str = "a slot's lock is never held across a panic";

/// The host's available parallelism (≥ 1); the default for `--jobs 0`.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Map `f` over `items` using up to `jobs` worker threads, returning results
/// in submission order.
///
/// `f` is called as `f(index, &item)`. With `jobs <= 1` (or a single item)
/// the map runs inline on the caller's thread — no threads, so serial
/// behaviour is exactly the pre-existing loop. With more jobs, each worker
/// pulls the next unclaimed index and fills that index's slot.
///
/// A panic in `f` propagates to the caller once the scope joins.
pub fn parallel_map<I, O, F>(items: &[I], jobs: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(usize, &I) -> O + Sync,
{
    let jobs = jobs.max(1).min(items.len());
    if jobs <= 1 {
        return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<O>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let out = f(i, item);
                *slots[i].lock().expect(POISONED) = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect(POISONED).expect("scope joined with an unfilled slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_arrive_in_submission_order() {
        let items: Vec<usize> = (0..64).collect();
        for jobs in [1, 2, 4, 7] {
            let out = parallel_map(&items, jobs, |i, &x| {
                assert_eq!(i, x);
                x * 10
            });
            assert_eq!(out, (0..64).map(|x| x * 10).collect::<Vec<_>>(), "jobs={jobs}");
        }
    }

    #[test]
    fn jobs_one_runs_inline_on_the_caller_thread() {
        let caller = std::thread::current().id();
        let out = parallel_map(&[1u32, 2, 3], 1, |_, &x| {
            assert_eq!(std::thread::current().id(), caller);
            x + 1
        });
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let count = AtomicUsize::new(0);
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, 8, |_, &x| {
            count.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(count.load(Ordering::Relaxed), 100);
        assert_eq!(out.iter().sum::<u64>(), 99 * 100 / 2);
    }
}
