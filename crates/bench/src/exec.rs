//! Shared scoped-thread work-stealing executor plus progress counters.
//!
//! Every parallel phase in the bench crate (the experiment matrix, the
//! Monte-Carlo sweep engine, the replicated yield/DVFS studies) runs on
//! this pool. Determinism contract: each job writes only its own result
//! slot, so the output vector is a pure function of the job list — the
//! thread count changes wall-clock time, never results.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Shared completion counter for long fan-outs: prints coarse progress
/// lines to stderr (never stdout, which carries results).
pub struct Progress {
    label: String,
    total: usize,
    done: AtomicUsize,
    started: Instant,
    /// Print every `every` completions (0 = silent).
    every: usize,
}

impl Progress {
    /// A progress counter over `total` jobs reporting every `every`
    /// completions (0 disables output).
    pub fn new(label: &str, total: usize, every: usize) -> Self {
        Progress {
            label: label.to_string(),
            total,
            done: AtomicUsize::new(0),
            started: Instant::now(),
            every,
        }
    }

    /// Records one completed job, printing when the cadence says so.
    pub fn tick(&self) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if self.every > 0 && (done.is_multiple_of(self.every) || done == self.total) {
            let elapsed = self.started.elapsed().as_secs_f64();
            let rate = done as f64 / elapsed.max(1e-9);
            let remaining = (self.total - done) as f64 / rate.max(1e-9);
            eprintln!(
                "[{}] {done}/{} jobs in {elapsed:.1}s (~{remaining:.1}s left)",
                self.label, self.total
            );
        }
    }

    /// Jobs completed so far.
    pub fn completed(&self) -> usize {
        self.done.load(Ordering::Relaxed)
    }
}

/// Runs `f` over every item on `threads` workers, returning results in
/// item order. Work-stealing via an atomic cursor; each job writes its
/// own slot, so results are identical for any thread count.
pub fn par_map<T, R, F>(threads: usize, items: &[T], progress: Option<&Progress>, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(i, &items[i]);
                *slots[i].lock().unwrap() = Some(r);
                if let Some(p) = progress {
                    p.tick();
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("every job ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = par_map(4, &items, None, |i, &x| {
            assert_eq!(i, x);
            x * 3
        });
        assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_is_thread_count_invariant() {
        let items: Vec<u64> = (0..57).collect();
        let run = |threads| par_map(threads, &items, None, |_, &x| x.wrapping_mul(x) ^ 7);
        assert_eq!(run(1), run(2));
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_map(4, &empty, None, |_, &x| x).is_empty());
        assert_eq!(par_map(4, &[9u8], None, |_, &x| x + 1), vec![10]);
    }

    #[test]
    fn progress_counts_completions() {
        let p = Progress::new("test", 10, 0);
        let items: Vec<usize> = (0..10).collect();
        par_map(3, &items, Some(&p), |_, &x| x);
        assert_eq!(p.completed(), 10);
    }
}
