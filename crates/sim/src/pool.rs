//! A small deterministic fork-join executor for independent jobs.
//!
//! This is the second parallelism layer of the reproduction: [`sharded`]
//! parallelises *inside* one simulation (shards in lock-step epochs), while
//! this module parallelises *across* independent simulations — the campaign
//! runner's experiment cells, each a pure function of its spec. Jobs are
//! claimed from a shared atomic index (work stealing in its simplest form:
//! whoever finishes early takes the next unclaimed job), so an uneven mix of
//! cheap and expensive cells still keeps every worker busy.
//!
//! Determinism contract: the result vector is indexed by job, never by
//! completion order, so the output of [`run_indexed`] is identical for every
//! worker count — including `jobs = 1`, which runs inline on the calling
//! thread with no pool at all. Callers may therefore treat the worker count
//! as a pure wall-clock knob, exactly like the `workers` argument of
//! [`run_epochs`](crate::sharded::run_epochs).
//!
//! [`sharded`]: crate::sharded

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `count` independent jobs on up to `jobs` worker threads and returns
/// their results in job order.
///
/// `f` is invoked at most once per index in `0..count`, from an unspecified
/// thread. `jobs = 0` means "auto": the host's [`auto_jobs`]. With one
/// effective worker (or fewer than two jobs) everything runs inline on the
/// calling thread in index order.
///
/// A panicking job propagates its panic to the caller with the original
/// payload. Failure is deterministic like success: once a job panics no new
/// jobs are claimed, in-flight jobs finish, and the panic that is re-raised
/// is always the one from the **lowest** panicking index — never whichever
/// worker thread happened to abort first.
///
/// ```
/// let squares = cni_sim::pool::run_indexed(4, 8, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
pub fn run_indexed<R, F>(jobs: usize, count: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let jobs = if jobs == 0 { auto_jobs() } else { jobs };
    let workers = jobs.min(count);
    if workers <= 1 {
        // Inline runs are in index order, so the first panic is already the
        // lowest-index one.
        return (0..count).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let done = Mutex::new(Vec::with_capacity(count));
    let panics: Mutex<Vec<(usize, Box<dyn Any + Send>)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                // Claim-execute-deposit: batching deposits per worker would
                // save lock traffic, but jobs here are whole simulations —
                // milliseconds to seconds each — so one uncontended lock per
                // job is noise, and depositing immediately keeps a panic in
                // one job from discarding its siblings' finished work.
                loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= count {
                        break;
                    }
                    match catch_unwind(AssertUnwindSafe(|| f(index))) {
                        Ok(result) => done.lock().unwrap().push((index, result)),
                        Err(payload) => {
                            panics.lock().unwrap().push((index, payload));
                            stop.store(true, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    // Claims are monotone, so the lowest panicking index is always claimed
    // before the stop flag could be observed — re-raising its payload is
    // therefore independent of worker count and scheduling.
    let panics = panics.into_inner().unwrap();
    if let Some((_, payload)) = panics.into_iter().min_by_key(|&(index, _)| index) {
        resume_unwind(payload);
    }
    let mut done = done.into_inner().unwrap();
    done.sort_unstable_by_key(|&(index, _)| index);
    debug_assert_eq!(done.len(), count);
    done.into_iter().map(|(_, result)| result).collect()
}

/// The worker count [`run_indexed`] resolves `jobs = 0` ("auto") to: the
/// host's available parallelism, or 1 when unknown.
pub fn auto_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_are_in_job_order_for_every_worker_count() {
        let reference: Vec<usize> = (0..37).map(|i| i * 3 + 1).collect();
        for jobs in [0, 1, 2, 4, 16, 64] {
            let got = run_indexed(jobs, 37, |i| i * 3 + 1);
            assert_eq!(got, reference, "jobs = {jobs}");
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let calls = AtomicUsize::new(0);
        let results = run_indexed(8, 100, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 100);
        assert_eq!(results.len(), 100);
    }

    #[test]
    fn zero_jobs_and_zero_count_are_fine() {
        let empty: Vec<usize> = run_indexed(4, 0, |i| i);
        assert!(empty.is_empty());
        assert_eq!(run_indexed(0, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn a_panicking_job_propagates() {
        let result = std::panic::catch_unwind(|| {
            run_indexed(4, 8, |i| {
                if i == 5 {
                    panic!("job 5 exploded");
                }
                i
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn the_lowest_index_panic_wins_for_every_worker_count() {
        for jobs in [1, 2, 4, 16] {
            let result = std::panic::catch_unwind(|| {
                run_indexed(jobs, 12, |i| {
                    if i == 3 || i == 5 {
                        panic!("job {i} exploded");
                    }
                    i
                })
            });
            let payload = result.expect_err("panicking jobs must propagate");
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("");
            assert_eq!(
                msg, "job 3 exploded",
                "jobs = {jobs}: expected the lowest-index panic"
            );
        }
    }
}
