//! Work-stealing fan-out for campaigns.
//!
//! Workers share a single atomic cursor over the items and claim the next
//! pending one the moment they finish one, so a straggler — a
//! stalled-read fault, a pathological mutation — occupies only the thread
//! that claimed it while the rest drain everything else.
//!
//! [`run_streaming`] is the primitive: its workers are spawned once for
//! the whole item list and stream every result to the calling thread,
//! itself one of the workers, as it completes. The caller does its
//! per-result bookkeeping between its own items (the campaign runner
//! inserts the record, saves a checkpoint and reports progress every
//! `checkpoint_every` completions) while the other workers keep running,
//! so no bookkeeping step is a barrier that idles them.
//! [`run_stealing`] collects the same stream back into input order.
//!
//! Telemetry note: workers never touch shared telemetry state. Each case
//! runs under [`hdiff_obs::with_case`], which collects that case's spans,
//! counters and histograms into a private bucket travelling inside the
//! [`crate::CaseRecord`]. The runner merges buckets in corpus order during
//! `summarize`, so the merged totals are identical whichever worker — or
//! how many workers — executed each case, and resuming from a checkpoint
//! re-merges persisted buckets without double-counting.

use std::convert::Infallible;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Runs `job` over every item on at most `workers` OS threads and hands
/// each `(index, result)` to `sink` on the calling thread, in completion
/// order.
///
/// * The worker count is clamped to `items.len()`. The calling thread is
///   one of the workers and `workers - 1` more are spawned, once: all of
///   them claim items one at a time from a shared [`AtomicUsize`] cursor
///   until it passes the end.
/// * The spawned workers send their results over a channel. The calling
///   thread drains it into `sink` after each item it runs itself, and
///   waits for the rest once the cursor is exhausted. It never sleeps
///   while items remain, so delivery costs no thread wake-up per item.
/// * `workers <= 1` (and single-item lists) run inline on the caller's
///   thread, in input order, with no spawning at all.
/// * The first error `sink` returns stops the run: no further item is
///   claimed, items already running finish and are dropped, and the
///   error is returned once every worker has exited.
pub fn run_streaming<T, R, E, F, S>(
    items: &[T],
    workers: usize,
    job: F,
    mut sink: S,
) -> Result<(), E>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    S: FnMut(usize, R) -> Result<(), E>,
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().try_for_each(|(idx, item)| sink(idx, job(item)));
    }

    let cursor = AtomicUsize::new(0);
    let claim = || {
        let idx = cursor.fetch_add(1, Ordering::Relaxed);
        items.get(idx).map(|item| (idx, item))
    };
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        for _ in 1..workers {
            let (tx, claim, job) = (tx.clone(), &claim, &job);
            scope.spawn(move || {
                while let Some((idx, item)) = claim() {
                    // A closed receiver means the sink failed: stop claiming.
                    if tx.send((idx, job(item))).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        let mut delivered = Ok(());
        while let Some((idx, item)) = claim() {
            let result = job(item);
            delivered =
                sink(idx, result).and_then(|()| rx.try_iter().try_for_each(|(i, r)| sink(i, r)));
            if delivered.is_err() {
                break;
            }
        }
        if delivered.is_ok() {
            delivered = rx.iter().try_for_each(|(i, r)| sink(i, r));
        }
        if delivered.is_err() {
            cursor.store(items.len(), Ordering::Relaxed);
        }
        delivered
    })
}

/// Runs `job` over every item through [`run_streaming`] and returns the
/// results in input order.
pub fn run_stealing<T, R, F>(items: &[T], workers: usize, job: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    let streamed = run_streaming(items, workers, job, |idx, result| {
        debug_assert!(slots[idx].is_none(), "item {idx} claimed twice");
        slots[idx] = Some(result);
        Ok::<(), Infallible>(())
    });
    let Ok(()) = streamed;
    slots.into_iter().map(|s| s.expect("every item is claimed exactly once")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::time::{Duration, Instant};

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<usize> = (0..257).collect();
        let got = run_stealing(&items, 8, |&n| n * 3);
        let want: Vec<usize> = items.iter().map(|n| n * 3).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_input_spawns_nothing() {
        let items: Vec<u8> = Vec::new();
        let got = run_stealing(&items, 8, |_| unreachable!("no items to run"));
        assert!(got.is_empty());
    }

    #[test]
    fn workers_are_clamped_to_item_count() {
        // 3 items, 16 requested workers: at most 3 distinct threads may
        // ever touch a case (plus zero empty spawns doing no work).
        let threads = Mutex::new(HashSet::new());
        let items = [1u8, 2, 3];
        let got = run_stealing(&items, 16, |&n| {
            threads.lock().unwrap().insert(std::thread::current().id());
            n
        });
        assert_eq!(got, vec![1, 2, 3]);
        assert!(threads.lock().unwrap().len() <= 3, "{:?}", threads.lock().unwrap());
    }

    #[test]
    fn single_worker_runs_inline() {
        let caller = std::thread::current().id();
        let items = [1u8, 2, 3];
        let got = run_stealing(&items, 1, |&n| {
            assert_eq!(std::thread::current().id(), caller);
            n * 2
        });
        assert_eq!(got, vec![2, 4, 6]);
    }

    #[test]
    fn streaming_delivers_every_result_once_from_at_most_workers_threads() {
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..1000).collect();
        for workers in [1, 2, 3, 4] {
            let threads = Mutex::new(HashSet::new());
            let mut delivered = Vec::new();
            let streamed = run_streaming(
                &items,
                workers,
                |&n| {
                    threads.lock().unwrap().insert(std::thread::current().id());
                    n * 7
                },
                |idx, r| {
                    assert_eq!(r, items[idx] * 7);
                    delivered.push(idx);
                    Ok::<(), ()>(())
                },
            );
            assert_eq!(streamed, Ok(()));
            let threads = threads.into_inner().unwrap();
            assert!(
                (1..=workers).contains(&threads.len()),
                "{} threads for {workers} workers",
                threads.len()
            );
            if workers == 1 {
                assert_eq!(threads, HashSet::from([caller]), "one worker runs inline");
                assert_eq!(delivered, items, "inline delivery is in input order");
            }
            delivered.sort_unstable();
            assert_eq!(delivered, items, "a result was lost or delivered twice");
        }
    }

    #[test]
    fn a_failing_sink_stops_the_stream() {
        let items: Vec<usize> = (0..1000).collect();
        let ran = AtomicUsize::new(0);
        let mut delivered = 0usize;
        let streamed = run_streaming(
            &items,
            2,
            |&n| {
                ran.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(1));
                n
            },
            |_, _| {
                delivered += 1;
                if delivered == 10 {
                    Err("disk full")
                } else {
                    Ok(())
                }
            },
        );
        assert_eq!(streamed, Err("disk full"));
        assert_eq!(delivered, 10, "nothing reaches the sink after its error");
        assert!(ran.load(Ordering::SeqCst) < items.len(), "workers kept claiming after the error");
    }

    /// The no-idle property the rewrite exists for: with one straggler
    /// (index 0) and many quick cases, the other worker must drain every
    /// quick case while the straggler is still running. The straggler
    /// spins until it *observes* all other cases complete — under the old
    /// `div_ceil` pre-split (2 workers × 6-item slices) the quick cases
    /// in the straggler's own slice could never finish and this would
    /// time out.
    #[test]
    fn no_worker_idles_while_cases_remain() {
        let quick_done = AtomicUsize::new(0);
        let items: Vec<usize> = (0..12).collect();
        let quick_total = items.len() - 1;
        let got = run_stealing(&items, 2, |&n| {
            if n == 0 {
                let deadline = Instant::now() + Duration::from_secs(10);
                while quick_done.load(Ordering::SeqCst) < quick_total {
                    assert!(
                        Instant::now() < deadline,
                        "straggler stranded {} unfinished case(s): a worker idled",
                        quick_total - quick_done.load(Ordering::SeqCst)
                    );
                    std::thread::yield_now();
                }
            } else {
                quick_done.fetch_add(1, Ordering::SeqCst);
            }
            n
        });
        assert_eq!(got, items);
    }
}
