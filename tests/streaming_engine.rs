//! The campaign engine's one-pass scheduling: workers are spawned once
//! per campaign and stream every record to the calling thread, which
//! checkpoints and reports progress while they keep running.
//!
//! * However a campaign is cut into checkpoint intervals, and however it
//!   is killed after one interval and resumed, its summary equals the
//!   plain run's, at every thread count, fault-free and under faults.
//! * A campaign of many intervals runs on at most `threads` distinct
//!   threads: intervals are bookkeeping, not a respawn of the workers.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Once};
use std::thread::ThreadId;

use hdiff::diff::{DiffEngine, ProgressHook};
use hdiff::gen::{catalog, Origin, TestCase};
use hdiff::servers::fault::FaultPlan;
use hdiff::servers::ParserProfile;
use hdiff::{HDiff, HdiffConfig};

fn catalog_cases() -> Vec<TestCase> {
    let mut out = Vec::new();
    for entry in catalog::catalog() {
        for (req, note) in &entry.requests {
            out.push(TestCase {
                uuid: out.len() as u64 + 1,
                request: req.clone(),
                assertions: Vec::new(),
                origin: Origin::Catalog(entry.id.to_string()),
                note: note.clone(),
            });
        }
    }
    out
}

fn scratch_checkpoint(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("streaming-engine");
    std::fs::create_dir_all(&dir).expect("create the checkpoint dir");
    let path = dir.join(format!("{tag}.json"));
    std::fs::remove_file(&path).ok();
    path
}

/// Plain, checkpointed and killed-then-resumed runs of `cases` agree at
/// threads 1, 2 and 4, fault-free and at a 30% fault rate.
fn assert_every_schedule_agrees(engine: &mut DiffEngine, cases: &[TestCase], tag: &str) {
    for fault_rate in [0u8, 30] {
        engine.fault_plan =
            if fault_rate == 0 { FaultPlan::disabled() } else { FaultPlan::new(7, fault_rate) };
        engine.threads = 1;
        engine.stop_after_chunks = None;
        let reference = engine.run(cases);
        assert_eq!(reference.cases, cases.len());
        for threads in [1, 2, 4] {
            engine.threads = threads;
            let what = format!("{tag}, fault rate {fault_rate}, {threads} threads");
            assert_eq!(engine.run(cases), reference, "plain run, {what}");
            for every in [1, 5, 64] {
                engine.checkpoint_every = every;
                let path = scratch_checkpoint(&format!("{tag}-{fault_rate}-{threads}-{every}"));
                engine.stop_after_chunks = None;
                let checkpointed = engine.run_with_checkpoint(cases, &path).expect("checkpoint");
                assert_eq!(checkpointed, reference, "checkpoint every {every}, {what}");

                std::fs::remove_file(&path).expect("the run left its checkpoint");
                engine.stop_after_chunks = Some(1);
                let killed = engine.run_with_checkpoint(cases, &path).expect("killed run");
                assert_eq!(killed.cases, every.min(cases.len()), "one interval, {what}");
                engine.stop_after_chunks = None;
                let resumed = engine.run_with_checkpoint(cases, &path).expect("resumed run");
                assert_eq!(resumed, reference, "kill after one interval of {every}, {what}");
                std::fs::remove_file(&path).ok();
            }
        }
    }
}

#[test]
fn catalog_schedules_converge_to_the_plain_run() {
    let cases = catalog_cases();
    assert_every_schedule_agrees(&mut DiffEngine::standard(), &cases, "catalog");
}

#[test]
fn quick_corpus_schedules_converge_to_the_plain_run() {
    let mut prepared = HDiff::new(HdiffConfig::quick()).prepare();
    assert!(prepared.engine.syntax_oracle.is_some(), "the quick engine audits hosts");
    assert_every_schedule_agrees(&mut prepared.engine, &prepared.cases, "quick");
}

/// Threads on which an injected parser panic fired.
static PANICKED_ON: Mutex<Option<HashSet<ThreadId>>> = Mutex::new(None);

/// Records the thread of every injected parser panic, and keeps those
/// panics off stderr. Any other panic still reaches the default hook.
fn record_panicking_threads() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("injected parser panic"));
            if injected {
                let mut seen = PANICKED_ON.lock().unwrap_or_else(|e| e.into_inner());
                seen.get_or_insert_with(HashSet::new).insert(std::thread::current().id());
            } else {
                default_hook(info);
            }
        }));
    });
}

#[test]
fn a_multi_interval_campaign_runs_on_at_most_threads_worker_threads() {
    record_panicking_threads();
    // Every case reaches a back-end whose parser panics, so every case
    // reports the thread that ran it.
    let mut crasher = ParserProfile::strict("crashd");
    crasher.always_panic = true;
    let mut backends = hdiff::servers::backends();
    backends.push(crasher);
    let mut engine = DiffEngine::new(hdiff::servers::proxies(), backends);
    engine.threads = 2;
    engine.checkpoint_every = 2;
    let intervals = Arc::new(AtomicUsize::new(0));
    let counted = Arc::clone(&intervals);
    engine.progress = Some(ProgressHook::new(move |_| {
        counted.fetch_add(1, Ordering::SeqCst);
    }));

    let cases = catalog_cases();
    let path = scratch_checkpoint("threads");
    let summary = engine.run_with_checkpoint(&cases, &path).expect("checkpointed run");
    std::fs::remove_file(&path).ok();

    assert_eq!(summary.quarantined.len(), cases.len(), "every case panicked once");
    assert_eq!(intervals.load(Ordering::SeqCst), cases.len().div_ceil(2));
    let threads = PANICKED_ON.lock().unwrap().take().unwrap_or_default();
    assert!(
        (1..=engine.threads).contains(&threads.len()),
        "{} intervals ran on {} distinct threads, more than the {} workers",
        cases.len().div_ceil(2),
        threads.len(),
        engine.threads
    );
}
