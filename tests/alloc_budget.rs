//! Allocation budget of the interpretation hot path.
//!
//! Every case runs dozens of interpretations, so heap churn there sets
//! the cost of every campaign and fuzz session. A counting global
//! allocator pins the allocations one `Workflow::run_case` and one
//! `behavior_digests` make over the Table II catalog; a change that
//! reintroduces per-header, per-response or per-view copies trips the
//! ceilings below.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use hdiff::diff::replay::behavior_digests;
use hdiff::diff::Workflow;
use hdiff::gen::{catalog, Origin, TestCase};

/// Allocations (and reallocations) per `run_case`, averaged over the
/// catalog: 311.9 measured (866.6 before the hot path stopped copying
/// fixed and borrowed data), plus about 10% headroom.
const RUN_CASE_CEILING: f64 = 345.0;
/// Allocations per `behavior_digests`: the result vector and one label
/// per view, 13.0 measured (130.2 when every view built an `HMetrics`).
const DIGESTS_CEILING: f64 = 14.5;

/// Counts the allocations made on threads that opted in, so tests
/// running in parallel in this binary do not disturb each other.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note_allocation() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

fn catalog_cases() -> Vec<TestCase> {
    let mut cases = Vec::new();
    for entry in catalog::catalog() {
        for (req, note) in &entry.requests {
            cases.push(TestCase {
                uuid: cases.len() as u64 + 1,
                request: req.clone(),
                assertions: Vec::new(),
                origin: Origin::Catalog(entry.id.to_string()),
                note: note.clone(),
            });
        }
    }
    cases
}

#[test]
fn run_case_and_digests_stay_within_their_allocation_budgets() {
    let workflow = Workflow::standard();
    let cases = catalog_cases();
    let (mut runs, mut digests) = (0u64, 0u64);
    for case in &cases {
        let (outcome, n) = counted(|| workflow.run_case(case));
        runs += n;
        let (_, n) = counted(|| behavior_digests(&outcome));
        digests += n;
    }
    let per_run = runs as f64 / cases.len() as f64;
    let per_digest = digests as f64 / cases.len() as f64;
    eprintln!(
        "{} catalog cases: {per_run:.1} allocations per run_case, {per_digest:.1} per behavior_digests",
        cases.len()
    );
    assert!(per_run <= RUN_CASE_CEILING, "run_case: {per_run:.1} allocations > {RUN_CASE_CEILING}");
    assert!(
        per_digest <= DIGESTS_CEILING,
        "behavior_digests: {per_digest:.1} allocations > {DIGESTS_CEILING}"
    );
}
