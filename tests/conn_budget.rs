//! Connection budget of the tcp-async transport.
//!
//! A case sends its bytes to every backend and proxy view and replays
//! every forwarded stream to every backend — about two dozen exchanges,
//! plus the proxies' relays to the echo upstream. The reactor ends each
//! exchange inside its loop and returns the connection to a keep-alive
//! pool, so a campaign's connects stop growing with its cases. This gate
//! runs the Table II catalog plus the `--quick` h1 corpus through one
//! `AsyncTestbed` on one thread, pins every outcome and behaviour digest
//! to the sim run, and caps the loop's connections per case: a change
//! that brings back a connection per exchange trips the ceiling.

use hdiff::diff::replay::behavior_digests;
use hdiff::diff::{run_case_tcp_async, Workflow};
use hdiff::gen::{catalog, Origin, TestCase};
use hdiff::net::AsyncTestbed;
use hdiff::{HDiff, HdiffConfig};

/// `ReactorStats::conns_opened` per case, amortized over the whole run.
/// It counts a connect and its accept, so one connection per case reads
/// 2. Measured 0.43 over these 251 cases: 108 in all, the warm fill
/// plus each pool's peak concurrency. One connection per exchange read
/// 55.1 here.
const CONNS_PER_CASE_CEILING: f64 = 1.0;

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
fn tcp_async_cases_stay_within_their_connection_budget() {
    if !hdiff::net::reactor::sys::supported() {
        eprintln!("skipping: no epoll backend on this target");
        return;
    }
    let mut cases = catalog_cases();
    cases.extend(HDiff::new(HdiffConfig::quick()).prepare().cases);
    let workflow = Workflow::standard();
    let testbed = AsyncTestbed::new(workflow.backends(), workflow.proxies()).unwrap();
    for case in &cases {
        let sim = workflow.run_case(case);
        let wire = run_case_tcp_async(&workflow, case, None, &testbed);
        assert_eq!(
            behavior_digests(&wire),
            behavior_digests(&sim),
            "digests differ on case {} ({:?})",
            case.uuid,
            case.origin
        );
        assert_eq!(
            format!("{wire:?}"),
            format!("{sim:?}"),
            "outcome differs on case {}",
            case.uuid
        );
    }
    let stats = testbed.stats();
    let per_case = stats.conns_opened as f64 / cases.len() as f64;
    eprintln!("{} cases: {per_case:.2} connections opened per case ({stats:?})", cases.len());
    assert!(
        per_case < CONNS_PER_CASE_CEILING,
        "{per_case:.2} connections opened per case >= {CONNS_PER_CASE_CEILING}: {stats:?}"
    );
}
