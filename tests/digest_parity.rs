//! Behavior-digest parity gate.
//!
//! `behavior_digests` hashes each implementation's view straight from
//! its `Interpretation`, without building the `HMetrics` vector the
//! digest is defined over. This gate keeps the definition as the
//! reference: it builds an `HMetrics` for every view, hashes it field by
//! field, and requires the same digests over the Table II catalog, the
//! fuzzer's seed streams, and fault-injected outcomes.

use hdiff::analyzer::DocumentAnalyzer;
use hdiff::diff::replay::{behavior_digests, Fnv};
use hdiff::diff::{CaseOutcome, HMetrics, Workflow};
use hdiff::fuzz::{Delivery, IngredientPool, Stream, StreamMutator, StreamRequest};
use hdiff::gen::catalog;
use hdiff::servers::fault::{FaultInjector, FaultPlan, FaultSession};

/// Hashes one `HMetrics` vector: every field but the uuid, the framing
/// as its `Debug` rendering.
fn hash_metrics(h: &mut Fnv, m: &HMetrics) {
    h.write(m.implementation.as_bytes());
    h.write_u64(u64::from(m.status_code));
    h.write_u64(u64::from(m.accepted));
    match &m.host {
        None => h.write_u64(0),
        Some(host) => {
            h.write_u64(1);
            h.write(host);
        }
    }
    h.write(&m.data);
    h.write(format!("{:?}", m.framing).as_bytes());
    h.write_u64(m.consumed as u64);
    h.write_u64(u64::from(m.repaired));
    for note in &m.notes {
        h.write(note.as_bytes());
    }
}

/// The digests by definition: one `HMetrics` per view, hashed.
fn reference_digests(outcome: &CaseOutcome) -> Vec<(String, u64)> {
    let metrics = |name: &str, i| HMetrics::from_interpretation(outcome.uuid, name, i);
    let mut out = Vec::new();
    for (backend, replies) in &outcome.direct {
        let mut h = Fnv::new();
        for reply in replies {
            hash_metrics(&mut h, &metrics(backend, &reply.interpretation));
            h.write_u64(u64::from(reply.response.status.as_u16()));
        }
        out.push((format!("direct:{backend}"), h.0));
    }
    for chain in &outcome.chains {
        let mut h = Fnv::new();
        for r in &chain.proxy_results {
            hash_metrics(&mut h, &metrics(&chain.proxy, &r.interpretation));
        }
        h.write(&chain.forwarded);
        h.write_u64(chain.forwarded_count as u64);
        for replay in &chain.replays {
            h.write(replay.backend.as_bytes());
            h.write_u64(u64::from(replay.cache_stored_error));
            for reply in &replay.replies {
                hash_metrics(&mut h, &metrics(&replay.backend, &reply.interpretation));
                h.write_u64(u64::from(reply.response.status.as_u16()));
            }
        }
        out.push((format!("proxy:{}", chain.proxy), h.0));
    }
    out
}

fn assert_parity(outcome: &CaseOutcome, what: &str) {
    assert_eq!(behavior_digests(outcome), reference_digests(outcome), "{what}");
}

fn catalog_bytes() -> Vec<(String, Vec<u8>)> {
    catalog::catalog()
        .iter()
        .flat_map(|e| {
            e.requests.iter().map(|(req, note)| (format!("{} ({note})", e.id), req.to_bytes()))
        })
        .collect()
}

#[test]
fn digests_match_the_hmetrics_reference_on_the_catalog() {
    let workflow = Workflow::standard();
    for (uuid, (what, bytes)) in catalog_bytes().iter().enumerate() {
        assert_parity(&workflow.run_bytes_faulted(uuid as u64, "catalog", bytes, None), what);
    }
}

#[test]
fn digests_match_the_hmetrics_reference_on_fuzz_seed_streams() {
    let grammar = DocumentAnalyzer::with_default_inputs()
        .analyze_syntax(&hdiff::corpus::core_documents())
        .grammar;
    let workflow = Workflow::standard();
    let mut streams = 0;
    for seed in [1u64, 7] {
        let pool = IngredientPool::build(&grammar, seed);
        let mut seeds: Vec<Stream> = pool.requests.iter().cloned().map(Stream::single).collect();
        let mut pipelined = Stream::single(pool.requests[0].clone());
        pipelined.requests.push(StreamRequest {
            bytes: pool.requests[1].clone(),
            delivery: Delivery::Whole,
            pipelined: true,
        });
        seeds.push(pipelined);
        // The seeds and a few rounds of their mutants: pipelined,
        // segmented and damaged streams, as a session executes them.
        let mut mutator = StreamMutator::new(seed, pool);
        let mutants: Vec<Stream> = (0..60)
            .map(|i| mutator.mutate(&seeds[i % seeds.len()], &seeds[(i + 1) % seeds.len()]).0)
            .collect();
        for (i, stream) in seeds.iter().chain(&mutants).enumerate() {
            let bytes = stream.effective_bytes();
            let outcome = workflow.run_bytes_faulted(i as u64, "fuzz", &bytes, None);
            assert_parity(&outcome, &format!("seed {seed} stream {i}"));
            streams += 1;
        }
    }
    assert!(streams >= 130, "too few streams: {streams}");
}

#[test]
fn digests_match_the_hmetrics_reference_on_faulted_outcomes() {
    let workflow = Workflow::standard();
    let injector = FaultInjector::new(FaultPlan::new(11, 40));
    let mut faulted = 0;
    for (uuid, (what, bytes)) in catalog_bytes().iter().enumerate() {
        let session = FaultSession::new(&injector, uuid as u64, 0, 64);
        let outcome = workflow.run_bytes_faulted(uuid as u64, "catalog", bytes, Some(&session));
        faulted += usize::from(!outcome.fault_events.is_empty() || outcome.budget_exhausted);
        assert_parity(&outcome, what);
    }
    assert!(faulted > 5, "too few faulted outcomes: {faulted}");
}
