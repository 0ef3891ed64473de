//! The HTTP/1.1 campaign workloads: `HDiff::prepare` + `DiffEngine::run`,
//! exactly what `hdiff run` calls, on one of the three transports.

use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::time::{Duration, Instant};

use hdiff::analyzer::{AnalyzerOutput, DocumentAnalyzer};
use hdiff::diff::transport::{try_run_case_tcp, try_run_case_tcp_async};
use hdiff::diff::workflow::is_ambiguous;
use hdiff::diff::{
    detect_case_with_oracle, detect_degradation, schedule, CaseError, CaseOutcome, CaseRecord,
    DiffEngine, RunSummary, SyntaxOracle, Transport,
};
use hdiff::gen::{AttackClass, GrammarCoverage, TestCase};
use hdiff::net::AsyncTestbed;
use hdiff::obs::Telemetry;
use hdiff::servers::fault::{FaultInjector, FaultPlan, FaultSession};
use hdiff::servers::ParserProfile;
use hdiff::{HDiff, HdiffConfig};

use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::trace::{self, median, SpanLog};
use crate::{Inputs, Outcome, Workload};

/// ABNF seeds for the sim campaign: ~8.9k cases, so one campaign lasts
/// long enough (≈0.5 s on two cores) that its rate is steady.
const SIM_ABNF_SEEDS: usize = 1200;
/// ABNF seeds for the socket campaigns: `HdiffConfig::full()`'s own
/// 120, ~1.08k cases (≈2 s per campaign over loopback).
const NET_ABNF_SEEDS: usize = 120;
/// Cases run once before timing starts: code, allocator and (for
/// tcp-async) the shared testbed are warm when the clock starts.
const WARMUP_CASES: usize = 64;

/// The campaign configuration: `HdiffConfig::full()`'s shape with the
/// corpus scaled through `abnf_seeds`, one worker per core, no faults,
/// no telemetry.
pub fn config(workload: Workload, seed: u64) -> HdiffConfig {
    let mut c = HdiffConfig::full();
    c.seed = seed;
    c.threads = 0;
    c.fault_rate = 0;
    c.telemetry = false;
    (c.transport, c.abnf_seeds) = match workload {
        Workload::H1Sim => (Transport::Sim, SIM_ABNF_SEEDS),
        Workload::H1TcpAsync => (Transport::TcpAsync, NET_ABNF_SEEDS),
        Workload::H1Tcp => (Transport::Tcp, NET_ABNF_SEEDS),
        Workload::FuzzSim => unreachable!("fuzz-sim is not a campaign workload"),
    };
    c
}

/// `hdiff run`'s set-up (analyze + generate + engine build), timed.
pub fn setup_only(workload: Workload, seed: u64) -> f64 {
    let started = Instant::now();
    let prepared = HDiff::new(config(workload, seed)).prepare();
    let setup = started.elapsed().as_secs_f64();
    std::hint::black_box(prepared);
    setup
}

/// Digest of a summary's findings, in corpus order.
pub fn findings_digest(summary: &RunSummary) -> u64 {
    let rendered: Vec<String> = summary.findings.iter().map(|f| format!("{f:?}")).collect();
    crate::digest(rendered.iter().map(String::as_bytes))
}

/// The corpus's identity: every case's uuid, origin and bytes.
pub fn corpus_digest(cases: &[TestCase]) -> u64 {
    let parts: Vec<Vec<u8>> = cases
        .iter()
        .map(|c| {
            [
                c.uuid.to_le_bytes().as_slice(),
                c.origin.to_string().as_bytes(),
                &c.request.to_bytes(),
            ]
            .concat()
        })
        .collect();
    crate::digest(parts.iter().map(Vec::as_slice))
}

fn inputs(cases: &[TestCase]) -> Inputs {
    let bytes: Vec<Vec<u8>> = cases.iter().map(|c| c.request.to_bytes()).collect();
    let n = cases.len().max(1) as f64;
    Inputs {
        cases: cases.len(),
        ambiguous_share: bytes.iter().filter(|b| is_ambiguous(b)).count() as f64 / n,
        mean_bytes: bytes.iter().map(Vec::len).sum::<usize>() as f64 / n,
        requests_per_stream: 1.0,
        corpus_digest: corpus_digest(cases),
    }
}

/// Output checks every h1 campaign must pass.
fn check_summary(
    summary: &RunSummary,
    cases: usize,
    expected_digest: Option<u64>,
    problems: &mut Vec<String>,
) {
    if summary.cases != cases {
        problems.push(format!("{} of {cases} cases executed", summary.cases));
    }
    if summary.errors > 0 {
        problems.push(format!("{} of {cases} cases failed", summary.errors));
    }
    for class in AttackClass::ALL {
        if summary.findings_of(class).is_empty() {
            problems.push(format!("no {class} findings"));
        }
    }
    if let Some(expected) = expected_digest {
        let got = findings_digest(summary);
        if got != expected {
            problems.push(format!("findings digest {got:016x} differs from {expected:016x}"));
        }
    }
}

/// What [`timed_campaigns`] measured.
struct Campaigns {
    walls: Vec<f64>,
    steal: Vec<f64>,
    /// The first campaign's findings digest.
    digest: u64,
    /// Peak RSS after set-up, warm-up and one campaign: one `hdiff run`,
    /// however many campaigns fit the budget.
    peak_rss_mb: f64,
}

/// Untraced campaigns while another one is expected to end within
/// `seconds` (at least one), pushing every campaign's problems.
fn timed_campaigns(
    engine: &DiffEngine,
    cases: &[TestCase],
    seconds: Duration,
    attempted: &mut u64,
    failed: &mut u64,
    problems: &mut Vec<String>,
) -> Campaigns {
    let deadline = Instant::now() + seconds;
    let (mut walls, mut steal) = (Vec::new(), Vec::new());
    let mut first: Option<(u64, f64)> = None;
    loop {
        let (summary, wall, stolen) = crate::timed(|| engine.run(cases));
        walls.push(wall);
        steal.push(stolen);
        *attempted += cases.len() as u64;
        *failed += summary.errors as u64;
        check_summary(&summary, cases.len(), first.map(|(d, _)| d), problems);
        first.get_or_insert_with(|| (findings_digest(&summary), crate::peak_rss_mb()));
        if !crate::another_fits(&walls, deadline) {
            break;
        }
    }
    let (digest, peak_rss_mb) = first.expect("at least one campaign ran");
    Campaigns { walls, steal, digest, peak_rss_mb }
}

/// The sim, single-thread reference for the same corpus, computed
/// outside the timed region.
fn check_against_reference(
    engine: &mut DiffEngine,
    cases: &[TestCase],
    digest: u64,
    problems: &mut Vec<String>,
) {
    let (threads, transport) = (engine.threads, engine.transport);
    engine.threads = 1;
    engine.transport = Transport::Sim;
    let reference = engine.run(cases);
    (engine.threads, engine.transport) = (threads, transport);
    let expected = findings_digest(&reference);
    if expected != digest {
        problems.push(format!(
            "findings digest {digest:016x} differs from the sim single-thread {expected:016x}"
        ));
    }
}

/// The end-to-end run: cold set-up, explicit warm-up, then campaigns
/// while the next is expected to end within `seconds`; output checks
/// (with `reference`, also against the sim single-thread run) after the
/// clock stops.
pub fn run(workload: Workload, seed: u64, seconds: Duration, reference: bool) -> Outcome {
    let started = Instant::now();
    let prepared = HDiff::new(config(workload, seed)).prepare();
    let setup_s = started.elapsed().as_secs_f64();
    let cases = prepared.cases;
    let mut engine = prepared.engine;

    let _ = engine.run(&cases[..WARMUP_CASES.min(cases.len())]);
    let (mut attempted, mut failed, mut problems) = (0, 0, Vec::new());
    let Campaigns { walls, steal, digest, peak_rss_mb } =
        timed_campaigns(&engine, &cases, seconds, &mut attempted, &mut failed, &mut problems);
    if reference {
        check_against_reference(&mut engine, &cases, digest, &mut problems);
    }

    let campaign_s = median(&walls);
    let rates: Vec<f64> = walls.iter().map(|w| cases.len() as f64 / w).collect();
    let mut metrics = Metrics::zeroed(&END_TO_END);
    metrics.set("setup_s", setup_s);
    metrics.set("wall_s", setup_s + campaign_s);
    metrics.set("cases_per_s", median(&rates));
    metrics.set("peak_rss_mb", peak_rss_mb);
    Outcome {
        problems,
        attempted,
        failed,
        setup_s,
        campaign_s,
        walls,
        steal,
        rates,
        output_digest: digest,
        inputs: inputs(&cases),
        metrics,
    }
}

/// What the servers layer did for one case.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Direct, proxy and replay interpretations.
    pub interpretations: u64,
    /// Replay interpretations.
    pub replays: u64,
    /// `(backend, FNV of the replayed bytes)`, one per replay.
    pub replay_keys: Vec<(String, u64)>,
}

/// Counts one case outcome's interpretations and replays.
pub fn server_stats(outcome: &CaseOutcome) -> ServerStats {
    let mut s = ServerStats {
        interpretations: (outcome.direct.len() + outcome.chains.len()) as u64,
        ..ServerStats::default()
    };
    for chain in &outcome.chains {
        let bytes = crate::digest([chain.forwarded.as_slice()]);
        for replay in &chain.replays {
            s.interpretations += 1;
            s.replays += 1;
            s.replay_keys.push((replay.backend.clone(), bytes));
        }
    }
    s
}

/// One case through the campaign's layers, exactly as the engine runs
/// it, with a span around each layer call.
struct TracedCase {
    record: CaseRecord,
    spans: SpanLog,
    stats: ServerStats,
    findings: u64,
}

/// Everything a traced per-case call needs.
struct Layers<'a> {
    engine: &'a DiffEngine,
    profiles: &'a [ParserProfile],
    testbed: Option<&'a AsyncTestbed>,
    epoch: Instant,
}

impl Layers<'_> {
    /// The servers layer (sim) or the socket path under it (tcp,
    /// tcp-async) for one case, then detect.
    fn traced_case(&self, case: &TestCase, transport: Transport) -> TracedCase {
        let engine = self.engine;
        let mut spans = SpanLog::new(self.epoch);
        let root = spans.open("case", None, case.uuid);
        let injector = FaultInjector::new(FaultPlan::disabled());
        let session = FaultSession::new(&injector, case.uuid, 0, engine.step_budget);
        let workflow = engine.workflow();
        let executed = match transport {
            Transport::Sim => spans.time("servers", Some(root), case.uuid, || {
                Ok(workflow.run_case_faulted(case, Some(&session)))
            }),
            Transport::Tcp => spans.time("net", Some(root), case.uuid, || {
                try_run_case_tcp(workflow, case, Some(&session))
            }),
            Transport::TcpAsync => spans.time("net", Some(root), case.uuid, || {
                let testbed = self.testbed.expect("tcp-async traces over a testbed");
                try_run_case_tcp_async(workflow, case, Some(&session), testbed)
            }),
        };
        let outcome = match executed {
            Ok(outcome) => outcome,
            Err(e) => {
                spans.close(root);
                return TracedCase {
                    record: failed_record(case.uuid, CaseError::Io(e.to_string())),
                    spans,
                    stats: ServerStats::default(),
                    findings: 0,
                };
            }
        };
        let (findings, degradations) = spans.time("detect", Some(root), case.uuid, || {
            (
                detect_case_with_oracle(self.profiles, &outcome, engine.syntax_oracle.as_ref()),
                detect_degradation(&outcome),
            )
        });
        spans.close(root);
        let record = CaseRecord {
            uuid: case.uuid,
            replayed: outcome.chains.iter().any(|c| !c.replays.is_empty()),
            retries: 0,
            backoff_units: 0,
            quarantined: false,
            error: outcome
                .budget_exhausted
                .then(|| CaseError::Budget("step budget exhausted".to_string())),
            findings,
            degradations,
            telemetry: Telemetry::default(),
        };
        TracedCase {
            findings: record.findings.len() as u64,
            record,
            spans,
            stats: server_stats(&outcome),
        }
    }
}

fn failed_record(uuid: u64, error: CaseError) -> CaseRecord {
    CaseRecord {
        uuid,
        replayed: false,
        retries: 0,
        backoff_units: 0,
        quarantined: false,
        error: Some(error),
        findings: Vec::new(),
        degradations: Vec::new(),
        telemetry: Telemetry::default(),
    }
}

/// Sets the servers layer's interpretation, replay-share and
/// replay-repeat metrics from every case's stats.
pub fn set_server_stats(m: &mut Metrics, stats: &[ServerStats]) {
    let interpretations: u64 = stats.iter().map(|s| s.interpretations).sum();
    let replays: u64 = stats.iter().map(|s| s.replays).sum();
    let distinct: HashSet<&(String, u64)> = stats.iter().flat_map(|s| &s.replay_keys).collect();
    m.set("servers.interpretations", interpretations as f64);
    if interpretations > 0 {
        m.set("servers.replay_share", replays as f64 / interpretations as f64);
    }
    if replays > 0 {
        let repeats = replays - distinct.len() as u64;
        m.set("servers.replay_repeat_ratio", repeats as f64 / replays as f64);
    }
}

/// `HDiff::prepare`'s engine construction, from public parts, so the
/// traced run can time analysis and generation separately.
fn build_engine(
    config: &HdiffConfig,
    analysis: &AnalyzerOutput,
    coverage: Option<GrammarCoverage>,
) -> DiffEngine {
    let mut engine = DiffEngine::standard();
    engine.threads = config.threads;
    engine.transport = config.transport;
    engine.checkpoint_every = config.checkpoint_every.max(1);
    engine.syntax_oracle = Some(SyntaxOracle::new(&analysis.grammar));
    engine.grammar_coverage = coverage;
    engine
}

/// `Host` header values of a request's bytes (the matcher probe input).
fn host_values(case: &TestCase) -> Vec<Vec<u8>> {
    case.request.headers.iter().filter(|h| h.is(b"host")).map(|h| h.value().to_vec()).collect()
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Copies the program's own counters and histograms (recorded only in
/// the telemetry-on campaign) into the per-layer metrics.
fn set_program_counters(m: &mut Metrics, tel: &Telemetry) {
    let counter = |name: &str| tel.counters.get(name).copied().unwrap_or(0) as f64;
    m.set("abnf.memo_miss", counter("abnf.memo.miss"));
    if let Some(h) = tel.hists.get("net.exchange.rtt") {
        m.set("net.exchanges", h.count as f64);
        m.set("net.exchange_p50_us", us(h.quantile_lower_ns(0.5)));
        m.set("net.exchange_p99_us", us(h.quantile_lower_ns(0.99)));
    }
    m.set("net.conn_opens", counter("net.conn.open"));
    let (hits, misses) = (counter("net.pool.hit"), counter("net.pool.miss"));
    if hits + misses > 0.0 {
        m.set("net.pool_hit_ratio", hits / (hits + misses));
    }
    let errors: f64 = [
        "net.accept.error",
        "net.read.error",
        "net.read.timeout",
        "net.exchange.timeout",
        "case.net-error",
    ]
    .iter()
    .map(|n| counter(n))
    .sum();
    m.set("net.errors", errors);
    m.set("net.retries", counter("case.retry"));
}

/// The traced run: set-up under spans, untraced campaigns for half the
/// budget (the accounting's reference wall), one telemetry-on campaign
/// (the program's own counters and the obs layer's cost), then one
/// campaign the benchmark drives itself with a span around every layer
/// call, and the wire/abnf probes over the same corpus.
pub fn run_traced(workload: Workload, seed: u64, seconds: Duration, out: Option<&Path>) -> Outcome {
    hdiff::obs::set_enabled(false);
    let config = config(workload, seed);
    let epoch = Instant::now();
    let mut log = SpanLog::new(epoch);
    let setup = log.open("setup", None, 0);
    let analysis = log.time("analyzer", Some(setup), 0, || {
        DocumentAnalyzer::with_default_inputs().analyze(&hdiff::corpus::core_documents())
    });
    let hdiff = HDiff::new(config.clone());
    let (cases, coverage) =
        log.time("gen", Some(setup), 0, || hdiff.generate_cases_with_coverage(&analysis));
    let engine =
        log.time("engine.build", Some(setup), 0, || build_engine(&config, &analysis, coverage));
    log.close(setup);
    let setup_s = log.spans()[setup].duration_ns() as f64 / 1e9;
    let threads = engine.effective_threads();
    let profiles = hdiff::servers::products();
    let mut problems = Vec::new();

    // Untraced reference wall.
    let _ = engine.run(&cases[..WARMUP_CASES.min(cases.len())]);
    let (mut untraced_attempted, mut untraced_failed) = (0, 0);
    let Campaigns { walls, steal, digest, .. } = timed_campaigns(
        &engine,
        &cases,
        seconds / 2,
        &mut untraced_attempted,
        &mut untraced_failed,
        &mut problems,
    );
    let untraced_ns = median(&walls) * 1e9;

    // The program's telemetry, on for one campaign.
    hdiff::obs::set_enabled(true);
    let started = Instant::now();
    let with_telemetry = engine.run(&cases);
    let telemetry_ns = started.elapsed().as_secs_f64() * 1e9;
    hdiff::obs::set_enabled(false);
    check_summary(&with_telemetry, cases.len(), Some(digest), &mut problems);

    // The benchmark-driven campaign.
    let testbed = (config.transport == Transport::TcpAsync).then(|| {
        log.time("net.setup", None, 0, || {
            AsyncTestbed::new(engine.workflow().backends(), engine.workflow().proxies())
        })
    });
    let testbed = match testbed {
        Some(Ok(t)) => Some(t),
        Some(Err(e)) => {
            problems.push(format!("async testbed: {e}"));
            None
        }
        None => None,
    };
    let layers = Layers { engine: &engine, profiles: &profiles, testbed: testbed.as_ref(), epoch };
    let campaign = log.open("campaign", None, 0);
    let execute = log.open("execute", Some(campaign), 0);
    // Chunked like `DiffEngine::run`: workers steal within a chunk and
    // every chunk ends at a barrier.
    let mut traced: Vec<(usize, TracedCase)> = Vec::new();
    if config.transport != Transport::TcpAsync || testbed.is_some() {
        for chunk in cases.chunks(engine.checkpoint_every.max(1)) {
            let span = log.open("chunk", Some(execute), 0);
            let done =
                schedule::run_stealing(chunk, threads, |c| layers.traced_case(c, config.transport));
            log.close(span);
            traced.extend(done.into_iter().map(|t| (span, t)));
        }
    }
    log.close(execute);
    let mut completed = BTreeMap::new();
    let mut sim_stats = Vec::new();
    let mut findings = 0u64;
    let mut net_ns: Vec<u64> = Vec::new();
    for (chunk, t) in traced {
        findings += t.findings;
        if config.transport != Transport::Sim {
            net_ns.push(t.spans.durations("net").first().copied().unwrap_or(0));
        }
        sim_stats.push(t.stats);
        completed.insert(t.record.uuid, t.record);
        log.absorb(t.spans, Some(chunk));
    }
    let summary =
        log.time("summarize", Some(campaign), 0, || engine.summarize_records(&cases, &completed));
    log.close(campaign);
    check_summary(&summary, cases.len(), Some(digest), &mut problems);
    let traced_ns = log.spans()[campaign].duration_ns() as f64;

    // Socket workloads: the servers layer on the same cases in-process,
    // for the servers metrics and each case's socket tax.
    let mut tax_ns: Vec<i64> = Vec::new();
    if config.transport != Transport::Sim {
        let sim_pass = log.open("sim-pass", None, 0);
        let sim: Vec<TracedCase> =
            schedule::run_stealing(&cases, threads, |c| layers.traced_case(c, Transport::Sim));
        sim_stats = Vec::new();
        for (t, net) in sim.into_iter().zip(&net_ns) {
            let sim_ns = t.spans.durations("servers").first().copied().unwrap_or(0);
            tax_ns
                .push(i64::try_from(*net).unwrap_or(i64::MAX) - i64::try_from(sim_ns).unwrap_or(0));
            sim_stats.push(t.stats);
            log.absorb(t.spans, Some(sim_pass));
        }
        log.close(sim_pass);
    }

    // Layer primitives over the same corpus.
    let probe = log.open("probe", None, 0);
    let mut matches = 0u64;
    for case in &cases {
        let bytes = case.request.to_bytes();
        let parsed =
            log.time("wire.parse", Some(probe), case.uuid, || hdiff::wire::parse_request(&bytes));
        std::hint::black_box(parsed.is_ok());
        for host in host_values(case) {
            matches += 1;
            let m = log.time("abnf.match", Some(probe), case.uuid, || {
                hdiff::abnf::matcher::matches(&analysis.grammar, "Host", &host)
            });
            std::hint::black_box(m.is_match());
        }
    }
    log.close(probe);
    drop(testbed);

    let mut m = Metrics::zeroed(&PER_LAYER);
    m.set("analyzer.busy_ms", ms(log.total_ns("analyzer")));
    m.set("gen.busy_ms", ms(log.total_ns("gen")));
    m.set("gen.cases", cases.len() as f64);
    let inputs = inputs(&cases);
    m.set("gen.ambiguous_share", inputs.ambiguous_share);
    let tail_pct = trace::set_timing(
        &mut m,
        &log,
        "servers",
        "servers.busy_ms",
        "servers.case_p50_us",
        "servers.case_p99_us",
    );
    set_server_stats(&mut m, &sim_stats);
    m.set("wire.parse_busy_ms", ms(log.total_ns("wire.parse")));
    m.set("abnf.match_busy_ms", ms(log.total_ns("abnf.match")));
    m.set("abnf.matches", matches as f64);
    trace::set_timing(
        &mut m,
        &log,
        "detect",
        "detect.busy_ms",
        "detect.case_p50_us",
        "detect.case_p99_us",
    );
    m.set("detect.findings", findings as f64);

    // Accounting against the untraced wall: the layers the engine runs
    // per case, spread over the workers, plus the engine's own share.
    let exec_layer = if config.transport == Transport::Sim { "servers" } else { "net" };
    let per_case_busy = {
        let in_campaign: u64 = log
            .spans()
            .iter()
            .filter(|s| {
                (s.name == exec_layer || s.name == "detect") && trace::within(&log, s, campaign)
            })
            .map(trace::Span::duration_ns)
            .sum();
        in_campaign as f64
    };
    let summarize_ns = log.total_ns("summarize") as f64;
    let overhead_ns = untraced_ns - per_case_busy / threads as f64;
    m.set("engine.untraced_wall_ms", untraced_ns / 1e6);
    m.set("engine.parallel_efficiency", per_case_busy / (threads as f64 * untraced_ns));
    m.set("engine.overhead_ms", overhead_ns / 1e6);
    m.set("engine.summarize_ms", summarize_ns / 1e6);
    m.set("engine.unattributed_ms", (overhead_ns - summarize_ns) / 1e6);
    if config.transport != Transport::Sim {
        m.set("net.setup_ms", ms(log.total_ns("net.setup")));
        trace::set_timing(&mut m, &log, "net", "net.busy_ms", "net.case_p50_us", "net.case_p99_us");
        let mut tax = tax_ns;
        tax.sort_unstable();
        if let Some(mid) = tax.get(tax.len() / 2) {
            m.set("net.tax_per_case_us", *mid as f64 / 1e3);
        }
    }
    set_program_counters(&mut m, &with_telemetry.telemetry.merged);
    m.set("obs.overhead_pct", (telemetry_ns - untraced_ns) / untraced_ns * 100.0);
    m.set("trace.cases", cases.len() as f64);
    m.set("trace.tail_pct", tail_pct);
    let attempted = cases.len() as u64;
    let failed = summary.errors as u64;
    m.set("engine.fail_ratio", failed as f64 / attempted.max(1) as f64);

    trace::report_accounting(&log, untraced_ns, traced_ns, threads);
    if let Some(dir) = out {
        let path = dir.join(format!("{}-seed{seed}.spans.jsonl", workload.name()));
        if let Err(e) = log.write_jsonl(&path) {
            eprintln!("cannot write spans to {}: {e}", path.display());
        }
    }
    Outcome {
        problems,
        attempted,
        failed,
        setup_s,
        campaign_s: untraced_ns / 1e9,
        rates: walls.iter().map(|w| cases.len() as f64 / w).collect(),
        walls,
        steal,
        output_digest: digest,
        inputs,
        metrics: m,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_digest_follows_the_seed() {
        let analysis =
            DocumentAnalyzer::with_default_inputs().analyze(&hdiff::corpus::core_documents());
        let corpus = |seed| {
            let mut c = config(Workload::H1Tcp, seed);
            c.abnf_seeds = 20;
            corpus_digest(&HDiff::new(c).generate_cases(&analysis))
        };
        assert_eq!(corpus(1), corpus(1), "same seed, same corpus");
        assert_ne!(corpus(1), corpus(2), "another seed, another corpus");
    }
}
