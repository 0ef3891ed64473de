//! The stream-fuzzing workload: `FuzzEngine::run`, exactly what
//! `hdiff fuzz` calls, with a fixed iteration budget on sim.

use std::collections::BTreeSet;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

use hdiff::abnf::Grammar;
use hdiff::analyzer::DocumentAnalyzer;
use hdiff::diff::minimize::MinimizeOptions;
use hdiff::diff::replay::behavior_digests;
use hdiff::diff::workflow::is_ambiguous;
use hdiff::diff::{detect_case, schedule, Finding, ReplayBundle, Transport, Workflow};
use hdiff::fuzz::engine::{FRESH_RULES, STEP_BUDGET};
use hdiff::fuzz::{
    bundle_name, class_key, minimize_stream, Corpus, Delivery, FuzzBudget, FuzzEngine, FuzzOptions,
    FuzzReport, IngredientPool, Stream, StreamMutator, StreamRequest, FUZZ_UUID_BASE,
};
use hdiff::gen::{AbnfGenerator, CoverageMap, GenOptions};
use hdiff::servers::fault::{FaultInjector, FaultPlan, FaultSession};
use hdiff::servers::ParserProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::h1::{server_stats, set_server_stats, ServerStats};
use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::trace::{self, median, SpanLog};
use crate::{Inputs, Outcome};

/// Stream executions per session: ≈0.5 s on two cores, so each
/// measuring process of a run fits a few sessions.
const ITERS: u64 = 2000;

/// `hdiff fuzz --iters 2000 --seed <seed>` on sim, one worker per core.
pub fn options(seed: u64) -> FuzzOptions {
    FuzzOptions {
        seed,
        budget: FuzzBudget::Iters(ITERS),
        threads: 0,
        transport: Transport::Sim,
        ..FuzzOptions::default()
    }
}

/// `hdiff fuzz`'s set-up (engine construction: the syntax analysis),
/// timed.
pub fn setup_only(seed: u64) -> f64 {
    let started = Instant::now();
    let engine = FuzzEngine::standard(options(session_seed(seed, 0, 0)));
    let setup = started.elapsed().as_secs_f64();
    std::hint::black_box(engine);
    setup
}

fn analyze_syntax() -> Grammar {
    DocumentAnalyzer::with_default_inputs().analyze_syntax(&hdiff::corpus::core_documents()).grammar
}

/// The session's seed streams: every pool template as a single-request
/// stream plus one pipelined pair, as `FuzzEngine::run` builds them.
fn seed_streams(pool: &IngredientPool) -> Vec<Stream> {
    let mut seeds: Vec<Stream> = pool.requests.iter().map(|r| Stream::single(r.clone())).collect();
    if pool.requests.len() >= 2 {
        let mut s = Stream::single(pool.requests[0].clone());
        s.requests.push(StreamRequest {
            bytes: pool.requests[1].clone(),
            delivery: Delivery::Whole,
            pipelined: true,
        });
        seeds.push(s);
    }
    seeds
}

/// The seed of process `process`'s `i`-th session in the run seeded
/// `seed`. Session 0, the warm-up, is shared by every process of a run
/// (its outputs are compared across them); all timed sessions differ,
/// so the run's rate spans many sessions' worth of mutation and
/// minimization instead of riding on one seed's luck.
pub fn session_seed(seed: u64, process: u64, i: u64) -> u64 {
    let process = if i == 0 { 0 } else { process };
    crate::digest_u64s([seed, process, i])
}

/// The seed streams of every session seed in `seeds`, summarized.
fn inputs(grammar: &Grammar, seeds: &[u64]) -> Inputs {
    let streams: Vec<Stream> =
        seeds.iter().flat_map(|&s| seed_streams(&IngredientPool::build(grammar, s))).collect();
    let n = streams.len().max(1) as f64;
    let bytes: Vec<Vec<u8>> = streams.iter().map(Stream::effective_bytes).collect();
    Inputs {
        cases: ITERS as usize,
        ambiguous_share: bytes.iter().filter(|b| is_ambiguous(b)).count() as f64 / n,
        mean_bytes: bytes.iter().map(Vec::len).sum::<usize>() as f64 / n,
        requests_per_stream: streams.iter().map(|s| s.requests.len()).sum::<usize>() as f64 / n,
        corpus_digest: crate::digest(bytes.iter().map(Vec::as_slice)),
    }
}

/// Checks a session against the reference session of the same seed.
fn check_session(r: &FuzzReport, reference: &FuzzReport, problems: &mut Vec<String>) {
    if r.execs != ITERS {
        problems.push(format!("session ran {} of {ITERS} executions", r.execs));
    }
    if r.divergence_classes != reference.divergence_classes {
        problems.push("same seed, different divergence classes".to_string());
    }
    if r.corpus_digests != reference.corpus_digests {
        problems.push("same seed, different corpus digests".to_string());
    }
    if r.promoted_names() != reference.promoted_names() {
        problems.push("same seed, different promoted bundles".to_string());
    }
}

/// Every promoted bundle must replay PASS.
fn check_promoted(reference: &FuzzReport, problems: &mut Vec<String>) {
    if reference.promoted.is_empty() {
        problems.push("no divergence was promoted".to_string());
    }
    let workflow = Workflow::standard();
    let profiles = hdiff::servers::products();
    for p in &reference.promoted {
        let replay = p.bundle.replay(&workflow, &profiles, None);
        if !replay.passed() {
            problems.push(format!("promoted bundle does not replay: {}", replay.summary()));
        }
    }
}

/// Sessions while another one is expected to end by `deadline` (at
/// least one), each checked against `reference`. Returns the walls.
fn timed_sessions(
    engine: &FuzzEngine,
    reference: &FuzzReport,
    deadline: Instant,
    attempted: &mut u64,
    failed: &mut u64,
    problems: &mut Vec<String>,
) -> Vec<f64> {
    let mut walls = Vec::new();
    loop {
        let (r, wall, _) = crate::timed(|| engine.run());
        walls.push(wall);
        *attempted += r.execs;
        *failed += r.quarantined + r.net_errors;
        check_session(&r, reference, problems);
        if !crate::another_fits(&walls, deadline) {
            break;
        }
    }
    walls
}

/// The end-to-end run: cold engine construction, the run's shared
/// session as the warm-up (untimed), then one fresh session seed after
/// another while the next is expected to end within `seconds`. Checks
/// after the clock stops: with `reference`, the shared session once
/// more (same seed, same classes and corpus); always, every promoted
/// bundle replays.
pub fn run(seed: u64, process: u64, seconds: Duration, reference: bool) -> Outcome {
    hdiff::obs::set_enabled(false);
    let started = Instant::now();
    let engine = FuzzEngine::standard(options(session_seed(seed, 0, 0)));
    let setup_s = started.elapsed().as_secs_f64();
    let grammar = analyze_syntax();
    let profiles = hdiff::servers::products();

    let shared = engine.run();
    let (mut attempted, mut failed, mut problems) = (0, 0, Vec::new());
    let (mut walls, mut steal) = (Vec::new(), Vec::new());
    let mut seeds = Vec::new();
    // Peak RSS after set-up, warm-up and one session: one `hdiff fuzz`,
    // however many sessions fit the budget.
    let mut peak_rss_mb = None;
    let deadline = Instant::now() + seconds;
    loop {
        let session = session_seed(seed, process, seeds.len() as u64 + 1);
        let engine = FuzzEngine::with_environment(
            options(session),
            Workflow::standard(),
            profiles.clone(),
            grammar.clone(),
        );
        let (r, wall, stolen) = crate::timed(|| engine.run());
        walls.push(wall);
        steal.push(stolen);
        attempted += r.execs;
        failed += r.quarantined + r.net_errors;
        if r.execs != ITERS {
            problems.push(format!("session ran {} of {ITERS} executions", r.execs));
        }
        seeds.push(session);
        peak_rss_mb.get_or_insert_with(crate::peak_rss_mb);
        if !crate::another_fits(&walls, deadline) {
            break;
        }
    }
    if reference {
        check_session(&engine.run(), &shared, &mut problems);
    }
    if shared.execs != ITERS {
        problems.push(format!("session ran {} of {ITERS} executions", shared.execs));
    }
    check_promoted(&shared, &mut problems);

    let campaign_s = median(&walls);
    let rates: Vec<f64> = walls.iter().map(|w| ITERS as f64 / w).collect();
    let mut metrics = Metrics::zeroed(&END_TO_END);
    metrics.set("setup_s", setup_s);
    metrics.set("wall_s", setup_s + campaign_s);
    metrics.set("cases_per_s", median(&rates));
    metrics.set("peak_rss_mb", peak_rss_mb.unwrap_or_default());
    Outcome {
        problems,
        attempted,
        failed,
        setup_s,
        campaign_s,
        walls,
        steal,
        rates,
        output_digest: crate::digest_u64s(shared.corpus_digests.iter().copied()),
        inputs: inputs(&grammar, &seeds),
        metrics,
    }
}

/// A candidate stream awaiting execution.
struct Candidate {
    stream: Stream,
    parent: Option<u64>,
    gen_gain: usize,
    uuid: u64,
    origin: String,
}

/// What one traced execution came back with.
struct Exec {
    digests: Vec<(String, u64)>,
    findings: Vec<Finding>,
    stats: ServerStats,
    quarantined: bool,
    spans: SpanLog,
}

/// What the traced session counted.
#[derive(Default)]
struct Session {
    execs: u64,
    quarantined: u64,
    corpus_adds: u64,
    stream_requests: u64,
    ambiguous: u64,
    stats: Vec<ServerStats>,
    findings: u64,
    classes: Vec<String>,
    corpus_digests: Vec<u64>,
    minimize_attempts: usize,
    minimize_accepted: usize,
    original_bytes: usize,
    minimized_bytes: usize,
}

fn summary_points(cov: &CoverageMap) -> usize {
    let s = cov.summary();
    s.rules_covered + s.alts_covered
}

/// Inserts a header line right after the request line (the engine's
/// fresh-material operator). This and [`host_values`] copy helpers the
/// fuzz crate keeps private; the traced session's digest check catches
/// any drift between the copies.
fn inject_line(bytes: &mut Vec<u8>, line: &[u8]) {
    let at = find(bytes, b"\r\n").map_or(0, |i| i + 2);
    bytes.splice(at..at, line.iter().copied());
}

/// Every `Host` header value in a request's head (the engine's matcher
/// coverage feed): lines between the request line and the blank line,
/// value trimmed of leading whitespace, 1–128 bytes.
fn host_values(bytes: &[u8]) -> Vec<Vec<u8>> {
    let (Some(head_end), Some(line_end)) = (find(bytes, b"\r\n\r\n"), find(bytes, b"\r\n")) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut pos = line_end + 2;
    while pos < head_end + 2 {
        let Some(rel) = find(&bytes[pos..head_end + 2], b"\r\n") else { return Vec::new() };
        let line = &bytes[pos..pos + rel];
        if line.len() >= 5 && line[..5].eq_ignore_ascii_case(b"host:") {
            let value: Vec<u8> =
                line[5..].iter().copied().skip_while(|&b| b == b' ' || b == b'\t').collect();
            if !value.is_empty() && value.len() <= 128 {
                out.push(value);
            }
        }
        pos += rel + 2;
    }
    out
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// The environment a traced session runs in.
struct Env<'a> {
    grammar: &'a Grammar,
    opts: &'a FuzzOptions,
    workflow: &'a Workflow,
    profiles: &'a [ParserProfile],
    threads: usize,
    epoch: Instant,
}

impl Env<'_> {
    /// One candidate through the workflow, then detect, each under its
    /// own span inside a `fuzz.exec` span; panics quarantine.
    fn execute(&self, cand: &Candidate) -> Exec {
        let mut spans = SpanLog::new(self.epoch);
        let root = spans.open("fuzz.exec", None, cand.uuid);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            let bytes = cand.stream.effective_bytes();
            let injector = FaultInjector::new(FaultPlan::disabled());
            let session = FaultSession::new(&injector, cand.uuid, 0, STEP_BUDGET);
            let outcome = spans.time("servers", Some(root), cand.uuid, || {
                self.workflow.run_bytes_faulted(cand.uuid, &cand.origin, &bytes, Some(&session))
            });
            let findings = spans
                .time("detect", Some(root), cand.uuid, || detect_case(self.profiles, &outcome));
            (behavior_digests(&outcome), findings, server_stats(&outcome))
        }));
        spans.close(root);
        match result {
            Ok((digests, findings, stats)) => {
                Exec { digests, findings, stats, quarantined: false, spans }
            }
            Err(_) => Exec {
                digests: Vec::new(),
                findings: Vec::new(),
                stats: ServerStats::default(),
                quarantined: true,
                spans,
            },
        }
    }

    /// Whether `bytes` still shows a finding of `finding`'s class.
    fn still_diverges(&self, cand: &Candidate, finding: &Finding, bytes: &[u8]) -> bool {
        let injector = FaultInjector::new(FaultPlan::disabled());
        let session = FaultSession::new(&injector, cand.uuid, 0, STEP_BUDGET);
        let outcome =
            self.workflow.run_bytes_faulted(cand.uuid, &cand.origin, bytes, Some(&session));
        detect_case(self.profiles, &outcome)
            .iter()
            .any(|f| f.class == finding.class && f.front == finding.front && f.back == finding.back)
    }

    /// `FuzzEngine::run`'s loop, step for step, from the library's public
    /// parts, with a span around each layer call. Its corpus digests
    /// must equal the engine's for the same seed, which proves the spans
    /// describe the work the engine does.
    fn session(&self, log: &mut SpanLog) -> Session {
        let opts = self.opts;
        let root = log.open("session", None, 0);
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let cg = self.grammar.compiled();
        let mut global_cov = CoverageMap::new(&cg);
        let (pool, mut gen) = log.time("gen", Some(root), 0, || {
            let pool = IngredientPool::build(self.grammar, opts.seed);
            let gen = AbnfGenerator::new(
                self.grammar.clone(),
                GenOptions {
                    seed: opts.seed ^ 0x9e0_47a1,
                    coverage_guided: true,
                    ..GenOptions::default()
                },
            );
            (pool, gen)
        });
        let mut mutator = StreamMutator::new(opts.seed ^ 0x5_7e4a, pool);
        let mut corpus = Corpus::new(opts.corpus_cap);
        let mut pending = seed_streams(mutator.pool());
        pending.reverse();
        let mut seen_views: BTreeSet<(String, u64)> = BTreeSet::new();
        let mut seen_classes: BTreeSet<String> = BTreeSet::new();
        let mut promoted = 0usize;
        let mut s = Session::default();
        let target = match opts.budget {
            FuzzBudget::Iters(n) => n,
            FuzzBudget::Seconds(_) => unreachable!("the benchmark fixes an iteration budget"),
        };
        let batch_cap = opts.batch.max(1) as u64;

        while s.execs < target {
            let room = (target - s.execs).min(batch_cap) as usize;
            let mut batch: Vec<Candidate> = Vec::with_capacity(room);
            while batch.len() < room {
                let exec_idx = s.execs + batch.len() as u64;
                let uuid = FUZZ_UUID_BASE + 1 + exec_idx;
                let origin = format!("fuzz:{}:{}", opts.seed, exec_idx);
                if let Some(stream) = pending.pop() {
                    batch.push(Candidate { stream, parent: None, gen_gain: 0, uuid, origin });
                    continue;
                }
                if corpus.is_empty() {
                    let stream = Stream::single(mutator.pool().requests[0].clone());
                    batch.push(Candidate { stream, parent: None, gen_gain: 0, uuid, origin });
                    continue;
                }
                let parent = corpus.pick(&mut rng);
                let parent_id = parent.id;
                let parent_stream = parent.stream.clone();
                let other = corpus.pick(&mut rng).stream.clone();
                let (mut stream, _op) = log.time("fuzz.mutate", Some(root), uuid, || {
                    mutator.mutate(&parent_stream, &other)
                });
                let mut gen_gain = 0usize;
                if rng.gen_bool(0.25) {
                    let (rule, header) = FRESH_RULES[rng.gen_range(0..FRESH_RULES.len())];
                    let value = log.time("gen", Some(root), uuid, || gen.generate(rule));
                    if let Some(value) = value {
                        let req = rng.gen_range(0..stream.requests.len());
                        let line = [header, &value, b"\r\n"].concat();
                        inject_line(&mut stream.requests[req].bytes, &line);
                        stream.requests[req].repair_delivery();
                        let before = summary_points(&global_cov);
                        if let Some(cov) = gen.coverage() {
                            global_cov.merge(cov);
                        }
                        gen_gain = summary_points(&global_cov) - before;
                    }
                }
                batch.push(Candidate { stream, parent: Some(parent_id), gen_gain, uuid, origin });
            }

            let batch_span = log.open("batch", Some(root), 0);
            let results: Vec<Exec> =
                schedule::run_stealing(&batch, self.threads.min(batch.len()), |c| self.execute(c));
            log.close(batch_span);

            for (cand, result) in batch.iter().zip(results) {
                s.execs += 1;
                s.stream_requests += cand.stream.requests.len() as u64;
                s.ambiguous += u64::from(is_ambiguous(&cand.stream.effective_bytes()));
                log.absorb(result.spans, Some(batch_span));
                if result.quarantined {
                    s.quarantined += 1;
                    continue;
                }
                s.stats.push(result.stats);
                s.findings += result.findings.len() as u64;
                let score = log.open("fuzz.score", Some(root), cand.uuid);
                let before = summary_points(&global_cov);
                for req in &cand.stream.requests {
                    for host in host_values(&req.bytes) {
                        let (_, visited) =
                            hdiff::abnf::memo::match_rule_traced(&cg, "Host", &host, 20_000);
                        global_cov.absorb_rules(&visited);
                    }
                }
                let cov_gain = cand.gen_gain + (summary_points(&global_cov) - before);
                let mut new_views = 0u64;
                for (label, digest) in &result.digests {
                    if seen_views.insert((label.clone(), *digest)) {
                        new_views += 1;
                    }
                }
                let mut fresh: Vec<(String, Finding)> = Vec::new();
                for f in &result.findings {
                    let key = class_key(f);
                    if seen_classes.insert(key.clone()) {
                        fresh.push((key, f.clone()));
                    }
                }
                if cov_gain > 0 || new_views > 0 || !fresh.is_empty() {
                    let energy = 1 + 2 * (cov_gain as u64).min(8) + 2 * new_views.min(8);
                    corpus.add(cand.stream.clone(), energy, cand.parent);
                    s.corpus_adds += 1;
                    if let Some(parent) = cand.parent {
                        corpus.reward(parent, 2);
                    }
                }
                log.close(score);

                for (key, finding) in fresh {
                    if promoted >= opts.max_promotions {
                        continue;
                    }
                    promoted += 1;
                    let minimize_opts = MinimizeOptions {
                        max_attempts: opts.minimize_attempts,
                        byte_pass_limit: 0,
                        chunk_width: 16,
                    };
                    let (stream, shrink) = log.time("minimize", Some(root), cand.uuid, || {
                        minimize_stream(
                            &cand.stream,
                            |t: &Stream| self.still_diverges(cand, &finding, &t.effective_bytes()),
                            &minimize_opts,
                        )
                    });
                    s.minimize_attempts += shrink.attempts;
                    s.minimize_accepted += shrink.accepted;
                    s.original_bytes += shrink.original_len;
                    s.minimized_bytes += shrink.minimized_len;
                    let bundle = log.time("replay.record", Some(root), cand.uuid, || {
                        ReplayBundle::record(
                            &bundle_name(&key),
                            &format!("fuzz-promoted divergence {key}"),
                            cand.uuid,
                            &cand.origin,
                            &stream.effective_bytes(),
                            None,
                            self.workflow,
                            self.profiles,
                            None,
                        )
                    });
                    std::hint::black_box(bundle);
                }
            }
        }
        log.close(root);
        s.classes = seen_classes.into_iter().collect();
        s.corpus_digests = corpus.digests();
        s
    }
}

/// The traced run: engine set-up under spans, untraced sessions for
/// half the budget (the accounting's reference wall), one telemetry-on
/// session (the program's counters and the obs layer's cost), then one
/// session the benchmark drives itself with spans around every layer
/// call, and the wire/abnf probes over the session's seed material.
pub fn run_traced(seed: u64, seconds: Duration, out: Option<&Path>) -> Outcome {
    hdiff::obs::set_enabled(false);
    let epoch = Instant::now();
    let mut log = SpanLog::new(epoch);
    let setup = log.open("setup", None, 0);
    let grammar = log.time("analyzer", Some(setup), 0, analyze_syntax);
    let opts = options(session_seed(seed, 0, 0));
    let workflow = Workflow::standard();
    let profiles = hdiff::servers::products();
    let engine = FuzzEngine::with_environment(
        opts.clone(),
        Workflow::standard(),
        profiles.clone(),
        grammar.clone(),
    );
    log.close(setup);
    let setup_s = log.spans()[setup].duration_ns() as f64 / 1e9;
    let threads = crate::threads();
    let mut problems = Vec::new();

    let reference = engine.run();
    let (mut attempted, mut failed) = (0, 0);
    let walls = timed_sessions(
        &engine,
        &reference,
        Instant::now() + seconds / 2,
        &mut attempted,
        &mut failed,
        &mut problems,
    );
    let untraced_ns = median(&walls) * 1e9;

    hdiff::obs::set_enabled(true);
    let started = Instant::now();
    let with_telemetry = engine.run();
    let telemetry_ns = started.elapsed().as_secs_f64() * 1e9;
    hdiff::obs::set_enabled(false);
    check_session(&with_telemetry, &reference, &mut problems);

    let env = Env {
        grammar: &grammar,
        opts: &opts,
        workflow: &workflow,
        profiles: &profiles,
        threads,
        epoch,
    };
    let s = env.session(&mut log);
    if s.corpus_digests != reference.corpus_digests || s.classes != reference.divergence_classes {
        problems
            .push("the traced session diverged from FuzzEngine::run on the same seed".to_string());
    }
    let session = log.spans().iter().position(|sp| sp.name == "session").expect("session span");
    let traced_ns = log.spans()[session].duration_ns() as f64;

    let mut m = Metrics::zeroed(&PER_LAYER);
    m.set("analyzer.busy_ms", log.total_ns("analyzer") as f64 / 1e6);
    m.set("gen.busy_ms", log.total_ns("gen") as f64 / 1e6);
    m.set("gen.cases", s.execs as f64);
    let execs = s.execs.max(1) as f64;
    m.set("gen.ambiguous_share", s.ambiguous as f64 / execs);
    let tail_pct = trace::set_timing(
        &mut m,
        &log,
        "servers",
        "servers.busy_ms",
        "servers.case_p50_us",
        "servers.case_p99_us",
    );
    set_server_stats(&mut m, &s.stats);
    trace::set_timing(
        &mut m,
        &log,
        "detect",
        "detect.busy_ms",
        "detect.case_p50_us",
        "detect.case_p99_us",
    );
    m.set("detect.findings", s.findings as f64);
    trace::set_timing(
        &mut m,
        &log,
        "fuzz.exec",
        "fuzz.exec_busy_ms",
        "fuzz.exec_p50_us",
        "fuzz.exec_p99_us",
    );
    m.set("fuzz.mutate_busy_ms", log.total_ns("fuzz.mutate") as f64 / 1e6);
    m.set("fuzz.score_busy_ms", log.total_ns("fuzz.score") as f64 / 1e6);
    m.set("fuzz.corpus_add_ratio", s.corpus_adds as f64 / execs);
    m.set("fuzz.novel_classes", s.classes.len() as f64);
    m.set("fuzz.stream_requests_mean", s.stream_requests as f64 / execs);
    m.set("minimize.busy_ms", log.total_ns("minimize") as f64 / 1e6);
    m.set("minimize.attempts", s.minimize_attempts as f64);
    if s.minimize_attempts > 0 {
        m.set("minimize.accept_ratio", s.minimize_accepted as f64 / s.minimize_attempts as f64);
    }
    if s.original_bytes > 0 {
        m.set("minimize.shrink_ratio", s.minimized_bytes as f64 / s.original_bytes as f64);
    }

    // Accounting against the untraced session wall: executions spread
    // over the workers, the serial layers in full.
    let exec_ns = log.total_ns("fuzz.exec") as f64;
    let serial_ns: f64 = ["fuzz.mutate", "gen", "fuzz.score", "minimize", "replay.record"]
        .iter()
        .map(|n| {
            log.spans()
                .iter()
                .filter(|sp| sp.name == *n && trace::within(&log, sp, session))
                .map(trace::Span::duration_ns)
                .sum::<u64>() as f64
        })
        .sum();
    let overhead_ns = untraced_ns - exec_ns / threads as f64 - serial_ns;
    m.set("engine.untraced_wall_ms", untraced_ns / 1e6);
    m.set("engine.parallel_efficiency", exec_ns / (threads as f64 * untraced_ns));
    m.set("engine.overhead_ms", overhead_ns / 1e6);
    m.set("engine.unattributed_ms", overhead_ns / 1e6);
    m.set(
        "abnf.memo_miss",
        with_telemetry.telemetry.counters.get("abnf.memo.miss").copied().unwrap_or(0) as f64,
    );
    m.set("obs.overhead_pct", (telemetry_ns - untraced_ns) / untraced_ns * 100.0);

    // Layer primitives over the streams' seed material.
    let probe = log.open("probe", None, 0);
    let pool = IngredientPool::build(&grammar, opts.seed);
    let mut matches = 0u64;
    for stream in seed_streams(&pool) {
        let bytes = stream.effective_bytes();
        let parsed = log.time("wire.parse", Some(probe), 0, || hdiff::wire::parse_request(&bytes));
        std::hint::black_box(parsed.is_ok());
    }
    for host in &pool.hosts {
        matches += 1;
        let r = log.time("abnf.match", Some(probe), 0, || {
            hdiff::abnf::matcher::matches(&grammar, "Host", host)
        });
        std::hint::black_box(r.is_match());
    }
    log.close(probe);
    m.set("wire.parse_busy_ms", log.total_ns("wire.parse") as f64 / 1e6);
    m.set("abnf.match_busy_ms", log.total_ns("abnf.match") as f64 / 1e6);
    m.set("abnf.matches", matches as f64);
    m.set("trace.cases", s.execs as f64);
    m.set("trace.tail_pct", tail_pct);
    m.set("engine.fail_ratio", s.quarantined as f64 / execs);

    trace::report_accounting(&log, untraced_ns, traced_ns, threads);
    if let Some(dir) = out {
        let path = dir.join(format!("fuzz-sim-seed{seed}.spans.jsonl"));
        if let Err(e) = log.write_jsonl(&path) {
            eprintln!("cannot write spans to {}: {e}", path.display());
        }
    }
    Outcome {
        problems,
        attempted: s.execs,
        failed: s.quarantined,
        setup_s,
        campaign_s: untraced_ns / 1e9,
        rates: walls.iter().map(|w| ITERS as f64 / w).collect(),
        walls,
        steal: Vec::new(),
        output_digest: crate::digest_u64s(reference.corpus_digests.iter().copied()),
        inputs: inputs(&grammar, &[opts.seed]),
        metrics: m,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_stream_digest_follows_the_seed() {
        let grammar = analyze_syntax();
        let digest = |seed| inputs(&grammar, &[session_seed(seed, 0, 0)]).corpus_digest;
        assert_eq!(digest(1), digest(1), "same seed, same seed streams");
        assert_ne!(digest(1), digest(2), "another seed, other seed streams");
    }

    #[test]
    fn host_values_reads_only_header_lines() {
        let bytes = b"GET /host:x HTTP/1.1\r\nHost: a.com\r\nhOsT:\t b\r\nHost:\r\n\r\nHost: body";
        assert_eq!(host_values(bytes), vec![b"a.com".to_vec(), b"b".to_vec()]);
        assert!(host_values(b"GET / HTTP/1.1\r\nHost: no-blank-line\r\n").is_empty());
    }
}
