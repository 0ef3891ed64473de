//! `campaign-bench` — the measuring process behind `run.py`.
//!
//! ```text
//! campaign-bench run --workload W --seed N --seconds S --trace 0|1 --out DIR
//!                    [--process P] [--reference]
//! campaign-bench setup --workload W --seed N
//! ```
//!
//! `run` performs one workload in this (fresh) process and prints one
//! JSON record as its last stdout line; `setup` performs only the
//! workload's set-up and prints its duration. `run.py` spreads an
//! untraced run over several such processes (`--process` numbers them;
//! `--reference` asks one of them for the single-thread reference
//! check) and takes medians over all of them. See README.md for the
//! workloads and every metric.

mod fuzz;
mod h1;
mod metrics;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use metrics::Metrics;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full-shape HTTP/1.1 campaign on the in-process transport.
    H1Sim,
    /// The same corpus shape over the epoll reactor transport.
    H1TcpAsync,
    /// The same corpus shape over the blocking socket transport.
    H1Tcp,
    /// Stream fuzzing with a fixed iteration budget on sim.
    FuzzSim,
}

impl Workload {
    /// Every workload `--workload` accepts.
    pub const ALL: [Workload; 4] =
        [Workload::H1Sim, Workload::H1TcpAsync, Workload::H1Tcp, Workload::FuzzSim];

    /// The workloads `BENCHMARK.json` lists, in its order. `h1-tcp` is
    /// left out: under sustained load its per-case listeners exhaust the
    /// loopback port range and cases fail (see README.md).
    pub const BENCHMARKED: [Workload; 3] =
        [Workload::H1Sim, Workload::H1TcpAsync, Workload::FuzzSim];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::H1Sim => "h1-sim",
            Workload::H1TcpAsync => "h1-tcp-async",
            Workload::H1Tcp => "h1-tcp",
            Workload::FuzzSim => "fuzz-sim",
        }
    }

    /// Why the workload exists, in one sentence.
    pub fn why(self) -> &'static str {
        match self {
            Workload::H1Sim => {
                "generate, chain-execute and detect with no sockets: the control for every \
                 transport change and the workload for thread scaling and interpretation cost"
            }
            Workload::H1TcpAsync => {
                "the same corpus over the epoll reactor, which dominates; keeping many cases in \
                 flight shows here and nowhere else"
            }
            Workload::H1Tcp => {
                "the same corpus over the blocking server/proxy/echo handlers, a separate \
                 implementation from the reactor that no other workload measures"
            }
            Workload::FuzzSim => {
                "many small pipelined or segmented streams through a mutate/score loop that \
                 minimizes every novel class, using servers and detect unlike a campaign"
            }
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Properties of the generated inputs, recorded with every run so a
/// shift in inputs shows next to any shift in numbers.
#[derive(Debug, Default)]
pub struct Inputs {
    /// Cases per campaign (h1) or stream executions per session (fuzz).
    pub cases: usize,
    /// Share of cases (seed streams for fuzz) the replay-reduction
    /// heuristic flags as ambiguous.
    pub ambiguous_share: f64,
    /// Mean bytes per case (seed stream for fuzz).
    pub mean_bytes: f64,
    /// Mean requests per stream (1 for h1 cases).
    pub requests_per_stream: f64,
    /// FNV-1a digest of the generated corpus.
    pub corpus_digest: u64,
}

/// What one measuring process reports.
#[derive(Debug)]
pub struct Outcome {
    /// Every failed output check, empty when correct.
    pub problems: Vec<String>,
    /// Operations attempted (cases or stream executions).
    pub attempted: u64,
    /// Attempted operations that failed (error, net error, quarantine).
    pub failed: u64,
    /// This process's own set-up time.
    pub setup_s: f64,
    /// Median timed campaign (or session) wall.
    pub campaign_s: f64,
    /// Every timed campaign (or session) wall, in seconds.
    pub walls: Vec<f64>,
    /// Share of the machine's CPU time stolen during each timed campaign.
    pub steal: Vec<f64>,
    /// Cases (or stream executions) per second of each timed campaign.
    pub rates: Vec<f64>,
    /// Digest of the outputs, equal in every process of one run: the
    /// findings (h1) or the shared first session's corpus (fuzz).
    pub output_digest: u64,
    /// The input-property record.
    pub inputs: Inputs,
    /// End-to-end (trace 0) or per-layer (trace 1) metrics.
    pub metrics: Metrics,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    process: u64,
    reference: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Option<&str> {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
    };
    let workload = value("--workload").ok_or("--workload is required")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = value("--seed").ok_or("--seed is required")?;
    let seed = seed.parse().map_err(|_| format!("--seed: not a number: {seed:?}"))?;
    let seconds = value("--seconds").unwrap_or("10");
    let seconds: f64 =
        seconds.parse().map_err(|_| format!("--seconds: not a number: {seconds:?}"))?;
    if !(0.1..=600.0).contains(&seconds) {
        return Err("--seconds must be within 0.1..600".to_string());
    }
    let process = value("--process").unwrap_or("0");
    let process = process.parse().map_err(|_| format!("--process: not a number: {process:?}"))?;
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out: value("--out").map(PathBuf::from),
        process,
        reference: args.iter().any(|a| a == "--reference"),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: campaign-bench run|setup --workload W --seed N [--seconds S] \
                 [--trace 0|1] [--out DIR] [--process P] [--reference]";
    let (mode, rest) = match argv.split_first() {
        Some((m, rest)) if m == "run" || m == "setup" => (m.as_str(), rest),
        _ => {
            eprintln!("{usage}");
            return ExitCode::from(2);
        }
    };
    let args = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{usage}");
            return ExitCode::from(2);
        }
    };
    if mode == "setup" {
        let setup_s = match args.workload {
            Workload::FuzzSim => fuzz::setup_only(args.seed),
            w => h1::setup_only(w, args.seed),
        };
        println!("{{\"setup_s\": {}}}", metrics::num(setup_s));
        return ExitCode::SUCCESS;
    }

    let seconds = Duration::from_secs_f64(args.seconds);
    let outcome = match (args.workload, args.trace) {
        (Workload::FuzzSim, false) => fuzz::run(args.seed, args.process, seconds, args.reference),
        (Workload::FuzzSim, true) => fuzz::run_traced(args.seed, seconds, args.out.as_deref()),
        (w, false) => h1::run(w, args.seed, seconds, args.reference),
        (w, true) => h1::run_traced(w, args.seed, seconds, args.out.as_deref()),
    };
    let record = render(&args, &outcome);
    if let Some(dir) = &args.out {
        let name = format!(
            "{}-seed{}-trace{}-p{}.json",
            args.workload.name(),
            args.seed,
            args.trace as u8,
            args.process
        );
        if let Err(e) = std::fs::write(dir.join(name), format!("{record}\n")) {
            eprintln!("cannot write the run record under {}: {e}", dir.display());
        }
    }
    for p in &outcome.problems {
        eprintln!("check failed: {p}");
    }
    println!("{record}");
    if outcome.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn render(args: &Args, o: &Outcome) -> String {
    let problems: Vec<String> = o.problems.iter().map(|p| metrics::string(p)).collect();
    let i = &o.inputs;
    let inputs: BTreeMap<&str, String> = [
        ("seed", args.seed.to_string()),
        ("cases", i.cases.to_string()),
        ("ambiguous_share", metrics::num(i.ambiguous_share)),
        ("mean_bytes", metrics::num(i.mean_bytes)),
        ("requests_per_stream", metrics::num(i.requests_per_stream)),
        ("corpus_digest", format!("\"{:016x}\"", i.corpus_digest)),
        ("why", metrics::string(args.workload.why())),
    ]
    .into_iter()
    .collect();
    let inputs: Vec<String> = inputs.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"correct\": {}, \"problems\": [{}], \
         \"attempted\": {}, \"failed\": {}, \"setup_s\": {}, \"campaign_s\": {}, \"walls\": [{}], \
         \"rates\": [{}], \"steal\": [{}], \"output_digest\": \"{:016x}\", \"threads\": {}, \
         \"inputs\": {{{}}}, \"metrics\": {}}}",
        args.workload.name(),
        args.seed,
        args.trace as u8,
        o.problems.is_empty(),
        problems.join(", "),
        o.attempted,
        o.failed,
        metrics::num(o.setup_s),
        metrics::num(o.campaign_s),
        list(&o.walls),
        list(&o.rates),
        list(&o.steal),
        o.output_digest,
        threads(),
        inputs.join(", "),
        o.metrics.to_json(),
    )
}

fn list(values: &[f64]) -> String {
    values.iter().map(|v| metrics::num(*v)).collect::<Vec<_>>().join(", ")
}

/// Whether one more repeat, as long as the last one (`walls` in
/// seconds), would end by `deadline`. Measuring only repeats that fit
/// keeps a process's repeat count from hinging on whether the last one
/// happened to start a moment before the deadline.
pub fn another_fits(walls: &[f64], deadline: std::time::Instant) -> bool {
    let last = Duration::from_secs_f64(walls.last().copied().unwrap_or(0.0));
    std::time::Instant::now() + last <= deadline
}

/// Runs `f` and returns its result, its wall time in seconds, and the
/// share of the machine's CPU time the hypervisor stole meanwhile (`steal`
/// in `/proc/stat`; 0 where the platform does not report it).
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let stolen = steal_s();
    let started = std::time::Instant::now();
    let out = f();
    let wall = started.elapsed().as_secs_f64();
    let cpus = threads() as f64;
    (out, wall, ((steal_s() - stolen) / (wall * cpus)).max(0.0))
}

/// CPU seconds stolen from this machine since boot, summed over CPUs.
fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    // `cpu  user nice system idle iowait irq softirq steal …`, in USER_HZ
    // (100 per second on Linux).
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Worker threads every workload runs with: one per available core.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where the
/// platform does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over a sequence of integers.
pub fn digest_u64s(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = hdiff::diff::Fnv::new();
    for v in values {
        h.write_u64(v);
    }
    h.0
}

/// FNV-1a over a sequence of byte strings, each length-prefixed.
pub fn digest<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h = hdiff::diff::Fnv::new();
    for p in parts {
        h.write_u64(p.len() as u64);
        h.write(p);
    }
    h.0
}
