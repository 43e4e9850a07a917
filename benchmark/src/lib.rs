//! The repo benchmark: transaction-path latency and throughput on four
//! workloads, and a per-layer trace taken from outside the program.
//! `README.md` beside this crate says what is measured and why.

pub mod gen;
pub mod metrics;
pub mod rng;
pub mod stats;
pub mod wire;
pub mod workloads;
pub mod world;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

use amos_metrics::JsonValue;

use gen::Stream;
use metrics::{Metrics, END_TO_END, PER_LAYER};
use stats::Span;
use workloads::Totals;

/// One run of one workload.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    /// Scales the fixed operation counts (see `workloads::counts`).
    pub seconds: u64,
    /// Replay with spans and report the per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Counts ÷ 50: for smoke tests only, the numbers mean nothing.
    pub quick: bool,
    /// Falsify the generator's model before the oracle compares (the
    /// tests' proof that a wrong answer fails the run).
    pub break_model: bool,
}

/// What a run found.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    /// Operations attempted (transactions, wire lines, oracle checks) …
    pub attempted: u64,
    /// … and those that errored, were refused, or gave an answer an
    /// oracle rejects.
    pub failed: u64,
    pub problems: Vec<String>,
    /// Engine counts of the traced run (embedded workloads).
    pub totals: Totals,
    /// Digest of the final stored quantities, read from the engine.
    pub digest: u64,
}

impl Outcome {
    /// Record an oracle's verdict: one attempted check, failed once per
    /// disagreement.
    pub fn check(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        self.failed += problems.len() as u64;
        self.problems.extend(problems);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line of the benchmark contract.
    pub fn to_json(&self, trace: bool) -> JsonValue {
        let decls = if trace { PER_LAYER } else { END_TO_END };
        JsonValue::object()
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", self.metrics.to_json(decls))
    }
}

pub fn stream_of(workload: &str) -> Option<Stream> {
    match workload {
        "small_txn" => Some(Stream::Small),
        "bulk_txn" => Some(Stream::Bulk),
        "mixed_rules" => Some(Stream::Mixed),
        _ => None,
    }
}

pub fn workload_name(stream: Stream) -> &'static str {
    match stream {
        Stream::Small => "small_txn",
        Stream::Bulk => "bulk_txn",
        Stream::Mixed => "mixed_rules",
    }
}

/// Run one workload in this process.
pub fn run_workload(cfg: &RunConfig) -> Result<Outcome, String> {
    match (stream_of(&cfg.workload), cfg.workload.as_str()) {
        (Some(stream), _) => Ok(workloads::run(stream, cfg)),
        (None, "wire_oltp") => Ok(wire::run(cfg)),
        _ => Err(format!(
            "unknown workload `{}` (expected one of {})",
            cfg.workload,
            metrics::WORKLOADS.join(", ")
        )),
    }
}

/// Where traces, results and the wire workload's WAL directories go:
/// `benchmark/out/` when run from the repository root, as the contract's
/// command is, and `out/` from inside `benchmark/`.
pub fn out_dir() -> PathBuf {
    let dir = if Path::new("benchmark/Cargo.toml").is_file() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    };
    std::fs::create_dir_all(&dir).expect("create the output directory");
    dir
}

/// `VmHWM` of this process: the most memory it has had resident.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed pure-CPU loop (hash 2²⁴ integers), to tell a slow machine from
/// a slow program: the fastest of five, since the host only ever adds time.
pub fn calibrate_ms() -> f64 {
    let once = || {
        let start = Instant::now();
        let mut rng = rng::SplitMix64::new(0);
        let mut acc = 0u64;
        for _ in 0..1 << 24 {
            acc ^= rng.next_u64();
        }
        std::hint::black_box(acc);
        start.elapsed().as_secs_f64() * 1e3
    };
    (0..5).map(|_| once()).fold(f64::INFINITY, f64::min)
}

/// Spans written per trace file; a run records more (every update of
/// every bulk transaction) and uses them all for the self times.
const TRACE_FILE_SPANS: usize = 200_000;

/// Print each layer's share of the traced transaction time and write the
/// spans kept in memory, with those shares, to `trace_<workload>.json`.
pub fn write_trace(workload: &str, spans: &[Span], shares: &BTreeMap<&str, f64>) {
    eprintln!("layer shares of the traced transaction time on {workload}:");
    for (layer, share) in shares {
        eprintln!("  {layer:<14} {:>6.1} %", share * 100.0);
    }
    let path = out_dir().join(format!("trace_{workload}.json"));
    let shares = shares
        .iter()
        .fold(JsonValue::object(), |o, (k, v)| o.with(k, *v));
    let listed = spans
        .iter()
        .take(TRACE_FILE_SPANS)
        .map(|s| {
            JsonValue::object()
                .with("name", s.name)
                .with("start_ns", s.start_ns)
                .with("end_ns", s.end_ns)
                .with(
                    "parent",
                    if s.parent == stats::NO_PARENT {
                        JsonValue::Null
                    } else {
                        JsonValue::from(s.parent as u64)
                    },
                )
                .with("txn", s.txn as u64)
        })
        .collect();
    let doc = JsonValue::object()
        .with("workload", workload)
        .with("spans_recorded", spans.len())
        .with("layer_shares", shares)
        .with("spans", JsonValue::Array(listed));
    let written = std::fs::File::create(&path)
        .and_then(|mut f| writeln!(f, "{}", doc.to_compact()).and_then(|()| f.flush()));
    if let Err(e) = written {
        eprintln!("cannot write {}: {e}", path.display());
    }
}
