//! Multi-session transaction-server throughput, conflict behavior, and
//! pipeline ablation.
//!
//! Per session count, each selected pipeline variant (`on` = grouped
//! WAL + statement pipelining, `off` = one commit per fsync,
//! line-at-a-time protocol) runs three phases over its own WAL-attached
//! engine (either way a session waits for its fsync after releasing the
//! engine write lock):
//!
//! * **Deterministic phase** — a single driver thread advances K
//!   sessions in strict round-robin through seeded workloads (two
//!   whole-relation `threshold` scans plus one hot-key-skewed
//!   read-modify-write of `quantity` per transaction). The interleaving
//!   and every key choice derive from the seed, so the resulting
//!   `committed` / `aborted` / `fsyncs` counters are **exact across
//!   machines** — the bench-regression gate compares them with zero
//!   tolerance: any drift means conflict detection or the WAL flush
//!   protocol itself changed.
//! * **Timed phase** — the same total workload run twice: serially on
//!   one session (`serial_ms`), then free-running on K OS threads with
//!   retry-on-conflict (`concurrent_ms`, `commits_per_sec`). The gate
//!   compares only the `serial_ms / concurrent_ms` *ratio*, floored by
//!   a tolerance — absolute milliseconds measure the runner. The
//!   free-running run also snapshots [`amos_db::CommitMetrics`]
//!   (fsyncs, batch-size histogram, lock-hold ns, waiters woken) into
//!   the row's informative `commit` object.
//! * **Wire phase** (`on` rows only) — a real `amos_server` instance
//!   driven by K TCP clients: `pipelined_ms` streams statements in
//!   windows of 16 against the full pipeline stack, `unpipelined_ms`
//!   waits for `READY` after every line against the all-off stack. The
//!   `pipeline_speedup` ratio is what the `--pipeline-floor` CI gate
//!   watches (only on runners with `hw_threads >= sessions`).
//!
//! ```text
//! cargo run --release -p amos-bench --bin concurrent_sessions -- \
//!     --json BENCH_server.json [--sessions 1,2,4,8] [--transactions 30] \
//!     [--pipeline on|off|both]
//! ```

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use amos_db::{Amos, CommitMetrics, SharedEngine, WalConfig};
use amos_metrics::JsonValue;
use amos_server::{serve, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N_ITEMS: usize = 16;
/// Statements a pipelined wire client streams before draining responses.
const CLIENT_WINDOW: usize = 16;

/// One pipeline variant of the full stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pipeline {
    On,
    Off,
}

impl Pipeline {
    fn label(self) -> &'static str {
        match self {
            Pipeline::On => "on",
            Pipeline::Off => "off",
        }
    }

    fn wal_config(self) -> WalConfig {
        match self {
            // Group window 8: a flush leader drains up to the whole
            // backlog; delay 0 keeps single-commit latency unchanged
            // (coalescing comes from commits arriving mid-flush).
            Pipeline::On => WalConfig::grouped(8),
            Pipeline::Off => WalConfig::default(),
        }
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "amos-bench-sessions-{}-{tag}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn build(pipeline: Pipeline, wal_dir: &Path) -> Arc<SharedEngine> {
    let mut db = Amos::new();
    db.register_procedure("note", |_ctx, _args| Ok(()));
    db.attach_wal(wal_dir, pipeline.wal_config()).expect("WAL");
    db.execute(
        r#"
        create type item;
        create function quantity(item i) -> integer;
        create function threshold(item i) -> integer;

        create rule low() as
            when for each item i
            where quantity(i) < threshold(i)
            do note(i);
    "#,
    )
    .expect("schema");
    let names: Vec<String> = (0..N_ITEMS).map(|i| format!(":i{i}")).collect();
    db.execute(&format!("create item instances {};", names.join(", ")))
        .expect("instances");
    for (i, name) in names.iter().enumerate() {
        db.execute(&format!("set quantity({name}) = {};", 1_000 + i as i64))
            .expect("quantity");
        db.execute(&format!("set threshold({name}) = 0;"))
            .expect("threshold");
    }
    db.execute("activate low();").expect("activate");
    SharedEngine::new(db)
}

/// One transaction body: two parallelizable whole-relation reads plus a
/// hot-key-skewed read-modify-write (30% of writes hit item 0).
fn txn_body(rng: &mut StdRng) -> String {
    let key = if rng.gen_bool(0.3) {
        0
    } else {
        rng.gen_range(0..N_ITEMS)
    };
    format!(
        "select threshold(i) for each item i; \
         select threshold(i) for each item i; \
         set quantity(:i{key}) = quantity(:i{key}) - 1;"
    )
}

/// Round-robin deterministic phase: K sessions, `per` transactions
/// each, advanced one protocol step at a time in session order. Every
/// transaction of a round overlaps every other, so same-key writes in
/// one round conflict by construction. Aborted transactions are counted
/// and skipped (not retried), keeping all three counters exact: the
/// single driver thread makes the WAL flush schedule — and therefore
/// `fsyncs` — as deterministic as the commit sequence itself.
fn deterministic_phase(k: usize, per: usize, seed: u64, pipeline: Pipeline) -> (u64, u64, u64) {
    let dir = fresh_dir("det");
    let engine = build(pipeline, &dir);
    let fsyncs_before = engine.commit_metrics().wal.map_or(0, |w| w.fsyncs);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sessions: Vec<_> = (0..k).map(|_| engine.session()).collect();
    let bodies: Vec<Vec<String>> = (0..k)
        .map(|_| (0..per).map(|_| txn_body(&mut rng)).collect())
        .collect();
    let (mut committed, mut aborted) = (0u64, 0u64);
    for round in 0..per {
        for s in sessions.iter_mut() {
            s.execute("begin;").unwrap();
        }
        for (s, body) in sessions.iter_mut().zip(&bodies) {
            s.execute(&body[round]).unwrap();
        }
        for s in sessions.iter_mut() {
            match s.execute("commit;") {
                Ok(_) => committed += 1,
                Err(e) if e.is_retryable() => aborted += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
    }
    let fsyncs = engine.commit_metrics().wal.map_or(0, |w| w.fsyncs) - fsyncs_before;
    drop(sessions);
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    (committed, aborted, fsyncs)
}

/// Serial reference: the full K×per workload on one session, one
/// transaction at a time.
fn serial_phase(k: usize, per: usize, seed: u64, pipeline: Pipeline) -> f64 {
    let dir = fresh_dir("serial");
    let engine = build(pipeline, &dir);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = engine.session();
    let start = Instant::now();
    for _ in 0..k * per {
        let body = txn_body(&mut rng);
        s.execute(&format!("begin; {body} commit;")).unwrap();
    }
    let ms = start.elapsed().as_secs_f64() * 1e3;
    drop(s);
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    ms
}

/// Free-running phase: K threads, each its own session, retrying
/// conflicted transactions until they commit. Returns (elapsed ms,
/// committed, commit-pipeline metrics).
fn concurrent_phase(
    k: usize,
    per: usize,
    seed: u64,
    pipeline: Pipeline,
) -> (f64, u64, CommitMetrics) {
    let dir = fresh_dir("conc");
    let engine = build(pipeline, &dir);
    let committed = Arc::new(AtomicUsize::new(0));
    let start = Instant::now();
    let mut handles = Vec::new();
    for t in 0..k {
        let engine = Arc::clone(&engine);
        let committed = Arc::clone(&committed);
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9E37));
            let mut s = engine.session();
            for _ in 0..per {
                let body = txn_body(&mut rng);
                let script = format!("begin; {body} commit;");
                loop {
                    match s.execute(&script) {
                        Ok(_) => {
                            committed.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                        Err(e) if e.is_retryable() => continue,
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let metrics = engine.commit_metrics();
    let n = committed.load(Ordering::Relaxed) as u64;
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    (ms, n, metrics)
}

/// Wire phase: a real TCP server driven by K clients, each committing
/// `per` disjoint-key transactions (no conflicts, so a pipelined client
/// never has to re-pair a retried statement). `windowed` streams
/// [`CLIENT_WINDOW`] lines before draining their responses; otherwise
/// each line waits for its `READY`.
fn wire_phase(k: usize, per: usize, pipeline: Pipeline, windowed: bool) -> f64 {
    let dir = fresh_dir("wire");
    let engine = build(pipeline, &dir);
    let config = ServerConfig {
        max_sessions: k.max(1),
        pipeline: pipeline == Pipeline::On,
        ..ServerConfig::default()
    };
    let mut server = serve("127.0.0.1:0", engine, config).expect("bind");
    let addr = server.addr();
    let start = Instant::now();
    let mut handles = Vec::new();
    for t in 0..k {
        handles.push(std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).expect("connect");
            let mut r = BufReader::new(stream.try_clone().expect("clone"));
            let mut w = BufWriter::new(stream);
            let mut line = String::new();
            let mut ready = || loop {
                line.clear();
                assert!(r.read_line(&mut line).expect("read") > 0, "server hung up");
                assert!(
                    !line.starts_with("ERR "),
                    "unexpected wire error: {}",
                    line.trim_end()
                );
                if line.starts_with("READY") {
                    return;
                }
            };
            ready(); // greeting
            let key = t % N_ITEMS;
            let script = format!(
                "begin; select threshold(i) for each item i; \
                 set quantity(:i{key}) = quantity(:i{key}) - 1; commit;\n"
            );
            let mut sent = 0usize;
            let mut acked = 0usize;
            while acked < per {
                if windowed {
                    while sent < per && sent - acked < CLIENT_WINDOW {
                        w.write_all(script.as_bytes()).expect("write");
                        sent += 1;
                    }
                    w.flush().expect("flush");
                } else if sent == acked {
                    w.write_all(script.as_bytes()).expect("write");
                    w.flush().expect("flush");
                    sent += 1;
                }
                ready();
                acked += 1;
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let ms = start.elapsed().as_secs_f64() * 1e3;
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
    ms
}

fn commit_json(m: &CommitMetrics) -> JsonValue {
    let mut obj = JsonValue::object()
        .with("commits", m.commits)
        .with("lock_hold_ns", m.lock_hold_ns)
        .with("lock_hold_ns_max", m.lock_hold_ns_max);
    if let Some(wal) = &m.wal {
        obj = obj
            .with("fsyncs", wal.fsyncs)
            .with("batches", wal.batches)
            .with("max_group", wal.max_group)
            .with("waiters_woken", wal.waiters_woken)
            .with(
                "group_hist",
                JsonValue::Array(wal.group_hist.iter().map(|&n| JsonValue::from(n)).collect()),
            );
    }
    obj
}

fn main() {
    let mut json: Option<PathBuf> = None;
    let mut sessions = vec![1usize, 2, 4, 8];
    let mut per = 30usize;
    let mut variants = vec![Pipeline::On, Pipeline::Off];
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match flag.as_str() {
            "--json" => json = Some(PathBuf::from(value("--json"))),
            "--sessions" => {
                sessions = value("--sessions")
                    .split(',')
                    .map(|s| s.trim().parse().expect("bad session count"))
                    .collect()
            }
            "--transactions" => per = value("--transactions").parse().expect("bad count"),
            "--pipeline" => {
                variants = match value("--pipeline").as_str() {
                    "on" => vec![Pipeline::On],
                    "off" => vec![Pipeline::Off],
                    "both" => vec![Pipeline::On, Pipeline::Off],
                    other => panic!("--pipeline takes on|off|both, got {other:?}"),
                }
            }
            other => panic!(
                "unknown flag {other:?} (expected --json PATH, --sessions A,B,C, \
                 --transactions N, --pipeline on|off|both)"
            ),
        }
    }
    let hw_threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!(
        "concurrent_sessions: {per} transactions/session, sessions {sessions:?}, \
         pipeline {:?}, hw_threads {hw_threads}",
        variants.iter().map(|v| v.label()).collect::<Vec<_>>()
    );
    let mut rows = Vec::new();
    for &k in &sessions {
        for &pipeline in &variants {
            let (committed, aborted, fsyncs) = deterministic_phase(k, per, 42, pipeline);
            let serial_ms = serial_phase(k, per, 43, pipeline);
            let (concurrent_ms, free_committed, metrics) = concurrent_phase(k, per, 43, pipeline);
            let commits_per_sec =
                free_committed as f64 / (concurrent_ms / 1e3).max(f64::MIN_POSITIVE);
            println!(
                "  sessions={k} pipeline={}: committed={committed} aborted={aborted} \
                 fsyncs={fsyncs} serial={serial_ms:.1}ms concurrent={concurrent_ms:.1}ms \
                 ({commits_per_sec:.0} commits/s, serial/concurrent {:.2}x)",
                pipeline.label(),
                serial_ms / concurrent_ms.max(f64::MIN_POSITIVE)
            );
            let mut row = JsonValue::object()
                .with("sessions", k)
                .with("pipeline", pipeline.label())
                .with("hw_threads", hw_threads)
                .with("committed", committed)
                .with("aborted", aborted)
                .with("fsyncs", fsyncs)
                .with("serial_ms", serial_ms)
                .with("concurrent_ms", concurrent_ms)
                .with("commits_per_sec", commits_per_sec);
            if pipeline == Pipeline::On {
                // The wire ablation compares the whole stack: pipelined
                // clients + pipelined server + grouped WAL vs the all-off
                // configuration, at the same session count.
                let pipelined_ms = wire_phase(k, per, Pipeline::On, true);
                let unpipelined_ms = wire_phase(k, per, Pipeline::Off, false);
                let speedup = unpipelined_ms / pipelined_ms.max(f64::MIN_POSITIVE);
                println!(
                    "    wire: pipelined={pipelined_ms:.1}ms unpipelined={unpipelined_ms:.1}ms \
                     (speedup {speedup:.2}x)"
                );
                row = row
                    .with("pipelined_ms", pipelined_ms)
                    .with("unpipelined_ms", unpipelined_ms)
                    .with("pipeline_speedup", speedup);
            }
            row = row.with("commit", commit_json(&metrics));
            rows.push(row);
        }
    }

    if let Some(path) = json {
        use std::io::Write as _;
        let doc = JsonValue::object()
            .with("bench", "server")
            .with(
                "description",
                "multi-session snapshot-isolation server: deterministic round-robin \
                 conflict + fsync counts, free-running throughput vs serial reference, \
                 and the wire-level pipelining ablation",
            )
            .with("transactions", per)
            .with("results", JsonValue::Array(rows));
        let mut file = std::fs::File::create(&path).expect("create JSON report");
        writeln!(file, "{}", doc.to_pretty()).expect("write JSON report");
        println!("wrote {}", path.display());
    }
}
