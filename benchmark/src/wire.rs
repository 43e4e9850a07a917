//! `wire_oltp`: the served path. An in-process `amos_server::serve` over
//! a `SharedEngine` with a WAL, driven by two closed-loop TCP clients
//! (window 1: a client sends its next line only after `READY`) on
//! disjoint halves of the key space, so no conflict can arise and any
//! `ERR` is a failure. Defaults throughout: `EngineOptions::default()`,
//! `ServerConfig::default()`, and the `amos-server` binary's WAL flush
//! policy (`group_commit 8`, `max_delay_us 100`).

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use amos_db::{Amos, CommitMetrics, ExecResult, Session, SharedEngine, Value, WalConfig};
use amos_server::{serve, ServerConfig};
use amos_storage::{LogOp, WalRecord, WalWriter, WAL_FILE};
use amos_types::Tuple;

use crate::rng::SplitMix64;
use crate::stats::{median, median_f64, sliced_p99, sliced_rate, Span, Trace, NO_PARENT};
use crate::workloads::{us, SETUPS};
use crate::world::{schema, SetupTimes, CONDITION_QUERY};
use crate::{out_dir, peak_rss_mb, write_trace, Outcome, RunConfig};

pub const ITEMS: usize = 1_000;
/// Fixed at 2 (not `nproc`) so that numbers compare across machines.
pub const CLIENTS: usize = 2;
/// Items loaded per AMOSQL transaction during population.
const LOAD_BATCH: usize = 100;
const INITIAL_QUANTITY: i64 = 1_000_000;
const WARMUP_LINES: usize = 200;
/// Timed lines per client and second of `--seconds`.
const LINES_PER_SECOND: usize = 800;

/// The flush policy of the `amos-server` binary.
fn wal_config() -> WalConfig {
    WalConfig {
        group_commit: 8,
        max_delay_us: 100,
    }
}

/// One generated input line: a whole transaction.
struct Line {
    /// With its newline, so that a line goes out in one write.
    text: String,
    /// The item a write line decrements; `None` for a read-only scan.
    key: Option<usize>,
}

/// Nine in ten lines decrement the quantity of one item of the client's
/// half (staying far above the threshold); one in ten evaluates the rule
/// condition over all items, read-only.
fn client_lines(seed: u64, client: usize, n: usize) -> Vec<Line> {
    let mut rng = SplitMix64::fork(seed, 100 + client as u64);
    let half = ITEMS / CLIENTS;
    (0..n)
        .map(|_| {
            if rng.below(10) == 0 {
                Line {
                    text: format!("begin; {CONDITION_QUERY} commit;\n"),
                    key: None,
                }
            } else {
                let k = client * half + rng.below(half as u64) as usize;
                Line {
                    text: format!("begin; set quantity(:i{k}) = quantity(:i{k}) - 1; commit;\n"),
                    key: Some(k),
                }
            }
        })
        .collect()
}

fn fresh_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = out_dir().join(format!(
        "wal_{tag}_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Engine, WAL attach, schema, 1 000 named items with their functions
/// loaded as AMOSQL text, `activate`.
fn build_engine(dir: &Path) -> Result<(Amos, SetupTimes), String> {
    let err = |e: amos_db::DbError| e.to_string();
    let mut db = Amos::new();
    db.register_procedure("order", |_ctx, _args| Ok(()));
    db.attach_wal(dir, wal_config()).map_err(err)?;
    db.execute(&schema(1)).map_err(err)?;
    let mut times = SetupTimes::default();
    let start = Instant::now();
    for batch in 0..ITEMS / LOAD_BATCH {
        let ids = batch * LOAD_BATCH..(batch + 1) * LOAD_BATCH;
        let names = |p: &str| {
            ids.clone()
                .map(|k| format!(":{p}{k}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let mut text = format!(
            "begin; create item instances {}; create supplier instances {};\n",
            names("i"),
            names("s")
        );
        for k in ids {
            text.push_str(&format!(
                "set quantity(:i{k}) = {INITIAL_QUANTITY}; set max_stock(:i{k}) = 20000; \
                 set min_stock(:i{k}) = 100; set consume_freq(:i{k}) = 20; \
                 set supplies(:s{k}) = :i{k}; set delivery_time(:i{k}, :s{k}) = 2;\n"
            ));
        }
        text.push_str("commit;");
        db.execute(&text).map_err(err)?;
    }
    times.populate_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    db.execute("activate monitor_items();").map_err(err)?;
    times.activate_ms = start.elapsed().as_secs_f64() * 1e3;
    Ok((db, times))
}

/// What came back for one line.
#[derive(Debug, Default, Clone, Copy)]
struct Reply {
    committed: bool,
    errors: usize,
    retryable: usize,
    rows: usize,
    bytes_out: usize,
}

/// How a client reaches the engine: over TCP, or through an in-process
/// `Session` (the traced run's second replay of the same lines).
enum Transport {
    Tcp {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
        buf: String,
    },
    InProcess {
        session: Session,
        engine: Arc<SharedEngine>,
    },
}

impl Transport {
    fn connect(addr: SocketAddr) -> std::io::Result<Transport> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let mut t = Transport::Tcp {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            buf: String::new(),
        };
        t.read_reply()?; // greeting … READY
        Ok(t)
    }

    fn root_span(&self) -> &'static str {
        match self {
            Transport::Tcp { .. } => "server.roundtrip",
            Transport::InProcess { .. } => "db.line",
        }
    }

    /// Read response groups up to the `READY` that ends a line's reply.
    fn read_reply(&mut self) -> std::io::Result<Reply> {
        let Transport::Tcp { reader, buf, .. } = self else {
            unreachable!("only the TCP transport reads replies");
        };
        let mut reply = Reply::default();
        loop {
            buf.clear();
            if reader.read_line(buf)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            reply.bytes_out += buf.len();
            if buf.starts_with("READY") {
                return Ok(reply);
            } else if buf.starts_with("ERR retryable") {
                reply.errors += 1;
                reply.retryable += 1;
            } else if buf.starts_with("ERR") {
                reply.errors += 1;
            } else if buf.starts_with("COMMITTED") {
                reply.committed = true;
            } else if buf.starts_with("ROW") {
                reply.rows += 1;
            }
        }
    }

    /// Send one line and wait for its reply. `spans` is the trace and the
    /// line's root span when this replay is traced.
    fn exec(&mut self, line: &str, spans: Option<(&mut Trace, u32)>) -> Reply {
        match self {
            Transport::Tcp { writer, .. } => {
                // First byte of the line written → its `READY` read.
                let sent = writer.write_all(line.as_bytes());
                match sent.and_then(|()| self.read_reply()) {
                    Ok(reply) => reply,
                    Err(_) => Reply {
                        errors: 1,
                        ..Reply::default()
                    },
                }
            }
            Transport::InProcess { session, engine } => in_process(session, engine, line, spans),
        }
    }
}

/// The line through `Session::execute`, one statement per call, a span
/// around each when traced.
fn in_process(
    session: &mut Session,
    engine: &SharedEngine,
    line: &str,
    mut spans: Option<(&mut Trace, u32)>,
) -> Reply {
    let mut reply = Reply::default();
    for stmt in line.split_inclusive(';') {
        let stmt = stmt.trim();
        let name = match stmt.split_whitespace().next() {
            Some("begin;") => "db.begin",
            Some("set") => "db.update",
            Some("select") => "db.select",
            Some("commit;") => "db.commit",
            _ => continue,
        };
        let opened = spans.as_mut().map(|(t, root)| {
            let txn = t.spans[*root as usize].txn;
            t.open(name, *root, txn)
        });
        let result = session.execute(stmt);
        if let (Some((t, _)), Some(id)) = (spans.as_mut(), opened) {
            t.close(id);
            if name == "db.commit" {
                // The engine reports the last pass's duration; lay it out
                // at the start of the commit that ran it.
                let pass = engine.with_read(|e| e.last_pass_metrics().map(|m| m.nanos));
                let (start, end, txn) = {
                    let s = &t.spans[id as usize];
                    (s.start_ns, s.end_ns, s.txn)
                };
                if let (Some(ns), true) = (pass, stmt_wrote(line)) {
                    t.push("core.pass", start, (start + ns).min(end), id, txn);
                }
            }
        }
        match result {
            Ok(results) => {
                for r in results {
                    match r {
                        ExecResult::Committed(_) => reply.committed = true,
                        ExecResult::Rows(rows) => reply.rows += rows.len(),
                        _ => {}
                    }
                }
            }
            Err(e) => {
                reply.errors += 1;
                reply.retryable += e.is_retryable() as usize;
                break;
            }
        }
    }
    reply
}

fn stmt_wrote(line: &str) -> bool {
    line.contains(" set ")
}

/// One timed line of one client.
#[derive(Debug, Clone, Copy)]
struct Sample {
    ns: u64,
    /// When the reply was complete, from the start of the timed lines.
    end_ns: u64,
    /// Sent without a span although the replay is traced: the untraced
    /// reference for `bench.trace_overhead`, one line in five.
    reference: bool,
    write: bool,
    ok: bool,
    bytes_in: usize,
    reply: Reply,
}

/// What one client thread brings back.
#[derive(Default)]
struct ClientLog {
    /// Timed lines, in order.
    timed: Vec<Sample>,
    /// Acknowledged decrements per item, warm-up included.
    acked: BTreeMap<usize, i64>,
    first_line_us: f64,
    attempted: u64,
    failed: u64,
    trace: Option<Trace>,
}

impl ClientLog {
    fn send(
        &mut self,
        t: &mut Transport,
        line: &Line,
        id: u32,
        mut trace: Option<&mut Trace>,
    ) -> Sample {
        let root = trace
            .as_deref_mut()
            .map(|tr| tr.open(t.root_span(), NO_PARENT, id));
        let start = Instant::now();
        let reply = t.exec(&line.text, trace.as_deref_mut().zip(root));
        let ns = start.elapsed().as_nanos() as u64;
        if let (Some(tr), Some(root)) = (trace, root) {
            tr.close(root);
        }
        // A scan must come back empty: nothing is below its threshold.
        let ok = reply.committed && reply.errors == 0 && reply.rows == 0;
        self.attempted += 1;
        self.failed += !ok as u64;
        if let (true, Some(k)) = (ok, line.key) {
            *self.acked.entry(k).or_default() += 1;
        }
        Sample {
            ns,
            end_ns: 0,
            reference: false,
            write: line.key.is_some(),
            ok,
            bytes_in: line.text.len(),
            reply,
        }
    }
}

/// How one served engine is driven.
#[derive(Clone, Copy)]
struct Drive {
    /// Timed lines per client (0: set up and tear down only).
    timed: usize,
    tcp: bool,
    traced: bool,
    /// Re-attach the WAL directory into a fresh engine afterwards and
    /// compare every quantity with the clients' model.
    verify: bool,
}

/// What one set-up, drive and tear-down gives.
struct Driven {
    clients: Vec<ClientLog>,
    setup_s: f64,
    wall_s: f64,
    times: SetupTimes,
    before: CommitMetrics,
    after: CommitMetrics,
    wal_bytes: u64,
    lint_ms: f64,
    recovery_ms: f64,
    problems: Vec<String>,
}

fn serve_and_drive(cfg: &RunConfig, d: Drive) -> Result<Driven, String> {
    let lines: Vec<Vec<Line>> = (0..CLIENTS)
        .map(|c| client_lines(cfg.seed, c, WARMUP_LINES + d.timed))
        .collect();
    let dir = fresh_dir(if d.tcp { "tcp" } else { "inproc" });
    let origin = Instant::now();
    let (db, mut times) = build_engine(&dir)?;
    let engine = SharedEngine::new(db);
    let mut server = match d.tcp {
        true => Some(
            serve("127.0.0.1:0", Arc::clone(&engine), ServerConfig::default())
                .map_err(|e| format!("cannot bind: {e}"))?,
        ),
        false => None,
    };
    let addr = server.as_ref().map(|s| s.addr());
    let wal_len = || std::fs::metadata(dir.join(WAL_FILE)).map_or(0, |m| m.len());

    let (ready, go) = (Barrier::new(CLIENTS + 1), Barrier::new(CLIENTS + 1));
    let mut setup_s = 0.0;
    let mut went = origin;
    let mut before = CommitMetrics::default();
    let mut wal_before = 0;
    let joined: Vec<Result<(ClientLog, Instant), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = lines
            .iter()
            .enumerate()
            .map(|(c, lines)| {
                let (ready, go, engine) = (&ready, &go, &engine);
                scope.spawn(move || {
                    let mut transport = match addr {
                        Some(addr) => Transport::connect(addr).map_err(|e| e.to_string()),
                        None => Ok(Transport::InProcess {
                            session: engine.session(),
                            engine: Arc::clone(engine),
                        }),
                    };
                    let mut log = ClientLog::default();
                    let mut trace = d.traced.then(|| Trace::since(origin));
                    let (warm, timed) = lines.split_at(WARMUP_LINES);
                    if let Ok(t) = &mut transport {
                        for (i, line) in warm.iter().enumerate() {
                            let s = log.send(t, line, 0, None);
                            if i == 0 {
                                log.first_line_us = us(s.ns as f64);
                            }
                        }
                    }
                    // Reach both barriers whatever happened, or the
                    // other threads would wait for ever.
                    ready.wait();
                    go.wait();
                    let mut t = transport?;
                    let started = Instant::now();
                    for (i, line) in timed.iter().enumerate() {
                        let id = (c * d.timed + i) as u32;
                        let reference = d.traced && i % 5 == 3;
                        let spans = trace.as_mut().filter(|_| !reference);
                        let mut s = log.send(&mut t, line, id, spans);
                        s.end_ns = started.elapsed().as_nanos() as u64;
                        s.reference = reference;
                        log.timed.push(s);
                    }
                    let finished = Instant::now();
                    log.trace = trace;
                    Ok((log, finished))
                })
            })
            .collect();
        ready.wait();
        setup_s = origin.elapsed().as_secs_f64();
        before = engine.commit_metrics();
        wal_before = wal_len();
        go.wait();
        went = Instant::now();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect()
    });
    let mut clients = Vec::with_capacity(CLIENTS);
    let mut last = went;
    for j in joined {
        let (log, finished) = j?;
        last = last.max(finished);
        clients.push(log);
    }
    times.first_txn_us = clients[0].first_line_us;
    let after = engine.commit_metrics();
    let wal_bytes = wal_len() - wal_before;

    // Interface variables are not durable, so the oids behind `:iK` are
    // read here, before the engine goes.
    let oids: Vec<Option<Value>> = engine.with_read(|e| {
        (0..ITEMS)
            .map(|k| e.iface_value(&format!("i{k}")).cloned())
            .collect()
    });
    let start = Instant::now();
    if d.traced {
        engine.with_read(|e| std::hint::black_box(e.lint_all()));
    }
    let lint_ms = start.elapsed().as_secs_f64() * 1e3;
    if let Some(server) = &mut server {
        server.stop();
    }
    // Connection threads hold the engine until they see their client's
    // socket closed.
    let deadline = Instant::now() + Duration::from_secs(10);
    while Arc::strong_count(&engine) > 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut problems = Vec::new();
    if Arc::strong_count(&engine) > 1 {
        problems.push("the server did not release the engine within 10 s".to_string());
    }
    drop(engine);

    let mut recovery_ms = 0.0;
    if d.verify {
        let mut acked: BTreeMap<usize, i64> = BTreeMap::new();
        for c in &clients {
            for (k, n) in &c.acked {
                *acked.entry(*k).or_default() += n;
            }
        }
        if cfg.break_model {
            *acked.entry(0).or_default() += 1;
        }
        let (ms, bad) = verify_replay(&dir, &oids, &acked);
        recovery_ms = ms;
        problems.extend(bad);
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Driven {
        clients,
        setup_s,
        wall_s: last.duration_since(went).as_secs_f64(),
        times,
        before,
        after,
        wal_bytes,
        lint_ms,
        recovery_ms,
        problems,
    })
}

/// Every acknowledged commit must survive replay: attach the WAL
/// directory to a fresh engine and compare each item's quantity with
/// what the clients were told. This is a replay check — the process was
/// not killed and the operating system's cache was not discarded, so it
/// does not show that the bytes reached the device.
fn verify_replay(
    dir: &Path,
    oids: &[Option<Value>],
    acked: &BTreeMap<usize, i64>,
) -> (f64, Vec<String>) {
    let mut fresh = Amos::new();
    let start = Instant::now();
    let attached = fresh.attach_wal(dir, wal_config());
    let ms = start.elapsed().as_secs_f64() * 1e3;
    if let Err(e) = attached {
        return (ms, vec![format!("cannot re-attach the WAL: {e}")]);
    }
    let storage = fresh.storage();
    let Ok(quantity) = storage.relation_id("quantity") else {
        return (ms, vec!["no quantity relation after replay".to_string()]);
    };
    let wrong = oids
        .iter()
        .enumerate()
        .filter(|(k, oid)| {
            let want = INITIAL_QUANTITY - acked.get(k).copied().unwrap_or(0);
            let got = oid.as_ref().and_then(|oid| {
                let rows = storage
                    .relation(quantity)
                    .probe(&[0], std::slice::from_ref(oid));
                rows.first().and_then(|t| t.get(1).cloned())
            });
            got != Some(Value::Int(want))
        })
        .count();
    let bad = match wrong {
        0 => Vec::new(),
        n => vec![format!(
            "{n} of {ITEMS} quantities differ from the acknowledged commits after WAL replay"
        )],
    };
    (ms, bad)
}

fn lines_per_client(cfg: &RunConfig) -> usize {
    let n = LINES_PER_SECOND * cfg.seconds as usize;
    if cfg.quick {
        (n / 50).max(10)
    } else {
        n
    }
}

/// The two clients' samples merged in the order they were taken (line
/// `i` of each client, then line `i + 1`): the clients run in lock step
/// to within a few lines, which is all the ten slices of the tail
/// statistic need.
fn interleave(clients: &[ClientLog]) -> Vec<Sample> {
    let longest = clients.iter().map(|c| c.timed.len()).max().unwrap_or(0);
    (0..longest)
        .flat_map(|i| clients.iter().filter_map(move |c| c.timed.get(i).copied()))
        .collect()
}

/// Round-trip times of the write (or scan) lines, reference lines apart.
fn ns_of(samples: &[Sample], write: bool, reference: bool) -> Vec<u64> {
    samples
        .iter()
        .filter(|s| s.write == write && s.reference == reference)
        .map(|s| s.ns)
        .collect()
}

fn tally(out: &mut Outcome, d: &Driven) {
    for c in &d.clients {
        out.attempted += c.attempted;
        out.failed += c.failed;
    }
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let result = if cfg.trace {
        run_traced(cfg, &mut out)
    } else {
        run_untraced(cfg, &mut out)
    };
    if let Err(e) = result {
        out.check(vec![e]);
    }
    out
}

fn run_untraced(cfg: &RunConfig, out: &mut Outcome) -> Result<(), String> {
    let timed = Drive {
        timed: lines_per_client(cfg),
        tcp: true,
        traced: false,
        verify: true,
    };
    let mut setup_s = Vec::with_capacity(SETUPS);
    for _ in 1..SETUPS {
        let d = serve_and_drive(
            cfg,
            Drive {
                timed: 0,
                verify: false,
                ..timed
            },
        )?;
        tally(out, &d);
        out.check(d.problems);
        setup_s.push(d.setup_s);
    }
    let d = serve_and_drive(cfg, timed)?;
    tally(out, &d);
    setup_s.push(d.setup_s);
    let all = interleave(&d.clients);
    let writes = ns_of(&all, true, false);
    // Each client is its own closed loop; the server's rate is their sum.
    let rate: f64 = d
        .clients
        .iter()
        .map(|c| {
            let ends: Vec<u64> = c.timed.iter().map(|s| s.end_ns).collect();
            let ok: Vec<bool> = c.timed.iter().map(|s| s.ok).collect();
            sliced_rate(&ends, &ok)
        })
        .sum();
    out.check(d.problems);

    let m = &mut out.metrics;
    m.set_p50_us("txn_p50_us", &writes);
    m.set("txn_p99_us", us(sliced_p99(&writes)), writes.len());
    m.set("commits_per_s", rate, all.len());
    m.set("setup_s", median_f64(&setup_s), SETUPS);
    m.set("peak_rss_mb", peak_rss_mb(), 1);
    Ok(())
}

/// Durations of the spans called `name`.
fn span_ns(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur)
        .collect()
}

/// Direct `WalWriter` calls with a batch the size a write line produces
/// (the `−`/`+` pair of one `set`), under the server's flush policy: the
/// buffered append and durability wait a session commit makes.
fn wal_direct(trace: &mut Trace, samples: usize) -> Result<(), String> {
    let dir = fresh_dir("direct");
    let (mut writer, _) = WalWriter::open(&dir, wal_config()).map_err(|e| e.to_string())?;
    let record = |op, q: i64| WalRecord {
        rel: "quantity".to_string(),
        op,
        tuple: Tuple::new(vec![Value::Int(7), Value::Int(q)]),
    };
    for i in 0..samples as i64 {
        let batch = [record(LogOp::Delete, i), record(LogOp::Insert, i + 1)];
        let (waited, _) = trace.span("wal.append_sync", NO_PARENT, i as u32, || {
            writer.append_buffered(&batch).wait()
        });
        waited.map_err(|e| e.to_string())?;
    }
    drop(writer);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

fn run_traced(cfg: &RunConfig, out: &mut Outcome) -> Result<(), String> {
    let n = lines_per_client(cfg);
    // Replay 1: over TCP.
    let mut tcp = serve_and_drive(
        cfg,
        Drive {
            timed: n,
            tcp: true,
            traced: true,
            verify: true,
        },
    )?;
    tally(out, &tcp);
    // Replay 2: the same lines through in-process sessions, one statement
    // per call, on an identically built engine.
    let mut inproc = serve_and_drive(
        cfg,
        Drive {
            timed: n,
            tcp: false,
            traced: true,
            verify: false,
        },
    )?;
    tally(out, &inproc);

    let mut trace = Trace::default();
    // Each replay's spans are on that replay's own clock.
    for c in tcp.clients.iter_mut().chain(&mut inproc.clients) {
        if let Some(t) = c.trace.take() {
            trace.absorb(t);
        }
    }
    // Replay 3: the parser alone, over every generated line.
    let mut stmts = 0;
    let mut parsed_lines = 0;
    let mut line_bytes = 0;
    let mut parse_writes = Vec::new();
    for c in 0..CLIENTS {
        let lines = client_lines(cfg.seed, c, WARMUP_LINES + n);
        for (i, line) in lines[WARMUP_LINES..].iter().enumerate() {
            let id = (c * n + i) as u32;
            let (parsed, ns) = trace.span("amosql.parse", NO_PARENT, id, || {
                amos_amosql::parse(&line.text)
            });
            out.attempted += 1;
            match parsed {
                Ok(p) => stmts += p.len(),
                Err(_) => out.failed += 1,
            }
            parsed_lines += 1;
            line_bytes += line.text.len();
            if line.key.is_some() {
                parse_writes.push(ns);
            }
        }
    }
    wal_direct(&mut trace, if cfg.quick { 50 } else { 500 })?;
    let wal = span_ns(&trace.spans, "wal.append_sync");

    let all = interleave(&tcp.clients);
    let writes = ns_of(&all, true, false);
    let scans = ns_of(&all, false, false);
    let lines_in_process = ns_of(&interleave(&inproc.clients), true, false);
    let write_commits = all.iter().filter(|s| s.ok && s.write).count().max(1) as f64;

    // No span nests across the three replays, so the shares come from
    // their medians: what the wire adds to the in-process line, and what
    // the parser, the pass and the durable append take of that line.
    let roundtrip = median(&writes);
    let line = median(&lines_in_process);
    let parse = median(&parse_writes);
    let append = median(&wal);
    let pass = median(&span_ns(&trace.spans, "core.pass"));
    let mut shares: BTreeMap<&'static str, f64> = BTreeMap::new();
    let server_self = (roundtrip - line).max(0.0);
    shares.insert("server", server_self);
    shares.insert("amosql", parse);
    shares.insert("core", pass);
    shares.insert("wal", append);
    shares.insert("db", (line - parse - pass - append).max(0.0));
    let named: f64 = shares.values().sum();
    shares.insert("unattributed", (roundtrip - named).max(0.0));
    let whole = named.max(roundtrip).max(1.0);
    shares.values_mut().for_each(|v| *v /= whole);
    write_trace("wire_oltp", &trace.spans, &shares);
    out.check(tcp.problems);
    out.check(inproc.problems);

    let wal_delta = |f: fn(&amos_db::WalMetrics) -> u64| {
        let of = |m: &CommitMetrics| m.wal.as_ref().map_or(0, f);
        (of(&tcp.after) - of(&tcp.before)) as f64
    };
    let fsyncs = wal_delta(|w| w.fsyncs);
    let lock_commits = (tcp.after.commits - tcp.before.commits).max(1) as f64;
    let lock_ns = (tcp.after.lock_hold_ns - tcp.before.lock_hold_ns) as f64;
    let mean =
        |f: fn(&Sample) -> usize| all.iter().map(f).sum::<usize>() as f64 / all.len().max(1) as f64;
    let m = &mut out.metrics;
    m.set_p50_us("server.roundtrip_p50_us", &writes);
    m.set("server.self_p50_us", us(server_self), writes.len());
    m.set("server.bytes_in_per_txn", mean(|s| s.bytes_in), all.len());
    let bytes_out = mean(|s| s.reply.bytes_out);
    m.set("server.bytes_out_per_txn", bytes_out, all.len());
    let err_lines = all.iter().filter(|s| s.reply.errors > 0).count();
    m.set("server.err_lines", err_lines as f64, all.len());
    let conflicts: usize = all.iter().map(|s| s.reply.retryable).sum();
    m.set("db.conflicts", conflicts as f64, all.len());
    m.set_p50_us("amosql.parse_p50_us", &parse_writes);
    let per_line = |total: usize| total as f64 / parsed_lines.max(1) as f64;
    m.set("amosql.bytes_per_line", per_line(line_bytes), parsed_lines);
    m.set("amosql.stmts_per_line", per_line(stmts), parsed_lines);
    for (metric, span) in [
        ("db.begin_p50_us", "db.begin"),
        ("db.update_p50_us", "db.update"),
        ("db.select_p50_us", "db.select"),
        ("db.commit_p50_us", "db.commit"),
        ("core.pass_p50_us", "core.pass"),
        ("wal.append_sync_p50_us", "wal.append_sync"),
    ] {
        m.set_p50_us(metric, &span_ns(&trace.spans, span));
    }
    let hold_mean = us(lock_ns / lock_commits);
    m.set(
        "db.commit_lock_hold_mean_us",
        hold_mean,
        lock_commits as usize,
    );
    let hold_max = us(tcp.after.lock_hold_ns_max as f64);
    m.set("db.commit_lock_hold_max_us", hold_max, 1);
    m.set_p50_us("db.scan_txn_p50_us", &scans);
    m.set("db.populate_ms", tcp.times.populate_ms, 1);
    m.set("db.activate_ms", tcp.times.activate_ms, 1);
    m.set("db.first_txn_us", tcp.times.first_txn_us, 1);
    let n_writes = write_commits as usize;
    m.set(
        "wal.bytes_per_commit",
        tcp.wal_bytes as f64 / write_commits,
        n_writes,
    );
    m.set("wal.fsyncs_per_commit", fsyncs / write_commits, n_writes);
    let group_mean = wal_delta(|w| w.batches) / fsyncs.max(1.0);
    m.set("wal.group_mean", group_mean, fsyncs as usize);
    m.set("wal.waiters_woken", wal_delta(|w| w.waiters_woken), 1);
    m.set("wal.recovery_ms", tcp.recovery_ms, 1);
    m.set("lint.lint_all_ms", tcp.lint_ms, 1);
    m.set("bench.calib_ms", crate::calibrate_ms(), 1);
    let untraced = median(&ns_of(&all, true, true)).max(1.0);
    m.set("bench.trace_overhead", roundtrip / untraced, writes.len());
    m.set("bench.timed_s", tcp.wall_s, 1);
    let attributed = 1.0 - shares["unattributed"];
    m.set("bench.attributed_share", attributed, writes.len());
    Ok(())
}
