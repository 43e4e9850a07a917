//! Multi-session AMOSQL transaction server.
//!
//! A thin TCP front end over [`amos_db::SharedEngine`]: one engine, many
//! concurrent client connections, each bound to its own
//! [`amos_db::Session`] (snapshot-isolated transactions, commit-time
//! conflict detection — see `crates/db/src/session.rs`). The server adds
//! no semantics of its own: it parses nothing, schedules nothing, and
//! trusts the session layer for all isolation guarantees. That keeps the
//! concurrency-critical surface in one place, where the stress and
//! isolation proptest suites exercise it directly.
//!
//! # Wire protocol
//!
//! Line-oriented, UTF-8. On connect the server sends a greeting followed
//! by `READY`. Each client line is a complete AMOSQL script (one or more
//! `;`-terminated statements). For every statement one response group is
//! written:
//!
//! * `OK` — DDL / update / activation succeeded.
//! * `ROW <v1>\t<v2>…` per result row, then `END <count>` — query rows.
//! * `COMMITTED rules=<n> failed=<m>` — a commit ran the deferred check
//!   phase; `n` rules executed, `m` reported failures.
//! * `INFO <text>` — `explain` output, one line per `INFO`.
//!
//! A failing statement aborts the rest of the line's script with
//! `ERR <msg>` or — for serialization conflicts the client should simply
//! retry — `ERR retryable <msg>`. After every input line the server
//! writes `READY`. Disconnecting mid-transaction rolls the transaction
//! back (the session's `Drop` unpins its snapshot).
//!
//! # Statement pipelining
//!
//! Clients may stream many lines without waiting for `READY` between
//! them. The server greedily drains every *already-buffered* line after
//! finishing one, executes them strictly in arrival order, and flushes
//! the whole burst of response groups in one write — `N` statements per
//! round trip instead of one, and `N` commits entering the engine
//! back-to-back so the WAL group-commit coordinator can coalesce their
//! fsyncs. Response order is the line order even when a mid-burst
//! statement fails with `ERR`: every line still gets its response group
//! and its `READY`, so the client can pair requests to responses by
//! counting `READY`s. At most [`ServerConfig::max_pipeline`] lines are
//! drained per burst; beyond that the server flushes and returns to the
//! socket, so a client that never reads cannot buffer responses without
//! bound (`max_pipeline: 1` flushes after every line).

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use amos_db::{DbError, ExecResult, SharedEngine};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum concurrently served connections; further accepts block
    /// (in the accept loop, before a session is created) until a slot
    /// frees up. The pool bounds engine-lock contention, not memory.
    pub max_sessions: usize,
    /// Statement pipelining: lines drained per burst — every
    /// already-buffered input line is executed and the burst's responses
    /// flushed in one write — before the server yields back to the
    /// socket (1: flush after every line).
    pub max_pipeline: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_sessions: 64,
            max_pipeline: 128,
        }
    }
}

/// Counting semaphore over `Mutex`+`Condvar` (no external deps).
struct Slots {
    free: Mutex<usize>,
    cv: Condvar,
}

impl Slots {
    fn new(n: usize) -> Arc<Slots> {
        Arc::new(Slots {
            free: Mutex::new(n.max(1)),
            cv: Condvar::new(),
        })
    }

    fn acquire(&self) {
        let mut free = self.free.lock().expect("slots lock");
        while *free == 0 {
            free = self.cv.wait(free).expect("slots lock");
        }
        *free -= 1;
    }

    fn release(&self) {
        *self.free.lock().expect("slots lock") += 1;
        self.cv.notify_one();
    }
}

/// A running server; dropping it (or calling [`stop`](Self::stop))
/// shuts the accept loop down. Connections already being served run to
/// completion on their own threads.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting connections and join the accept thread.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Bind `addr` and serve sessions over `engine` until
/// [`ServerHandle::stop`]. Each connection gets its own thread and its
/// own [`amos_db::Session`]; at most `config.max_sessions` run at once.
pub fn serve(
    addr: impl ToSocketAddrs,
    engine: Arc<SharedEngine>,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let slots = Slots::new(config.max_sessions);
    let accept = std::thread::spawn(move || {
        for stream in listener.incoming() {
            if stop2.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            slots.acquire();
            let engine = Arc::clone(&engine);
            let slots = Arc::clone(&slots);
            let config = config.clone();
            std::thread::spawn(move || {
                let _ = serve_connection(stream, &engine, &config);
                slots.release();
            });
        }
    });
    Ok(ServerHandle {
        addr,
        stop,
        accept: Some(accept),
    })
}

fn serve_connection(
    stream: TcpStream,
    engine: &Arc<SharedEngine>,
    config: &ServerConfig,
) -> std::io::Result<()> {
    let mut session = engine.session();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut w = BufWriter::new(stream);
    writeln!(w, "HELLO amos-pdiff {}", env!("CARGO_PKG_VERSION"))?;
    writeln!(w, "READY")?;
    w.flush()?;
    let mut line = String::new();
    let mut burst = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break; // EOF
        }
        let src = line.trim();
        if !src.is_empty() {
            match session.execute(src) {
                Ok(results) => {
                    for r in results {
                        write_result(&mut w, &r)?;
                    }
                }
                Err(e) => write_error(&mut w, &e)?,
            }
        }
        writeln!(w, "READY")?;
        burst += 1;
        // Pipelining: when the client has already streamed more lines,
        // keep executing without flushing — the whole burst's responses
        // go out in one write. `BufReader::buffer()` only inspects bytes
        // already read from the socket, so this never blocks; a complete
        // buffered line is required, since `read_line` would otherwise
        // block waiting for its terminator.
        let more_buffered = burst < config.max_pipeline && reader.buffer().contains(&b'\n');
        if !more_buffered {
            w.flush()?;
            burst = 0;
        }
    }
    w.flush()?;
    Ok(())
    // `session` drops here: an open transaction is rolled back and its
    // snapshot pin released.
}

fn write_result(w: &mut impl Write, r: &ExecResult) -> std::io::Result<()> {
    match r {
        ExecResult::Ok => writeln!(w, "OK"),
        ExecResult::Rows(rows) => {
            for row in rows {
                let cells: Vec<String> = row.values().iter().map(|v| v.to_string()).collect();
                writeln!(w, "ROW {}", cells.join("\t"))?;
            }
            writeln!(w, "END {}", rows.len())
        }
        ExecResult::Committed(summary) => writeln!(
            w,
            "COMMITTED rules={} failed={}",
            summary.executed.len(),
            summary.failed.len()
        ),
        ExecResult::Text(text) => {
            for l in text.lines() {
                writeln!(w, "INFO {l}")?;
            }
            Ok(())
        }
    }
}

fn write_error(w: &mut impl Write, e: &DbError) -> std::io::Result<()> {
    let msg = e.to_string().replace('\n', " | ");
    if e.is_retryable() {
        writeln!(w, "ERR retryable {msg}")
    } else {
        writeln!(w, "ERR {msg}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_block_and_release() {
        let slots = Slots::new(1);
        slots.acquire();
        let s2 = Arc::clone(&slots);
        let t = std::thread::spawn(move || {
            s2.acquire(); // blocks until main releases
            s2.release();
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        slots.release();
        t.join().unwrap();
    }

    #[test]
    fn error_rendering() {
        let mut buf = Vec::new();
        write_error(
            &mut buf,
            &DbError::TxnConflict {
                relation: "quantity".into(),
            },
        )
        .unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with("ERR retryable "), "{s}");
        assert!(s.contains("quantity"));
    }
}
