//! Standalone AMOSQL transaction server.
//!
//! ```sh
//! cargo run -p amos-server --bin amos-server -- --listen 127.0.0.1:4640
//! ```
//!
//! Optionally `--wal-dir <dir>` for durable commits (replays any
//! existing snapshot + WAL on startup), `--max-sessions <n>` to bound
//! the connection pool, `--script <file.osql>` to load a schema before
//! accepting connections, and the WAL group-commit and statement-pipeline
//! knobs below.

use amos_db::{Amos, SharedEngine, WalConfig};
use amos_server::{serve, ServerConfig};

const HELP: &str = "\
amos-server — multi-session AMOSQL transaction server

USAGE:
    amos-server [FLAGS]

FLAGS:
    --listen ADDR          bind address (default 127.0.0.1:4640)
    --max-sessions N       connection-pool size (default 64)
    --wal-dir DIR          durable commits: replay snapshot + WAL from
                           DIR on startup, log every commit to it
    --script FILE          run an AMOSQL schema script before serving
    --group-commit N       WAL group-commit window: a flush leader
                           coalesces up to N framed commit batches into
                           one write + fsync (default 8; 1 syncs every
                           commit individually)
    --commit-delay-us D    max microseconds a flush leader waits for
                           stragglers before syncing a not-yet-full
                           group (default 100; 0 never waits)
    --no-pipeline          disable statement pipelining (greedy
                           per-connection reads, batched response
                           flushes)
    --help                 print this text
";

fn main() {
    let mut listen = "127.0.0.1:4640".to_string();
    let mut config = ServerConfig::default();
    let mut wal_dir: Option<String> = None;
    let mut wal_config = WalConfig {
        group_commit: 8,
        max_delay_us: 100,
    };
    let mut scripts: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} requires an argument");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--listen" => listen = value("--listen"),
            "--max-sessions" => {
                config.max_sessions = value("--max-sessions").parse().unwrap_or_else(|_| {
                    eprintln!("--max-sessions requires a positive integer");
                    std::process::exit(2);
                })
            }
            "--wal-dir" => wal_dir = Some(value("--wal-dir")),
            "--group-commit" => {
                wal_config.group_commit = value("--group-commit").parse().unwrap_or_else(|_| {
                    eprintln!("--group-commit requires a positive integer");
                    std::process::exit(2);
                });
                if wal_config.group_commit == 0 {
                    eprintln!("--group-commit requires a positive integer");
                    std::process::exit(2);
                }
            }
            "--commit-delay-us" => {
                wal_config.max_delay_us = value("--commit-delay-us").parse().unwrap_or_else(|_| {
                    eprintln!("--commit-delay-us requires a non-negative integer");
                    std::process::exit(2);
                })
            }
            "--no-pipeline" => config.pipeline = false,
            "--script" => scripts.push(value("--script")),
            "--help" | "-h" => {
                print!("{HELP}");
                return;
            }
            other => {
                eprintln!("unknown flag {other} (see --help)");
                std::process::exit(2);
            }
        }
    }

    let mut db = Amos::new();
    if let Some(dir) = wal_dir {
        if let Err(e) = db.attach_wal(&dir, wal_config) {
            eprintln!("cannot attach WAL at {dir}: {e}");
            std::process::exit(2);
        }
    }
    for path in scripts {
        let src = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        });
        if let Err(e) = db.execute(&src) {
            eprintln!("{path}: {e}");
            std::process::exit(2);
        }
    }

    let engine = SharedEngine::new(db);
    match serve(&listen, engine, config) {
        Ok(handle) => {
            println!("amos-server listening on {}", handle.addr());
            // Serve until killed; the handle's Drop would stop the
            // accept loop, so keep it alive while parked.
            loop {
                std::thread::park();
            }
        }
        Err(e) => {
            eprintln!("cannot listen on {listen}: {e}");
            std::process::exit(2);
        }
    }
}
