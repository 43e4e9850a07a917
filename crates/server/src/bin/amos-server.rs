//! Standalone AMOSQL transaction server.
//!
//! ```sh
//! cargo run -p amos-server --bin amos-server -- --listen 127.0.0.1:4640
//! ```
//!
//! Optionally `--wal-dir <dir>` for durable commits (replays any
//! existing snapshot + WAL on startup), `--max-sessions <n>` to bound
//! the connection pool, and `--script <file.osql>` to load a schema
//! before accepting connections. Every commit — a session's `commit;`,
//! a served autocommit statement, or a startup script's — is durable
//! when it is acknowledged; concurrent session commits share fsyncs.

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
    --help                 print this text
";

fn main() {
    let mut listen = "127.0.0.1:4640".to_string();
    let mut config = ServerConfig::default();
    let mut wal_dir: Option<String> = None;
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
        if let Err(e) = db.attach_wal(&dir, WalConfig::default()) {
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
