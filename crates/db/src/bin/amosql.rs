//! Interactive AMOSQL shell.
//!
//! ```sh
//! cargo run -p amos-db --bin amosql
//! ```
//!
//! Reads statements (terminated by `;`) from stdin, executes them
//! against an in-memory [`Amos`] database, and prints results. A
//! `print` procedure is pre-registered so rule actions can produce
//! output. `.help` lists shell commands.
//!
//! `amosql lint [--deny-lints] [--format text|json] <file.osql>…`
//! statically analyzes scripts instead of opening the shell: findings
//! print as `file:line:col: severity[code]: message` (or as one JSON
//! array with `--format json`, for CI artifacts), and the exit status
//! is 1 when any deny-level finding is reported (`--deny-lints`
//! escalates every warning).

use std::io::{self, BufRead, Write};

use amos_db::{Amos, ExecResult, LintConfig, Severity, WalConfig};

const BANNER: &str = "\
amos-pdiff interactive shell — AMOSQL subset
(Sköld & Risch, ICDE'96 reproduction). `.help` for shell commands.";

const HELP: &str = "\
Shell commands:
  .help                 this text
  .stats                monitoring statistics for this session
  .mode <inc|naive|hybrid>   switch condition monitoring mode
  .checkpoint           snapshot base relations + truncate the WAL
  .quit                 exit
Flags: --wal-dir <dir> makes commits durable (replays any existing
snapshot + WAL from <dir> on startup).
Subcommands: `amosql lint [--deny-lints] [--format text|json]
<file.osql>...` statically analyzes scripts (safety, stratification,
termination, dead differentials, unsatisfiable conditions, type
errors, empty/subsumed/foldable conditions) without executing them;
--format json emits one machine-readable array for CI artifacts.
Everything else is AMOSQL, e.g.:
  create type item;
  create function quantity(item i) -> integer;
  create rule low() as when for each item i where quantity(i) < 10
      do print(i);
  create item instances :a;
  set quantity(:a) = 100;
  activate low();
  set quantity(:a) = 5;
  explain rule low;
  select i, quantity(i) for each item i;";

fn main() -> io::Result<()> {
    if std::env::args().nth(1).as_deref() == Some("lint") {
        run_lint();
    }
    let mut db = Amos::new();
    db.register_procedure("print", |_ctx, args| {
        let rendered: Vec<String> = args.iter().map(|v| v.to_string()).collect();
        println!("  print: {}", rendered.join(", "));
        Ok(())
    });

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--wal-dir" => {
                let Some(dir) = args.next() else {
                    eprintln!("--wal-dir requires a directory argument");
                    std::process::exit(2);
                };
                match db.attach_wal(&dir, WalConfig::default()) {
                    Ok(info) => {
                        if info.snapshot_loaded || info.batches_replayed > 0 {
                            println!(
                                "recovered from {dir}: snapshot seq {} + {} batch(es) \
                                 ({} record(s)), last seq {}{}",
                                info.snapshot_seq,
                                info.batches_replayed,
                                info.records_replayed,
                                info.last_seq,
                                if info.torn_tail_bytes > 0 {
                                    format!(", {} torn byte(s) truncated", info.torn_tail_bytes)
                                } else {
                                    String::new()
                                }
                            );
                        } else {
                            println!("WAL attached at {dir} (empty — fresh database)");
                        }
                    }
                    Err(e) => {
                        eprintln!("cannot attach WAL at {dir}: {e}");
                        std::process::exit(2);
                    }
                }
            }
            other => {
                eprintln!("unknown flag `{other}` (supported: --wal-dir <dir>)");
                std::process::exit(2);
            }
        }
    }

    println!("{BANNER}");
    let stdin = io::stdin();
    let mut buffer = String::new();
    prompt(&buffer)?;
    for line in stdin.lock().lines() {
        let line = line?;
        let trimmed = line.trim();
        if buffer.is_empty() && trimmed.starts_with('.') {
            match shell_command(&mut db, trimmed) {
                ShellOutcome::Continue => {}
                ShellOutcome::Quit => break,
            }
            prompt(&buffer)?;
            continue;
        }
        buffer.push_str(&line);
        buffer.push('\n');
        // Execute once the buffer holds at least one full statement.
        if buffer.trim_end().ends_with(';') {
            let src = std::mem::take(&mut buffer);
            match db.execute(&src) {
                Ok(results) => {
                    for r in results {
                        render(&r);
                    }
                }
                Err(e) => println!("error: {e}"),
            }
        }
        prompt(&buffer)?;
    }
    Ok(())
}

/// `amosql lint [--deny-lints] [--format text|json] <file.osql>…` —
/// never returns.
fn run_lint() -> ! {
    let mut config = LintConfig::default();
    let mut files: Vec<String> = Vec::new();
    let mut json = false;
    let mut args = std::env::args().skip(2);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny-lints" => {
                config.deny_warnings();
            }
            "--format" => {
                match args.next().as_deref() {
                    Some("text") => json = false,
                    Some("json") => json = true,
                    other => {
                        eprintln!(
                            "--format requires `text` or `json` (got {})",
                            other.map_or("nothing".to_string(), |o| format!("`{o}`"))
                        );
                        std::process::exit(2);
                    }
                };
            }
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag `{flag}` (supported: --deny-lints, --format text|json)");
                std::process::exit(2);
            }
            file => files.push(file.to_string()),
        }
    }
    if files.is_empty() {
        eprintln!("usage: amosql lint [--deny-lints] [--format text|json] <file.osql>...");
        std::process::exit(2);
    }
    let mut any_deny = false;
    let mut report: Vec<(String, Vec<amos_db::Diagnostic>)> = Vec::new();
    for file in &files {
        let src = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{file}: cannot read: {e}");
                std::process::exit(2);
            }
        };
        match amos_db::lint_script(&src, &config) {
            Ok(diags) => {
                for d in &diags {
                    if !json {
                        println!("{}", d.render(file));
                    }
                    any_deny |= d.severity == Severity::Deny;
                }
                report.push((file.clone(), diags));
            }
            Err(e) => {
                eprintln!("{file}: error: {e}");
                std::process::exit(2);
            }
        }
    }
    if json {
        print!("{}", amos_db::diagnostics_report_json(&report));
    } else if report.iter().all(|(_, d)| d.is_empty()) {
        println!("no lint findings in {} file(s)", files.len());
    }
    std::process::exit(if any_deny { 1 } else { 0 });
}

fn prompt(buffer: &str) -> io::Result<()> {
    let p = if buffer.is_empty() {
        "amosql> "
    } else {
        "   ...> "
    };
    print!("{p}");
    io::stdout().flush()
}

enum ShellOutcome {
    Continue,
    Quit,
}

fn shell_command(db: &mut Amos, cmd: &str) -> ShellOutcome {
    match cmd {
        ".quit" | ".exit" => return ShellOutcome::Quit,
        ".help" => println!("{HELP}"),
        ".stats" => {
            let s = db.rules().stats();
            println!(
                "check phases {} | passes {} | differentials {} | candidates {} | \
                 rejected {} | naive recomputations {} | actions {} | failed {}",
                s.check_phases,
                s.passes,
                s.differentials_executed,
                s.tuples_produced,
                s.tuples_rejected,
                s.naive_recomputations,
                s.actions_executed,
                s.actions_failed
            );
            for (id, reason) in db.rules().quarantined() {
                println!("  quarantined: {} — {reason}", db.rules().rule(*id).name);
            }
        }
        ".mode inc" | ".mode incremental" => {
            db.set_monitor_mode(amos_core::MonitorMode::Incremental);
            println!("monitoring: incremental (partial differencing)");
        }
        ".mode naive" => {
            db.set_monitor_mode(amos_core::MonitorMode::Naive);
            println!("monitoring: naive (full recomputation)");
        }
        ".mode hybrid" => {
            db.set_monitor_mode(amos_core::MonitorMode::Hybrid);
            println!("monitoring: hybrid (cost-based)");
        }
        ".checkpoint" => {
            if !db.wal_attached() {
                println!("no WAL attached — start with --wal-dir <dir>");
            } else {
                match db.checkpoint() {
                    Ok(()) => println!("checkpoint written; WAL truncated"),
                    Err(e) => println!("checkpoint failed: {e}"),
                }
            }
        }
        other => println!("unknown shell command `{other}` — try .help"),
    }
    ShellOutcome::Continue
}

fn render(result: &ExecResult) {
    match result {
        ExecResult::Ok => {}
        ExecResult::Rows(rows) => {
            if rows.is_empty() {
                println!("(no rows)");
            }
            for row in rows {
                println!("{row}");
            }
        }
        ExecResult::Committed(summary) => {
            for (rule, n) in &summary.executed {
                println!("  rule {rule} fired for {n} instance(s)");
            }
        }
        ExecResult::Text(t) => print!("{t}"),
    }
}
