//! # amos-db
//!
//! The engine façade: a complete, embeddable active object-relational
//! database reproducing the rule-monitoring architecture of AMOS
//! (Sköld & Risch, ICDE'96).
//!
//! [`Amos`] ties the substrates together — storage, catalog, type
//! system, AMOSQL compiler, and the partial-differencing rule manager —
//! behind a textual interface:
//!
//! ```
//! use amos_db::Amos;
//!
//! let mut db = Amos::new();
//! db.execute(r#"
//!     create type item;
//!     create function quantity(item i) -> integer;
//!     create item instances :pen, :ink;
//!     set quantity(:pen) = 100;
//! "#).unwrap();
//! let rows = db.query("select quantity(:pen);").unwrap();
//! assert_eq!(rows.len(), 1);
//! ```
//!
//! Rule conditions are monitored with the paper's partial differencing
//! by default; the naive §6 baseline is a [`Amos::set_monitor_mode`]
//! call away, which is how the benchmark harness compares the two.

pub mod engine;
pub mod error;
pub mod lint;
pub mod session;
mod shape;

pub use amos_core::{ExecStrategy, MonitorMode, RuleSemantics};
pub use amos_lint::{
    diagnostics_report_json, diagnostics_to_json, Diagnostic, LintCode, LintConfig, Severity, Span,
};
pub use amos_storage::{CommitWaiter, RecoveryInfo, WalConfig, WalMetrics};
pub use amos_types::{Oid, Tuple, Value};
pub use engine::{Amos, EngineOptions, ExecResult, NetworkPrep, ProcCtx, ProcedureFn};
pub use error::DbError;
pub use lint::lint_script;
pub use session::{CommitMetrics, Session, SharedEngine};
