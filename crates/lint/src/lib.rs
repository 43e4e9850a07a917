//! # amos-lint
//!
//! Static analysis of rule conditions and the triggering graph. The
//! paper assumes rule conditions are *safe, stratifiable* ObjectLog and
//! that every generated partial differential is worth executing; this
//! crate checks those assumptions at `activate` time (and from the
//! `amosql lint` CLI) instead of letting them fail at run time.
//!
//! Passes, each with a stable diagnostic code:
//!
//! | code | pass |
//! |------|------|
//! | L001 | safety / range restriction (unbound head vars, vars only in negated literals or comparisons) |
//! | L002 | stratification (recursion through negation, mutual recursion over the whole catalog) |
//! | L003 | triggering-graph termination (action-writes → condition-influents cycles; self-disactivating rules) |
//! | L004 | dead differentials (Δ₋ on append-only relations, statically-false clause bodies) |
//! | L005 | unsatisfiable / subsumed conditions (constant folding, contradictory bounds, duplicate conditions) |
//! | L006 | type mismatch in clause bodies and comparisons (abstract type domain) |
//! | L007 | provably-empty differential (interval/constant fixpoint over the catalog) |
//! | L008 | cross-rule condition subsumption (one condition implies another) |
//! | L009 | constant-foldable subcondition (folded residual shown) |
//!
//! L001–L005 are syntactic, per-clause passes. L006–L009 sit on the
//! [`absint`] abstract-interpretation engine: a product domain of type,
//! constant, and integer-interval abstractions per predicate argument,
//! propagated to fixpoint across the whole catalog in Tarjan SCC order.
//!
//! The crate is a leaf over `amos-objectlog`/`amos-storage`: pure
//! analysis, no engine types. The engine supplies rule facts
//! ([`RuleFacts`]) and an append-only oracle; the network builder in
//! `amos-core` performs the actual L004 pruning. L007 is a finding
//! only: the network builder never runs the abstract interpreter.

pub mod absint;

use std::collections::{HashMap, HashSet};
use std::fmt;

use amos_objectlog::catalog::{Catalog, PredId, PredKind};
use amos_objectlog::clause::{Clause, Literal, Term, Var};
use amos_storage::RelId;
use amos_types::{CmpOp, Value};

/// A source position (1-based), carried from the AMOSQL lexer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

impl Span {
    /// Construct a span.
    pub fn new(line: usize, col: usize) -> Self {
        Span { line, col }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Diagnostic severity. `Allow` suppresses the finding entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Severity {
    /// Suppressed — the pass still runs but findings are dropped.
    Allow,
    /// Reported; does not block `activate`.
    #[default]
    Warn,
    /// Reported; `activate` refuses the rule.
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Allow => "allow",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        })
    }
}

/// Declarative registry of lint codes: one line per code declares the
/// variant, its one-line description (the variant's doc), and its
/// default severity, and the macro derives every table that used to be
/// maintained by hand — `all()`, `parse()`, `index()`, `Display`, and
/// the [`LintConfig`] default-severity array. Adding a code is one line.
macro_rules! lint_codes {
    ($($(#[$meta:meta])* $code:ident => $title:literal, $default:ident;)+) => {
        /// Stable lint pass codes.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub enum LintCode {
            $($(#[$meta])* #[doc = $title] $code,)+
        }

        impl LintCode {
            /// Number of registered codes.
            pub const COUNT: usize = [$(LintCode::$code),+].len();

            /// All codes, in order.
            pub fn all() -> [LintCode; Self::COUNT] {
                [$(LintCode::$code),+]
            }

            /// Parse a code name like `"L001"` (case-insensitive).
            pub fn parse(s: &str) -> Option<LintCode> {
                $(if s.eq_ignore_ascii_case(stringify!($code)) {
                    return Some(LintCode::$code);
                })+
                None
            }

            fn index(self) -> usize {
                self as usize
            }
        }

        impl fmt::Display for LintCode {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(match self { $(LintCode::$code => stringify!($code),)+ })
            }
        }

        impl Default for LintConfig {
            fn default() -> Self {
                LintConfig {
                    levels: [$(Severity::$default),+],
                }
            }
        }
    };
}

lint_codes! {
    L001 => "safety / range restriction", Deny;
    L002 => "stratification", Deny;
    L003 => "triggering-graph termination", Warn;
    L004 => "dead differentials", Warn;
    L005 => "unsatisfiable or subsumed condition", Warn;
    L006 => "type mismatch", Deny;
    L007 => "provably-empty differential", Warn;
    L008 => "cross-rule condition subsumption", Warn;
    L009 => "constant-foldable subcondition", Warn;
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Pass code.
    pub code: LintCode,
    /// Effective severity under the configuration that produced it.
    pub severity: Severity,
    /// Source position of the offending statement, when known.
    pub span: Option<Span>,
    /// The rule (or function) the finding is about, when known.
    pub rule: Option<String>,
    /// Human-readable message.
    pub message: String,
}

impl Diagnostic {
    /// Render as `file:line:col: severity[code]: message`.
    pub fn render(&self, file: &str) -> String {
        let loc = match self.span {
            Some(s) => format!("{file}:{s}"),
            None => file.to_string(),
        };
        let subject = match &self.rule {
            Some(r) => format!(" [{r}]"),
            None => String::new(),
        };
        format!(
            "{loc}: {}[{}]: {}{subject}",
            self.severity, self.code, self.message
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let subject = match &self.rule {
            Some(r) => format!(" [{r}]"),
            None => String::new(),
        };
        match self.span {
            Some(s) => write!(
                f,
                "{s}: {}[{}]: {}{subject}",
                self.severity, self.code, self.message
            ),
            None => write!(
                f,
                "{}[{}]: {}{subject}",
                self.severity, self.code, self.message
            ),
        }
    }
}

/// Escape a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serialize diagnostics as a machine-readable JSON array (for
/// `amosql lint --format json` and the CI lint-gate artifact). Hand
/// rolled — the workspace carries no serialization dependency — and
/// stable: one object per finding with `file`, `code`, `severity`,
/// `line`/`col` (null when unknown), `rule` (null when unknown),
/// `message`, and the human `rendered` form.
pub fn diagnostics_to_json(file: &str, diags: &[Diagnostic]) -> String {
    diagnostics_report_json(&[(file.to_string(), diags.to_vec())])
}

/// Multi-file variant of [`diagnostics_to_json`]: one flat JSON array
/// over every `(file, findings)` pair, in input order.
pub fn diagnostics_report_json(entries: &[(String, Vec<Diagnostic>)]) -> String {
    let mut out = String::from("[");
    let mut i = 0usize;
    for (file, diags) in entries {
        for d in diags {
            if i > 0 {
                out.push(',');
            }
            i += 1;
            let (line, col) = match d.span {
                Some(s) => (s.line.to_string(), s.col.to_string()),
                None => ("null".to_string(), "null".to_string()),
            };
            let rule = match &d.rule {
                Some(r) => format!("\"{}\"", json_escape(r)),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                "\n  {{\"file\": \"{}\", \"code\": \"{}\", \"severity\": \"{}\", \
                 \"line\": {line}, \"col\": {col}, \"rule\": {rule}, \
                 \"message\": \"{}\", \"rendered\": \"{}\"}}",
                json_escape(file),
                d.code,
                d.severity,
                json_escape(&d.message),
                json_escape(&d.render(file)),
            ));
        }
    }
    out.push_str("\n]\n");
    out
}

/// Per-code severity configuration.
///
/// Defaults come from the `lint_codes!` registry: passes whose findings
/// make a rule impossible to monitor correctly (L001/L002/L006) deny,
/// the rest warn (suspicious but executable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintConfig {
    levels: [Severity; LintCode::COUNT],
}

impl LintConfig {
    /// A configuration with every pass set to `severity`.
    pub fn uniform(severity: Severity) -> Self {
        LintConfig {
            levels: [severity; LintCode::COUNT],
        }
    }

    /// The severity of a code.
    pub fn level(&self, code: LintCode) -> Severity {
        self.levels[code.index()]
    }

    /// Override one code's severity.
    pub fn set_level(&mut self, code: LintCode, severity: Severity) -> &mut Self {
        self.levels[code.index()] = severity;
        self
    }

    /// Escalate every `Warn` to `Deny` (the CLI's `--deny-lints`).
    pub fn deny_warnings(&mut self) -> &mut Self {
        for l in &mut self.levels {
            if *l == Severity::Warn {
                *l = Severity::Deny;
            }
        }
        self
    }

    /// Build a diagnostic under this configuration; `None` if the code
    /// is set to `Allow`.
    pub fn diag(
        &self,
        code: LintCode,
        span: Option<Span>,
        rule: Option<&str>,
        message: String,
    ) -> Option<Diagnostic> {
        let severity = self.level(code);
        if severity == Severity::Allow {
            return None;
        }
        Some(Diagnostic {
            code,
            severity,
            span,
            rule: rule.map(str::to_string),
            message,
        })
    }
}

/// Whether any finding is deny-level.
pub fn has_deny(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Deny)
}

// ---------------------------------------------------------------------
// L001 — safety / range restriction
// ---------------------------------------------------------------------

/// Check range restriction of one clause, reporting **every** offending
/// variable (unlike [`Clause::unsafe_var`], which stops at the first).
/// `name_of` maps clause-local variables back to source names for the
/// message (fall back to the `_Gn` rendering).
pub fn check_safety(
    config: &LintConfig,
    clause: &Clause,
    name_of: &dyn Fn(Var) -> String,
    span: Option<Span>,
    rule: Option<&str>,
) -> Vec<Diagnostic> {
    let mut bindable: HashSet<Var> = HashSet::new();
    for lit in &clause.body {
        match lit {
            Literal::Pred { negated: false, .. } | Literal::Delta { .. } => {
                bindable.extend(lit.vars());
            }
            Literal::Arith { result, .. } => bindable.extend(result.as_var()),
            Literal::Unify { lhs, rhs } => {
                bindable.extend(lhs.as_var());
                bindable.extend(rhs.as_var());
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    let mut reported: HashSet<Var> = HashSet::new();
    let report = |out: &mut Vec<Diagnostic>, reported: &mut HashSet<Var>, v: Var, why: &str| {
        if reported.insert(v) {
            if let Some(d) = config.diag(
                LintCode::L001,
                span,
                rule,
                format!("unsafe variable {}: {why}", name_of(v)),
            ) {
                out.push(d);
            }
        }
    };
    for v in clause.head_vars() {
        if !bindable.contains(&v) {
            report(
                &mut out,
                &mut reported,
                v,
                "head variable is not bound by any positive literal",
            );
        }
    }
    for lit in &clause.body {
        match lit {
            Literal::Pred { negated: true, .. } => {
                for v in lit.vars() {
                    if !bindable.contains(&v) {
                        report(
                            &mut out,
                            &mut reported,
                            v,
                            "appears only in a negated literal",
                        );
                    }
                }
            }
            Literal::Cmp { lhs, rhs, .. } => {
                for v in [lhs, rhs].into_iter().filter_map(Term::as_var) {
                    if !bindable.contains(&v) {
                        report(&mut out, &mut reported, v, "appears only in a comparison");
                    }
                }
            }
            Literal::Arith { lhs, rhs, .. } => {
                for v in [lhs, rhs].into_iter().filter_map(Term::as_var) {
                    if !bindable.contains(&v) {
                        report(
                            &mut out,
                            &mut reported,
                            v,
                            "arithmetic operand is never bound",
                        );
                    }
                }
            }
            _ => {}
        }
    }
    out
}

// ---------------------------------------------------------------------
// L002 — stratification
// ---------------------------------------------------------------------

/// Full-catalog stratification check: Tarjan SCC over the derived-
/// predicate dependency graph with negation-labelled edges. A cycle
/// through a negated edge is non-stratifiable; a multi-predicate cycle
/// without negation is mutual recursion (unsupported by the §5 level
/// order); a positive self-loop is linear recursion and allowed.
///
/// `roots` restricts the check to predicates reachable from the given
/// set (used at `activate` to lint one rule's condition); `None` checks
/// the whole catalog.
pub fn check_stratification(
    config: &LintConfig,
    catalog: &Catalog,
    roots: Option<&[PredId]>,
    spans: &dyn Fn(PredId) -> Option<Span>,
) -> Vec<Diagnostic> {
    let in_scope: Option<HashSet<PredId>> = roots.map(|rs| {
        let mut seen = HashSet::new();
        let mut stack: Vec<PredId> = rs.to_vec();
        while let Some(p) = stack.pop() {
            if seen.insert(p) {
                stack.extend(catalog.direct_influents(p));
            }
        }
        seen
    });
    let mut nodes: Vec<PredId> = Vec::new();
    let mut edges: HashMap<PredId, Vec<(PredId, bool)>> = HashMap::new();
    for def in catalog.iter() {
        if let Some(scope) = &in_scope {
            if !scope.contains(&def.id) {
                continue;
            }
        }
        let PredKind::Derived(clauses) = &def.kind else {
            continue;
        };
        nodes.push(def.id);
        let outs = edges.entry(def.id).or_default();
        for c in clauses {
            for lit in &c.body {
                if let Literal::Pred { pred, negated, .. } = lit {
                    if matches!(catalog.def(*pred).kind, PredKind::Derived(_)) {
                        outs.push((*pred, *negated));
                    }
                }
            }
        }
    }
    let mut out = Vec::new();
    for scc in tarjan_sccs(&nodes, &|p| {
        edges
            .get(&p)
            .map(|es| es.iter().map(|(q, _)| *q).collect())
            .unwrap_or_default()
    }) {
        let members: HashSet<PredId> = scc.iter().copied().collect();
        let self_loop = scc.len() == 1 && edges[&scc[0]].iter().any(|(q, _)| *q == scc[0]);
        if scc.len() == 1 && !self_loop {
            continue;
        }
        let negated_edge = scc.iter().find_map(|p| {
            edges[p]
                .iter()
                .find(|(q, neg)| *neg && members.contains(q))
                .map(|(q, _)| (*p, *q))
        });
        let cycle = scc
            .iter()
            .map(|p| catalog.name(*p))
            .collect::<Vec<_>>()
            .join(" → ");
        let anchor = scc.iter().find_map(|p| spans(*p));
        let rule = catalog.name(scc[0]).to_string();
        let diag = if let Some((p, q)) = negated_edge {
            config.diag(
                LintCode::L002,
                anchor,
                Some(&rule),
                format!(
                    "not stratifiable: {} depends negatively on {} inside the cycle {cycle}",
                    catalog.name(p),
                    catalog.name(q)
                ),
            )
        } else if scc.len() > 1 {
            config.diag(
                LintCode::L002,
                anchor,
                Some(&rule),
                format!("mutual recursion is unsupported: cycle {cycle}"),
            )
        } else {
            // positive self-loop — linear recursion, handled by the
            // per-node fixpoint.
            None
        };
        out.extend(diag);
    }
    out
}

/// Iterative Tarjan strongly-connected components.
fn tarjan_sccs(nodes: &[PredId], succs: &dyn Fn(PredId) -> Vec<PredId>) -> Vec<Vec<PredId>> {
    #[derive(Default)]
    struct State {
        index: HashMap<PredId, usize>,
        lowlink: HashMap<PredId, usize>,
        on_stack: HashSet<PredId>,
        stack: Vec<PredId>,
        next: usize,
        sccs: Vec<Vec<PredId>>,
    }
    let mut st = State::default();
    for &root in nodes {
        if st.index.contains_key(&root) {
            continue;
        }
        // Explicit DFS frames: (node, successor list, next successor).
        let mut frames: Vec<(PredId, Vec<PredId>, usize)> = Vec::new();
        st.index.insert(root, st.next);
        st.lowlink.insert(root, st.next);
        st.next += 1;
        st.stack.push(root);
        st.on_stack.insert(root);
        frames.push((root, succs(root), 0));
        while let Some(frame) = frames.last_mut() {
            let (v, ss, i) = (frame.0, frame.1.clone(), frame.2);
            if i < ss.len() {
                frame.2 += 1;
                let w = ss[i];
                if !st.index.contains_key(&w) {
                    st.index.insert(w, st.next);
                    st.lowlink.insert(w, st.next);
                    st.next += 1;
                    st.stack.push(w);
                    st.on_stack.insert(w);
                    frames.push((w, succs(w), 0));
                } else if st.on_stack.contains(&w) {
                    let wl = st.index[&w];
                    let vl = st.lowlink.get_mut(&v).unwrap();
                    *vl = (*vl).min(wl);
                }
            } else {
                frames.pop();
                if let Some(parent) = frames.last() {
                    let vl = st.lowlink[&v];
                    let pl = st.lowlink.get_mut(&parent.0).unwrap();
                    *pl = (*pl).min(vl);
                }
                if st.lowlink[&v] == st.index[&v] {
                    let mut scc = Vec::new();
                    while let Some(w) = st.stack.pop() {
                        st.on_stack.remove(&w);
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    scc.reverse();
                    st.sccs.push(scc);
                }
            }
        }
    }
    st.sccs
}

// ---------------------------------------------------------------------
// L003 — triggering-graph termination
// ---------------------------------------------------------------------

/// One write a rule action can perform on a stored predicate.
/// `set f(k) = v` both deletes and inserts; `add` only inserts;
/// `remove` only deletes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleWrite {
    /// The stored predicate written.
    pub pred: PredId,
    /// Whether the write can insert tuples.
    pub inserts: bool,
    /// Whether the write can delete tuples.
    pub deletes: bool,
}

/// Facts about one activated (or defined) rule, supplied by the engine.
#[derive(Debug, Clone)]
pub struct RuleFacts {
    /// Rule name.
    pub name: String,
    /// Source position of the `create rule`, when known.
    pub span: Option<Span>,
    /// Transitive stored influents of the rule's condition.
    pub influents: Vec<PredId>,
    /// Stored predicates the rule's action writes.
    pub writes: Vec<RuleWrite>,
}

/// Triggering-graph analysis (§2 of Flesca & Greco's termination work):
/// edge `r → s` when `r`'s action writes a stored influent of `s`'s
/// condition; the edge is *growing* when the write can insert. A cycle
/// with a growing edge can re-trigger forever — Strict semantics only
/// cancels net-zero changes, it cannot bound a monotonically growing
/// relation — so it is reported. Delete-only cycles are bounded by the
/// relation size and exempt. A rule that deletes from its own influents
/// is separately flagged as self-disactivating.
pub fn check_triggering(
    config: &LintConfig,
    catalog: &Catalog,
    rules: &[RuleFacts],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // Self-disactivation: the action can remove the very tuples that
    // made the condition true, mid-check-phase.
    for r in rules {
        for w in &r.writes {
            if w.deletes && r.influents.contains(&w.pred) {
                out.extend(config.diag(
                    LintCode::L003,
                    r.span,
                    Some(&r.name),
                    format!(
                        "self-disactivating: action deletes from own influent {}",
                        catalog.name(w.pred)
                    ),
                ));
            }
        }
    }
    // Cycle detection over the rule graph (indices as pseudo-PredIds).
    let nodes: Vec<PredId> = (0..rules.len()).map(|i| PredId(i as u32)).collect();
    let mut edges: Vec<Vec<(usize, bool)>> = vec![Vec::new(); rules.len()];
    for (i, r) in rules.iter().enumerate() {
        for (j, s) in rules.iter().enumerate() {
            let growing = r
                .writes
                .iter()
                .any(|w| w.inserts && s.influents.contains(&w.pred));
            let any = growing
                || r.writes
                    .iter()
                    .any(|w| w.deletes && s.influents.contains(&w.pred));
            if any {
                edges[i].push((j, growing));
            }
        }
    }
    for scc in tarjan_sccs(&nodes, &|p| {
        edges[p.0 as usize]
            .iter()
            .map(|(j, _)| PredId(*j as u32))
            .collect()
    }) {
        let members: HashSet<usize> = scc.iter().map(|p| p.0 as usize).collect();
        let self_loop = scc.len() == 1
            && edges[scc[0].0 as usize]
                .iter()
                .any(|(j, _)| *j == scc[0].0 as usize);
        if scc.len() == 1 && !self_loop {
            continue;
        }
        let growing = scc.iter().any(|p| {
            edges[p.0 as usize]
                .iter()
                .any(|(j, g)| *g && members.contains(j))
        });
        if !growing {
            continue; // delete-only cycle: bounded, terminates.
        }
        let cycle = scc
            .iter()
            .map(|p| rules[p.0 as usize].name.as_str())
            .collect::<Vec<_>>()
            .join(" → ");
        let first = &rules[scc[0].0 as usize];
        out.extend(config.diag(
            LintCode::L003,
            first.span,
            Some(&first.name),
            format!(
                "triggering cycle {cycle} contains growing writes; \
                 Strict semantics cannot guarantee termination"
            ),
        ));
    }
    out
}

// ---------------------------------------------------------------------
// L004 — dead differentials
// ---------------------------------------------------------------------

/// Report differentials that are provably dead before they are ever
/// generated: `Δ₋X` when `X` is backed by an append-only relation (its
/// Δ-set's minus side is always empty), and any differential of a
/// statically-false clause. The network builder in `amos-core` applies
/// the matching pruning; this pass explains *why* in diagnostics.
pub fn check_dead_differentials(
    config: &LintConfig,
    catalog: &Catalog,
    conditions: &[(String, PredId)],
    is_append_only: &dyn Fn(RelId) -> bool,
    spans: &dyn Fn(&str) -> Option<Span>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (rule, cond) in conditions {
        let span = spans(rule);
        // Walk every derived predicate reachable from the condition.
        let mut seen = HashSet::new();
        let mut stack = vec![*cond];
        while let Some(p) = stack.pop() {
            if !seen.insert(p) {
                continue;
            }
            let Some(clauses) = catalog.def(p).clauses() else {
                continue;
            };
            for (ci, c) in clauses.iter().enumerate() {
                if clause_statically_false(c) {
                    out.extend(config.diag(
                        LintCode::L004,
                        span,
                        Some(rule),
                        format!(
                            "clause {ci} of {} is statically false; its differentials are dead",
                            catalog.name(p)
                        ),
                    ));
                }
                let mut flagged: HashSet<PredId> = HashSet::new();
                for lit in &c.body {
                    let Literal::Pred { pred, .. } = lit else {
                        continue;
                    };
                    stack.push(*pred);
                    if let PredKind::Stored { rel, .. } = catalog.def(*pred).kind {
                        if is_append_only(rel) && flagged.insert(*pred) {
                            out.extend(config.diag(
                                LintCode::L004,
                                span,
                                Some(rule),
                                format!(
                                    "Δ{}/Δ₋{} is dead: {} is append-only, so its \
                                     deletion Δ-set is always empty (differential pruned)",
                                    catalog.name(p),
                                    catalog.name(*pred),
                                    catalog.name(*pred)
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }
    out
}

/// Whether a clause body contains a built-in that can never succeed
/// (constant comparison folding to false, unification of unequal
/// constants).
pub fn clause_statically_false(c: &Clause) -> bool {
    c.body.iter().any(|lit| match lit {
        Literal::Cmp { op, lhs, rhs } => match (lhs, rhs) {
            (Term::Const(a), Term::Const(b)) => !op.apply(a, b).unwrap_or(true),
            _ => false,
        },
        Literal::Unify {
            lhs: Term::Const(a),
            rhs: Term::Const(b),
        } => a != b,
        _ => false,
    })
}

// ---------------------------------------------------------------------
// L005 — unsatisfiable / subsumed conditions
// ---------------------------------------------------------------------

/// Condition-satisfiability analysis for the given rule conditions.
///
/// Per clause: constant-fold comparisons (always-false ⇒ unsatisfiable,
/// always-true ⇒ redundant), then unify the result variables of
/// syntactically identical positive calls (`quantity(i) < 3 and
/// quantity(i) > 9` compiles to two literals with distinct result vars)
/// and run interval analysis over integer bounds to detect
/// contradictions. Across rules: flag duplicate conditions.
pub fn check_conditions(
    config: &LintConfig,
    catalog: &Catalog,
    rules: &[(String, PredId)],
    spans: &dyn Fn(&str) -> Option<Span>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut fingerprints: Vec<(String, String)> = Vec::new();
    for (rule, cond) in rules {
        let span = spans(rule);
        let Some(clauses) = catalog.def(*cond).clauses() else {
            continue;
        };
        for (ci, c) in clauses.iter().enumerate() {
            for lit in &c.body {
                let Literal::Cmp { op, lhs, rhs } = lit else {
                    continue;
                };
                if let (Term::Const(a), Term::Const(b)) = (lhs, rhs) {
                    match op.apply(a, b) {
                        Ok(false) => out.extend(config.diag(
                            LintCode::L005,
                            span,
                            Some(rule),
                            format!(
                                "clause {ci}: comparison {a} {op} {b} is always false — \
                                 the condition can never be satisfied"
                            ),
                        )),
                        Ok(true) => out.extend(config.diag(
                            LintCode::L005,
                            span,
                            Some(rule),
                            format!(
                                "clause {ci}: comparison {a} {op} {b} is always true (redundant)"
                            ),
                        )),
                        Err(_) => {}
                    }
                }
            }
            if let Some((name, lo, hi)) = contradictory_bounds(c) {
                out.extend(config.diag(
                    LintCode::L005,
                    span,
                    Some(rule),
                    format!(
                        "clause {ci}: contradictory bounds on {name} \
                         (requires ≥ {lo} and ≤ {hi}) — never satisfiable"
                    ),
                ));
            }
        }
        // Duplicate detection: normalized structural fingerprint of the
        // whole condition. Clauses compiled by the same path number
        // variables deterministically, so Debug equality is sound.
        let fp = format!("{clauses:?}");
        if let Some((prev, _)) = fingerprints.iter().find(|(_, f)| *f == fp) {
            out.extend(config.diag(
                LintCode::L005,
                span,
                Some(rule),
                format!("condition duplicates rule {prev}"),
            ));
        } else {
            fingerprints.push((rule.clone(), fp));
        }
    }
    out
}

/// Find a variable whose integer bounds are contradictory, after
/// unifying result variables of syntactically identical positive calls.
/// Returns `(rendered var, lower, upper)` with `lower > upper`.
fn contradictory_bounds(c: &Clause) -> Option<(String, i64, i64)> {
    // Union-find over clause variables.
    let n = c.n_vars as usize;
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], i: usize) -> usize {
        let mut root = i;
        while parent[root] != root {
            root = parent[root];
        }
        let mut cur = i;
        while parent[cur] != root {
            let next = parent[cur];
            parent[cur] = root;
            cur = next;
        }
        root
    }
    let union = |parent: &mut Vec<usize>, a: usize, b: usize| {
        let (ra, rb) = (find(parent, a), find(parent, b));
        if ra != rb {
            parent[ra] = rb;
        }
    };
    // Identical positive calls bind equal results: key on the predicate
    // plus every argument except the last (the function-result column).
    let mut groups: HashMap<String, usize> = HashMap::new();
    for lit in &c.body {
        match lit {
            Literal::Pred {
                pred,
                args,
                negated: false,
                ..
            } if args.len() >= 2 => {
                if let Some(res) = args.last().and_then(Term::as_var) {
                    let key = format!("{pred:?}{:?}", &args[..args.len() - 1]);
                    match groups.get(&key) {
                        Some(&prev) => union(&mut parent, prev, res.0 as usize),
                        None => {
                            groups.insert(key, res.0 as usize);
                        }
                    }
                }
            }
            Literal::Unify {
                lhs: Term::Var(a),
                rhs: Term::Var(b),
            } => union(&mut parent, a.0 as usize, b.0 as usize),
            _ => {}
        }
    }
    // Interval per equivalence class.
    let mut lo: HashMap<usize, i64> = HashMap::new();
    let mut hi: HashMap<usize, i64> = HashMap::new();
    let mut names: HashMap<usize, Var> = HashMap::new();
    let constrain = |parent: &mut Vec<usize>,
                     lo: &mut HashMap<usize, i64>,
                     hi: &mut HashMap<usize, i64>,
                     names: &mut HashMap<usize, Var>,
                     v: Var,
                     op: CmpOp,
                     k: i64| {
        let root = find(parent, v.0 as usize);
        names.entry(root).or_insert(v);
        let (l, h) = (
            lo.entry(root).or_insert(i64::MIN),
            hi.entry(root).or_insert(i64::MAX),
        );
        match op {
            CmpOp::Eq => {
                *l = (*l).max(k);
                *h = (*h).min(k);
            }
            CmpOp::Lt => *h = (*h).min(k.saturating_sub(1)),
            CmpOp::Le => *h = (*h).min(k),
            CmpOp::Gt => *l = (*l).max(k.saturating_add(1)),
            CmpOp::Ge => *l = (*l).max(k),
            CmpOp::Ne => {}
        }
    };
    for lit in &c.body {
        let Literal::Cmp { op, lhs, rhs } = lit else {
            continue;
        };
        match (lhs, rhs) {
            (Term::Var(v), Term::Const(Value::Int(k))) => {
                constrain(&mut parent, &mut lo, &mut hi, &mut names, *v, *op, *k)
            }
            (Term::Const(Value::Int(k)), Term::Var(v)) => constrain(
                &mut parent,
                &mut lo,
                &mut hi,
                &mut names,
                *v,
                op.flipped(),
                *k,
            ),
            _ => {}
        }
    }
    // Also fold `v = const` unifications into the interval.
    for lit in &c.body {
        if let Literal::Unify { lhs, rhs } = lit {
            let pair = match (lhs, rhs) {
                (Term::Var(v), Term::Const(Value::Int(k)))
                | (Term::Const(Value::Int(k)), Term::Var(v)) => Some((*v, *k)),
                _ => None,
            };
            if let Some((v, k)) = pair {
                constrain(&mut parent, &mut lo, &mut hi, &mut names, v, CmpOp::Eq, k);
            }
        }
    }
    for (root, l) in &lo {
        let h = hi.get(root).copied().unwrap_or(i64::MAX);
        if *l > h {
            return Some((names[root].to_string(), *l, h));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use amos_objectlog::clause::ClauseBuilder;
    use amos_types::TypeId;

    fn cat() -> Catalog {
        Catalog::new()
    }

    fn sig(n: usize) -> Vec<TypeId> {
        vec![TypeId(0); n]
    }

    fn g(v: Var) -> String {
        v.to_string()
    }

    #[test]
    fn l001_reports_every_unsafe_var() {
        let config = LintConfig::default();
        let c = ClauseBuilder::new(3)
            .head([Term::var(0), Term::var(1)])
            .pred(PredId(0), [Term::var(0)])
            .cmp(Term::var(2), CmpOp::Lt, Term::val(3))
            .build();
        let diags = check_safety(&config, &c, &g, Some(Span::new(4, 1)), Some("r"));
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.code == LintCode::L001));
        assert!(diags.iter().all(|d| d.severity == Severity::Deny));
        assert!(diags[0].message.contains("_G1"));
        assert!(diags[1].message.contains("_G2"));
        assert_eq!(diags[0].span, Some(Span::new(4, 1)));
    }

    #[test]
    fn l001_safe_clause_is_clean() {
        let config = LintConfig::default();
        let c = ClauseBuilder::new(2)
            .head([Term::var(0)])
            .pred(PredId(0), [Term::var(0), Term::var(1)])
            .cmp(Term::var(1), CmpOp::Lt, Term::val(3))
            .build();
        assert!(check_safety(&config, &c, &g, None, None).is_empty());
    }

    #[test]
    fn l002_detects_mutual_recursion_through_negation() {
        let config = LintConfig::default();
        let mut cat = cat();
        let a = cat.define_derived("a", sig(1), Vec::new()).unwrap();
        let b = cat.define_derived("b", sig(1), Vec::new()).unwrap();
        let base = cat.define_stored("base", sig(1), RelId(0), 1).unwrap();
        // a(X) ← base(X) ∧ ¬b(X);  b(X) ← a(X).
        cat.replace_clauses(
            a,
            vec![ClauseBuilder::new(1)
                .head([Term::var(0)])
                .pred(base, [Term::var(0)])
                .not_pred(b, [Term::var(0)])
                .build()],
        )
        .unwrap();
        cat.replace_clauses(
            b,
            vec![ClauseBuilder::new(1)
                .head([Term::var(0)])
                .pred(a, [Term::var(0)])
                .build()],
        )
        .unwrap();
        let diags = check_stratification(&config, &cat, None, &|_| None);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, LintCode::L002);
        assert!(
            diags[0].message.contains("not stratifiable"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn l002_allows_linear_self_recursion_and_scoping() {
        let config = LintConfig::default();
        let mut cat = cat();
        let base = cat.define_stored("base", sig(2), RelId(0), 1).unwrap();
        let tc = cat.define_derived("tc", sig(2), Vec::new()).unwrap();
        cat.replace_clauses(
            tc,
            vec![
                ClauseBuilder::new(2)
                    .head([Term::var(0), Term::var(1)])
                    .pred(base, [Term::var(0), Term::var(1)])
                    .build(),
                ClauseBuilder::new(3)
                    .head([Term::var(0), Term::var(1)])
                    .pred(base, [Term::var(0), Term::var(2)])
                    .pred(tc, [Term::var(2), Term::var(1)])
                    .build(),
            ],
        )
        .unwrap();
        assert!(check_stratification(&config, &cat, None, &|_| None).is_empty());
        // Mutual positive recursion elsewhere is flagged…
        let x = cat.define_derived("x", sig(1), Vec::new()).unwrap();
        let y = cat.define_derived("y", sig(1), Vec::new()).unwrap();
        cat.replace_clauses(
            x,
            vec![ClauseBuilder::new(1)
                .head([Term::var(0)])
                .pred(y, [Term::var(0)])
                .build()],
        )
        .unwrap();
        cat.replace_clauses(
            y,
            vec![ClauseBuilder::new(1)
                .head([Term::var(0)])
                .pred(x, [Term::var(0)])
                .build()],
        )
        .unwrap();
        let diags = check_stratification(&config, &cat, None, &|_| None);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("mutual recursion"));
        // …but a scope rooted at `tc` does not reach it.
        assert!(check_stratification(&config, &cat, Some(&[tc]), &|_| None).is_empty());
    }

    #[test]
    fn l003_growing_cycle_and_self_disactivation() {
        let config = LintConfig::default();
        let mut cat = cat();
        let q = cat.define_stored("quantity", sig(2), RelId(0), 1).unwrap();
        let p = cat.define_stored("price", sig(2), RelId(1), 1).unwrap();
        let rules = vec![
            RuleFacts {
                name: "r_a".into(),
                span: Some(Span::new(1, 1)),
                influents: vec![q],
                writes: vec![RuleWrite {
                    pred: p,
                    inserts: true,
                    deletes: true,
                }],
            },
            RuleFacts {
                name: "r_b".into(),
                span: Some(Span::new(2, 1)),
                influents: vec![p],
                writes: vec![RuleWrite {
                    pred: q,
                    inserts: true,
                    deletes: true,
                }],
            },
        ];
        let diags = check_triggering(&config, &cat, &rules);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("triggering cycle"));
        // Self-disactivating rule: deletes from its own influent.
        let rules = vec![RuleFacts {
            name: "self".into(),
            span: None,
            influents: vec![q],
            writes: vec![RuleWrite {
                pred: q,
                inserts: false,
                deletes: true,
            }],
        }];
        let diags = check_triggering(&config, &cat, &rules);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("self-disactivating"));
        // Independent rules: no findings.
        let rules = vec![RuleFacts {
            name: "indep".into(),
            span: None,
            influents: vec![q],
            writes: vec![RuleWrite {
                pred: p,
                inserts: true,
                deletes: false,
            }],
        }];
        assert!(check_triggering(&config, &cat, &rules).is_empty());
    }

    #[test]
    fn l004_append_only_minus_is_dead() {
        let config = LintConfig::default();
        let mut cat = cat();
        let ev = cat.define_stored("events", sig(2), RelId(0), 1).unwrap();
        let cnd = cat
            .define_derived(
                "cnd_r",
                sig(1),
                vec![ClauseBuilder::new(2)
                    .head([Term::var(0)])
                    .pred(ev, [Term::var(0), Term::var(1)])
                    .cmp(Term::var(1), CmpOp::Gt, Term::val(10))
                    .build()],
            )
            .unwrap();
        let conds = vec![("r".to_string(), cnd)];
        let diags = check_dead_differentials(&config, &cat, &conds, &|r| r == RelId(0), &|_| None);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, LintCode::L004);
        assert!(diags[0].message.contains("append-only"));
        // Not append-only → clean.
        assert!(check_dead_differentials(&config, &cat, &conds, &|_| false, &|_| None).is_empty());
    }

    #[test]
    fn l005_contradiction_constant_fold_and_duplicates() {
        let config = LintConfig::default();
        let mut cat = cat();
        let q = cat.define_stored("quantity", sig(2), RelId(0), 1).unwrap();
        // quantity(I, G1) ∧ G1 < 3 ∧ quantity(I, G2) ∧ G2 > 9
        let contradictory = ClauseBuilder::new(3)
            .head([Term::var(0)])
            .pred(q, [Term::var(0), Term::var(1)])
            .cmp(Term::var(1), CmpOp::Lt, Term::val(3))
            .pred(q, [Term::var(0), Term::var(2)])
            .cmp(Term::var(2), CmpOp::Gt, Term::val(9))
            .build();
        let c1 = cat
            .define_derived("cnd_c", sig(1), vec![contradictory])
            .unwrap();
        // constant-false comparison
        let false_cmp = ClauseBuilder::new(2)
            .head([Term::var(0)])
            .pred(q, [Term::var(0), Term::var(1)])
            .cmp(Term::val(1), CmpOp::Gt, Term::val(2))
            .build();
        let c2 = cat
            .define_derived("cnd_f", sig(1), vec![false_cmp])
            .unwrap();
        assert!(clause_statically_false(&cat.def(c2).clauses().unwrap()[0]));
        // duplicates
        let mk = || {
            ClauseBuilder::new(2)
                .head([Term::var(0)])
                .pred(q, [Term::var(0), Term::var(1)])
                .cmp(Term::var(1), CmpOp::Lt, Term::val(5))
                .build()
        };
        let d1 = cat.define_derived("cnd_d1", sig(1), vec![mk()]).unwrap();
        let d2 = cat.define_derived("cnd_d2", sig(1), vec![mk()]).unwrap();
        let rules = vec![
            ("c".to_string(), c1),
            ("f".to_string(), c2),
            ("d1".to_string(), d1),
            ("d2".to_string(), d2),
        ];
        let diags = check_conditions(&config, &cat, &rules, &|_| None);
        let msgs: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
        assert!(
            msgs.iter().any(|m| m.contains("contradictory bounds")),
            "{msgs:?}"
        );
        assert!(msgs.iter().any(|m| m.contains("always false")), "{msgs:?}");
        assert!(
            msgs.iter().any(|m| m.contains("duplicates rule d1")),
            "{msgs:?}"
        );
        assert_eq!(diags.len(), 3);
    }

    #[test]
    fn config_levels_and_escalation() {
        let mut config = LintConfig::default();
        assert_eq!(config.level(LintCode::L001), Severity::Deny);
        assert_eq!(config.level(LintCode::L004), Severity::Warn);
        config.set_level(LintCode::L001, Severity::Allow);
        assert!(config
            .diag(LintCode::L001, None, None, "x".into())
            .is_none());
        config.deny_warnings();
        assert_eq!(config.level(LintCode::L004), Severity::Deny);
        // Allow stays allow under deny_warnings.
        assert_eq!(config.level(LintCode::L001), Severity::Allow);
        assert_eq!(LintCode::parse("l003"), Some(LintCode::L003));
        let d = Diagnostic {
            code: LintCode::L002,
            severity: Severity::Deny,
            span: Some(Span::new(3, 7)),
            rule: Some("r".into()),
            message: "cycle".into(),
        };
        assert_eq!(d.render("bad.osql"), "bad.osql:3:7: deny[L002]: cycle [r]");
        assert!(has_deny(&[d]));
    }

    #[test]
    fn json_output_is_stable_and_escaped() {
        let diags = vec![
            Diagnostic {
                code: LintCode::L002,
                severity: Severity::Deny,
                span: Some(Span::new(3, 7)),
                rule: Some("r".into()),
                message: "cycle".into(),
            },
            Diagnostic {
                code: LintCode::L006,
                severity: Severity::Deny,
                span: None,
                rule: None,
                message: "constant \"oops\"\nhas wrong type".into(),
            },
        ];
        let json = diagnostics_to_json("bad.osql", &diags);
        assert_eq!(
            json,
            "[\n  {\"file\": \"bad.osql\", \"code\": \"L002\", \"severity\": \"deny\", \
             \"line\": 3, \"col\": 7, \"rule\": \"r\", \"message\": \"cycle\", \
             \"rendered\": \"bad.osql:3:7: deny[L002]: cycle [r]\"},\n  \
             {\"file\": \"bad.osql\", \"code\": \"L006\", \"severity\": \"deny\", \
             \"line\": null, \"col\": null, \"rule\": null, \
             \"message\": \"constant \\\"oops\\\"\\nhas wrong type\", \
             \"rendered\": \"bad.osql: deny[L006]: constant \\\"oops\\\"\\nhas wrong type\"}\n]\n"
        );
        assert_eq!(diagnostics_to_json("a.osql", &[]), "[\n]\n");
    }
}
