//! Abstract syntax for the AMOSQL subset.

use amos_types::{ArithOp, CmpOp};

/// A typed variable declaration `item i`.
#[derive(Debug, Clone, PartialEq)]
pub struct TypedVar {
    /// The type name.
    pub type_name: String,
    /// The variable name.
    pub var: String,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A query/rule variable (`i`, `s`).
    Var(String),
    /// An interface variable (`:item1`) resolved from the session
    /// environment.
    IfaceVar(String),
    /// Integer literal.
    Int(i64),
    /// Real literal.
    Real(f64),
    /// String literal.
    Str(String),
    /// Boolean literal (`true`/`false`).
    Bool(bool),
    /// A function call `quantity(i)`.
    Call {
        /// Function name.
        func: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Arithmetic `lhs op rhs`.
    Arith {
        /// Operator.
        op: ArithOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Unary negation `-e`.
    Neg(Box<Expr>),
    /// Comparison `lhs op rhs` (boolean-valued).
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
}

/// A `select` query:
/// `select e₁, …  [for each T₁ v₁, …]  [where pred]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// The select list.
    pub exprs: Vec<Expr>,
    /// `for each` declarations.
    pub for_each: Vec<TypedVar>,
    /// `where` predicate.
    pub where_clause: Option<Expr>,
}

/// A statement in a rule action body.
#[derive(Debug, Clone, PartialEq)]
pub enum ProcStmt {
    /// A procedure call `order(i, max_stock(i) - quantity(i))`.
    Call {
        /// Procedure name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// An update `set f(args…) = value`.
    Set {
        /// Stored function name.
        func: String,
        /// Key arguments.
        args: Vec<Expr>,
        /// New value.
        value: Expr,
    },
    /// `add f(args…) = value` (multi-valued insert).
    Add {
        /// Stored function name.
        func: String,
        /// Key arguments.
        args: Vec<Expr>,
        /// Added value.
        value: Expr,
    },
    /// `remove f(args…) = value` (multi-valued delete).
    Remove {
        /// Stored function name.
        func: String,
        /// Key arguments.
        args: Vec<Expr>,
        /// Removed value.
        value: Expr,
    },
}

/// The `when` part of a rule.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleCondition {
    /// `for each` declarations (empty for parameter-only conditions).
    pub for_each: Vec<TypedVar>,
    /// The predicate expression.
    pub predicate: Expr,
}

/// A node paired with the source position of its first token, so
/// downstream diagnostics (compiler errors, lint findings) can print
/// `file:line:col` even though the node itself carries no spans.
#[derive(Debug, Clone, PartialEq)]
pub struct Located<T> {
    /// The wrapped node.
    pub node: T,
    /// 1-based line of the node's first token.
    pub line: usize,
    /// 1-based column of the node's first token.
    pub col: usize,
}

/// A top-level statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `create type item [under thing];`
    CreateType {
        /// New type name.
        name: String,
        /// Optional supertype.
        under: Option<String>,
    },
    /// `create function name(T a, …) -> T [append only] [as select …];`
    CreateFunction {
        /// Function name.
        name: String,
        /// Parameters.
        params: Vec<TypedVar>,
        /// Result type names (usually one).
        results: Vec<String>,
        /// `append only` — the stored function promises to never see
        /// deletes, letting the engine prune Δ₋ differentials (L004).
        append_only: bool,
        /// Body: `None` for stored functions, `Some` for derived.
        body: Option<Select>,
    },
    /// `create rule name(T a, …) as [on f₁, …] when … do …;`
    CreateRule {
        /// Rule name.
        name: String,
        /// Parameters.
        params: Vec<TypedVar>,
        /// ECA event restriction: only test the condition when one of
        /// these stored functions changed (empty = pure CA rule).
        events: Vec<String>,
        /// Condition.
        condition: RuleCondition,
        /// Action statements.
        action: Vec<ProcStmt>,
        /// `priority N` (default 0).
        priority: i32,
    },
    /// `create item instances :item1, :item2;`
    CreateInstances {
        /// Type name.
        type_name: String,
        /// Interface-variable names receiving the new oids.
        names: Vec<String>,
    },
    /// `set f(args…) = value;`
    Update(ProcStmt),
    /// A standalone query.
    Select(Select),
    /// `activate rule_name(args…);`
    Activate {
        /// Rule name.
        rule: String,
        /// Parameter arguments.
        args: Vec<Expr>,
    },
    /// `deactivate rule_name(args…);`
    Deactivate {
        /// Rule name.
        rule: String,
        /// Parameter arguments.
        args: Vec<Expr>,
    },
    /// `begin;`
    Begin,
    /// `commit;`
    Commit,
    /// `rollback;`
    Rollback,
    /// A standalone procedure call `order(:item1, 5);`
    CallProc {
        /// Procedure name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `drop rule name;` — deactivate everywhere and remove the rule.
    DropRule(String),
    /// `explain select …;` — show the compiled clauses and plans.
    ExplainSelect(Select),
    /// `explain rule name;` — show the rule's condition, differentials,
    /// and its slice of the propagation network.
    ExplainRule(String),
    /// `monitor rule name naive|incremental|auto;` — pin (or, with
    /// `auto`, unpin) the rule's monitoring strategy, overriding the
    /// hybrid cost model.
    MonitorRule {
        /// The rule to pin.
        rule: String,
        /// The strategy: `"naive"`, `"incremental"`, or `"auto"`.
        pin: String,
    },
}
