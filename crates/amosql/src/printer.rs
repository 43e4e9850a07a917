//! Pretty-printing of AMOSQL syntax trees back to parseable source.
//!
//! Every AST node renders to text that re-parses to the same tree
//! (verified by round-trip property tests). Expressions are emitted
//! fully parenthesized where precedence could be ambiguous.

use std::fmt;

use crate::ast::{Expr, ProcStmt, RuleCondition, Select, Statement, TypedVar};

impl fmt::Display for TypedVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.type_name, self.var)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Var(v) => write!(f, "{v}"),
            Expr::IfaceVar(v) => write!(f, ":{v}"),
            Expr::Int(i) => write!(f, "{i}"),
            Expr::Real(r) => {
                // Keep a decimal point so the literal re-parses as real.
                if r.fract() == 0.0 && r.is_finite() {
                    write!(f, "{r:.1}")
                } else {
                    write!(f, "{r}")
                }
            }
            Expr::Str(s) => write!(f, "\"{s}\""),
            Expr::Bool(b) => write!(f, "{b}"),
            Expr::Call { func, args } => {
                write!(f, "{func}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::Arith { op, lhs, rhs } => write!(f, "({lhs} {op} {rhs})"),
            Expr::Neg(e) => write!(f, "(-{e})"),
            Expr::Cmp { op, lhs, rhs } => write!(f, "({lhs} {op} {rhs})"),
            Expr::And(a, b) => write!(f, "({a} and {b})"),
            Expr::Or(a, b) => write!(f, "({a} or {b})"),
            Expr::Not(e) => write!(f, "(not {e})"),
        }
    }
}

impl fmt::Display for Select {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "select ")?;
        for (i, e) in self.exprs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        if !self.for_each.is_empty() {
            write!(f, " for each ")?;
            for (i, tv) in self.for_each.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{tv}")?;
            }
        }
        if let Some(w) = &self.where_clause {
            write!(f, " where {w}")?;
        }
        Ok(())
    }
}

impl fmt::Display for ProcStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kv =
            |f: &mut fmt::Formatter<'_>, kw: &str, func: &String, args: &[Expr], value: &Expr| {
                write!(f, "{kw} {func}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ") = {value}")
            };
        match self {
            ProcStmt::Call { name, args } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            ProcStmt::Set { func, args, value } => kv(f, "set", func, args, value),
            ProcStmt::Add { func, args, value } => kv(f, "add", func, args, value),
            ProcStmt::Remove { func, args, value } => kv(f, "remove", func, args, value),
        }
    }
}

impl fmt::Display for RuleCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.for_each.is_empty() {
            write!(f, "for each ")?;
            for (i, tv) in self.for_each.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{tv}")?;
            }
            write!(f, " where ")?;
        }
        write!(f, "{}", self.predicate)
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::CreateType { name, under } => {
                write!(f, "create type {name}")?;
                if let Some(u) = under {
                    write!(f, " under {u}")?;
                }
                write!(f, ";")
            }
            Statement::CreateFunction {
                name,
                params,
                results,
                append_only,
                body,
            } => {
                write!(f, "create function {name}(")?;
                for (i, p) in params.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ") -> {}", results.join(", "))?;
                if *append_only {
                    write!(f, " append only")?;
                }
                if let Some(sel) = body {
                    write!(f, " as {sel}")?;
                }
                write!(f, ";")
            }
            Statement::CreateRule {
                name,
                params,
                events,
                condition,
                action,
                priority,
            } => {
                write!(f, "create rule {name}(")?;
                for (i, p) in params.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ") as ")?;
                if !events.is_empty() {
                    write!(f, "on {} ", events.join(", "))?;
                }
                write!(f, "when ")?;
                if !condition.for_each.is_empty() {
                    write!(f, "for each ")?;
                    for (i, tv) in condition.for_each.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{tv}")?;
                    }
                    write!(f, " where ")?;
                }
                write!(f, "{} do ", condition.predicate)?;
                for (i, a) in action.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                if *priority != 0 {
                    write!(f, " priority {priority}")?;
                }
                write!(f, ";")
            }
            Statement::CreateInstances { type_name, names } => {
                write!(f, "create {type_name} instances ")?;
                for (i, n) in names.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, ":{n}")?;
                }
                write!(f, ";")
            }
            Statement::Update(p) => write!(f, "{p};"),
            Statement::Select(s) => write!(f, "{s};"),
            Statement::Activate { rule, args } => {
                write!(f, "activate {rule}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ");")
            }
            Statement::Deactivate { rule, args } => {
                write!(f, "deactivate {rule}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ");")
            }
            Statement::DropRule(r) => write!(f, "drop rule {r};"),
            Statement::ExplainSelect(s) => write!(f, "explain {s};"),
            Statement::ExplainRule(r) => write!(f, "explain rule {r};"),
            Statement::Begin => write!(f, "begin;"),
            Statement::Commit => write!(f, "commit;"),
            Statement::Rollback => write!(f, "rollback;"),
            Statement::CallProc { name, args } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ");")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::parser::parse;

    fn roundtrip(src: &str) {
        let once = parse(src).unwrap();
        let printed: String = once
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join("\n");
        let twice = parse(&printed)
            .unwrap_or_else(|e| panic!("re-parse failed: {e}\nprinted source:\n{printed}"));
        assert_eq!(once, twice, "printed source:\n{printed}");
    }

    #[test]
    fn statements_roundtrip() {
        roundtrip("create type item;");
        roundtrip("create type special under item;");
        roundtrip("create function quantity(item i) -> integer;");
        roundtrip(
            "create function threshold(item i) -> integer as \
             select consume_freq(i) * delivery_time(i, s) + min_stock(i) \
             for each supplier s where supplies(s) = i;",
        );
        roundtrip(
            "create rule monitor_items() as when for each item i \
             where quantity(i) < threshold(i) \
             do order(i, max_stock(i) - quantity(i));",
        );
        roundtrip("create item instances :a, :b;");
        roundtrip("set f(:a, 3) = 1 + 2 * 3;");
        roundtrip("add g(:a) = \"text\";");
        roundtrip("remove g(:a) = true;");
        roundtrip("select a, b for each item a, item b where a = b or not p(a);");
        roundtrip("activate r(:a);");
        roundtrip("deactivate r();");
        roundtrip("begin; commit; rollback;");
        roundtrip("order(:a, 2.5);");
        roundtrip(
            "create rule r() as when for each item i where q(i) > 1 \
             do set q(i) = 0, log(i) priority 7;",
        );
    }

    #[test]
    fn expression_shapes_roundtrip() {
        roundtrip("select -x + -(y * 2);");
        roundtrip("select (a + b) * (c - d) / 2;");
        roundtrip("select f(g(h(x)), 1, \"two\", 3.0, true, :iv);");
        roundtrip("select x where a < b and b <= c or not (d != e) and f >= g;");
    }
}
