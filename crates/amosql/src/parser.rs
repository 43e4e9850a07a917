//! Recursive-descent parser for the AMOSQL subset.
//!
//! Grammar (informal):
//!
//! ```text
//! script      := statement* ;
//! statement   := create_type | create_function | create_rule
//!              | create_instances | update | select | activate
//!              | deactivate | begin | commit | rollback | call ';'
//! create_type := 'create' 'type' IDENT ['under' IDENT] ';'
//! create_fn   := 'create' 'function' IDENT '(' [typed_var,*] ')'
//!                '->' IDENT ['as' select] ';'
//! create_rule := 'create' 'rule' IDENT '(' [typed_var,*] ')' 'as'
//!                'when' [for_each] expr
//!                'do' proc_stmt (',' proc_stmt)* ['priority' INT] ';'
//! for_each    := 'for' 'each' typed_var (',' typed_var)* 'where'
//! select      := 'select' expr (',' expr)*
//!                ['for' 'each' typed_var (',' typed_var)*]
//!                ['where' expr]
//! expr        := or_expr  (standard precedence: or < and < not < cmp
//!                < add/sub < mul/div < unary < atom)
//! ```

use amos_types::{ArithOp, CmpOp};

use crate::ast::*;
use crate::error::ParseError;
use crate::lexer::{tokenize, Spanned, Token};

/// Parse an AMOSQL script into statements.
pub fn parse(src: &str) -> Result<Vec<Statement>, ParseError> {
    Ok(parse_spanned(src)?.into_iter().map(|l| l.node).collect())
}

/// Parse an AMOSQL script into statements, each tagged with the source
/// position of its first token — the anchor for compiler and lint
/// diagnostics about that statement.
pub fn parse_spanned(src: &str) -> Result<Vec<Located<Statement>>, ParseError> {
    let tokens = tokenize(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut out = Vec::new();
    while !p.at_end() {
        let (line, col) = p
            .tokens
            .get(p.pos)
            .map(|s| (s.line, s.col))
            .unwrap_or((0, 0));
        out.push(Located {
            node: p.statement()?,
            line,
            col,
        });
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|s| &s.token)
    }

    fn peek2(&self) -> Option<&Token> {
        self.tokens.get(self.pos + 1).map(|s| &s.token)
    }

    fn err_here(&self, msg: impl Into<String>) -> ParseError {
        match self.tokens.get(self.pos) {
            Some(s) => ParseError::new(s.line, s.col, msg),
            None => ParseError::unpositioned(format!("{} (at end of input)", msg.into())),
        }
    }

    fn advance(&mut self) -> Result<Token, ParseError> {
        let t = self
            .tokens
            .get(self.pos)
            .map(|s| s.token.clone())
            .ok_or_else(|| self.err_here("unexpected end of input"))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, tok: &Token) -> Result<(), ParseError> {
        if self.peek() == Some(tok) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err_here(format!(
                "expected `{tok}`, found {}",
                self.peek()
                    .map(|t| format!("`{t}`"))
                    .unwrap_or_else(|| "end of input".into())
            )))
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.peek() {
            Some(Token::Ident(s)) if s == kw => {
                self.pos += 1;
                Ok(())
            }
            _ => Err(self.err_here(format!("expected `{kw}`"))),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s == kw)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Some(Token::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            _ => Err(self.err_here("expected identifier")),
        }
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn statement(&mut self) -> Result<Statement, ParseError> {
        let stmt = if self.at_keyword("create") {
            self.create()?
        } else if self.at_keyword("set") || self.at_keyword("add") || self.at_keyword("remove") {
            Statement::Update(self.update_stmt()?)
        } else if self.at_keyword("select") {
            Statement::Select(self.select()?)
        } else if self.eat_keyword("activate") {
            let (rule, args) = self.name_and_args()?;
            Statement::Activate { rule, args }
        } else if self.eat_keyword("deactivate") {
            let (rule, args) = self.name_and_args()?;
            Statement::Deactivate { rule, args }
        } else if self.eat_keyword("drop") {
            self.keyword("rule")?;
            Statement::DropRule(self.ident()?)
        } else if self.eat_keyword("explain") {
            if self.eat_keyword("rule") {
                Statement::ExplainRule(self.ident()?)
            } else {
                Statement::ExplainSelect(self.select()?)
            }
        } else if self.eat_keyword("begin") {
            Statement::Begin
        } else if self.eat_keyword("commit") {
            Statement::Commit
        } else if self.eat_keyword("rollback") {
            Statement::Rollback
        } else if matches!(self.peek(), Some(Token::Ident(_)))
            && self.peek2() == Some(&Token::LParen)
        {
            let (name, args) = self.name_and_args()?;
            Statement::CallProc { name, args }
        } else {
            return Err(self.err_here("expected a statement"));
        };
        self.expect(&Token::Semi)?;
        Ok(stmt)
    }

    fn name_and_args(&mut self) -> Result<(String, Vec<Expr>), ParseError> {
        let name = self.ident()?;
        self.expect(&Token::LParen)?;
        let mut args = Vec::new();
        if self.peek() != Some(&Token::RParen) {
            loop {
                args.push(self.expr()?);
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
        }
        self.expect(&Token::RParen)?;
        Ok((name, args))
    }

    fn eat_token(&mut self, tok: &Token) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn create(&mut self) -> Result<Statement, ParseError> {
        self.keyword("create")?;
        if self.eat_keyword("type") {
            let name = self.ident()?;
            let under = if self.eat_keyword("under") {
                Some(self.ident()?)
            } else {
                None
            };
            return Ok(Statement::CreateType { name, under });
        }
        if self.eat_keyword("function") {
            return self.create_function();
        }
        if self.eat_keyword("rule") {
            return self.create_rule();
        }
        // create <type> instances :a, :b
        let type_name = self.ident()?;
        self.keyword("instances")?;
        let mut names = Vec::new();
        loop {
            match self.advance()? {
                Token::IfaceVar(n) => names.push(n),
                _ => return Err(self.err_here("expected interface variable (`:name`)")),
            }
            if !self.eat_token(&Token::Comma) {
                break;
            }
        }
        Ok(Statement::CreateInstances { type_name, names })
    }

    fn typed_var(&mut self) -> Result<TypedVar, ParseError> {
        let type_name = self.ident()?;
        let var = self.ident()?;
        Ok(TypedVar { type_name, var })
    }

    fn typed_var_list(&mut self) -> Result<Vec<TypedVar>, ParseError> {
        let mut out = Vec::new();
        if self.peek() == Some(&Token::RParen) {
            return Ok(out);
        }
        loop {
            out.push(self.typed_var()?);
            if !self.eat_token(&Token::Comma) {
                break;
            }
        }
        Ok(out)
    }

    fn create_function(&mut self) -> Result<Statement, ParseError> {
        let name = self.ident()?;
        self.expect(&Token::LParen)?;
        let params = self.typed_var_list()?;
        self.expect(&Token::RParen)?;
        self.expect(&Token::Arrow)?;
        let mut results = vec![self.ident()?];
        while self.eat_token(&Token::Comma) {
            results.push(self.ident()?);
        }
        let append_only = if self.eat_keyword("append") {
            self.keyword("only")?;
            true
        } else {
            false
        };
        let body = if self.eat_keyword("as") {
            Some(self.select()?)
        } else {
            None
        };
        if append_only && body.is_some() {
            return Err(self.err_here(format!(
                "`append only` applies to stored functions; `{name}` is derived"
            )));
        }
        Ok(Statement::CreateFunction {
            name,
            params,
            results,
            append_only,
            body,
        })
    }

    fn create_rule(&mut self) -> Result<Statement, ParseError> {
        let name = self.ident()?;
        self.expect(&Token::LParen)?;
        let params = self.typed_var_list()?;
        self.expect(&Token::RParen)?;
        self.keyword("as")?;
        let mut events = Vec::new();
        if self.eat_keyword("on") {
            loop {
                events.push(self.ident()?);
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
        }
        self.keyword("when")?;
        let mut for_each = Vec::new();
        if self.eat_keyword("for") {
            self.keyword("each")?;
            loop {
                for_each.push(self.typed_var()?);
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
            self.keyword("where")?;
        }
        let predicate = self.expr()?;
        self.keyword("do")?;
        let mut action = vec![self.proc_stmt()?];
        while self.eat_token(&Token::Comma) {
            action.push(self.proc_stmt()?);
        }
        let priority = if self.eat_keyword("priority") {
            match self.advance()? {
                Token::Int(i) => i as i32,
                Token::Minus => match self.advance()? {
                    Token::Int(i) => -(i as i32),
                    _ => return Err(self.err_here("expected integer priority")),
                },
                _ => return Err(self.err_here("expected integer priority")),
            }
        } else {
            0
        };
        Ok(Statement::CreateRule {
            name,
            params,
            events,
            condition: RuleCondition {
                for_each,
                predicate,
            },
            action,
            priority,
        })
    }

    fn proc_stmt(&mut self) -> Result<ProcStmt, ParseError> {
        if self.at_keyword("set") || self.at_keyword("add") || self.at_keyword("remove") {
            return self.update_stmt();
        }
        let (name, args) = self.name_and_args()?;
        Ok(ProcStmt::Call { name, args })
    }

    fn update_stmt(&mut self) -> Result<ProcStmt, ParseError> {
        let kind = self.ident()?; // set | add | remove
        let (func, args) = self.name_and_args()?;
        self.expect(&Token::Eq)?;
        let value = self.expr()?;
        Ok(match kind.as_str() {
            "set" => ProcStmt::Set { func, args, value },
            "add" => ProcStmt::Add { func, args, value },
            "remove" => ProcStmt::Remove { func, args, value },
            _ => unreachable!("guarded by caller"),
        })
    }

    fn select(&mut self) -> Result<Select, ParseError> {
        self.keyword("select")?;
        let mut exprs = vec![self.expr()?];
        while self.eat_token(&Token::Comma) {
            exprs.push(self.expr()?);
        }
        let mut for_each = Vec::new();
        if self.eat_keyword("for") {
            self.keyword("each")?;
            loop {
                for_each.push(self.typed_var()?);
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
        }
        let where_clause = if self.eat_keyword("where") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Select {
            exprs,
            for_each,
            where_clause,
        })
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.and_expr()?;
        while self.eat_keyword("or") {
            let rhs = self.and_expr()?;
            lhs = Expr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.not_expr()?;
        while self.eat_keyword("and") {
            let rhs = self.not_expr()?;
            lhs = Expr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr, ParseError> {
        if self.eat_keyword("not") {
            Ok(Expr::Not(Box::new(self.not_expr()?)))
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Some(Token::Eq) => Some(CmpOp::Eq),
            Some(Token::Ne) => Some(CmpOp::Ne),
            Some(Token::Lt) => Some(CmpOp::Lt),
            Some(Token::Le) => Some(CmpOp::Le),
            Some(Token::Gt) => Some(CmpOp::Gt),
            Some(Token::Ge) => Some(CmpOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let rhs = self.add_expr()?;
            Ok(Expr::Cmp {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            })
        } else {
            Ok(lhs)
        }
    }

    fn add_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => ArithOp::Add,
                Some(Token::Minus) => ArithOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.mul_expr()?;
            lhs = Expr::Arith {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => ArithOp::Mul,
                Some(Token::Slash) => ArithOp::Div,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.unary_expr()?;
            lhs = Expr::Arith {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        if self.eat_token(&Token::Minus) {
            Ok(Expr::Neg(Box::new(self.unary_expr()?)))
        } else {
            self.atom()
        }
    }

    fn atom(&mut self) -> Result<Expr, ParseError> {
        match self.advance()? {
            Token::Int(i) => Ok(Expr::Int(i)),
            Token::Real(r) => Ok(Expr::Real(r)),
            Token::Str(s) => Ok(Expr::Str(s)),
            Token::IfaceVar(n) => Ok(Expr::IfaceVar(n)),
            Token::LParen => {
                let e = self.expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Token::Ident(name) => match name.as_str() {
                "true" => Ok(Expr::Bool(true)),
                "false" => Ok(Expr::Bool(false)),
                _ => {
                    if self.peek() == Some(&Token::LParen) {
                        self.pos += 1;
                        let mut args = Vec::new();
                        if self.peek() != Some(&Token::RParen) {
                            loop {
                                args.push(self.expr()?);
                                if !self.eat_token(&Token::Comma) {
                                    break;
                                }
                            }
                        }
                        self.expect(&Token::RParen)?;
                        Ok(Expr::Call { func: name, args })
                    } else {
                        Ok(Expr::Var(name))
                    }
                }
            },
            other => {
                self.pos -= 1;
                Err(self.err_here(format!("unexpected `{other}` in expression")))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_schema_parses() {
        let src = r#"
            create type item;
            create type supplier;
            create function quantity(item i) -> integer;
            create function threshold(item i) -> integer
                as select consume_freq(i) * delivery_time(i, s) + min_stock(i)
                for each supplier s where supplies(s) = i;
        "#;
        let stmts = parse(src).unwrap();
        assert_eq!(stmts.len(), 4);
        match &stmts[3] {
            Statement::CreateFunction { name, body, .. } => {
                assert_eq!(name, "threshold");
                let sel = body.as_ref().unwrap();
                assert_eq!(sel.for_each.len(), 1);
                assert!(sel.where_clause.is_some());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn paper_rules_parse() {
        let src = r#"
            create rule monitor_item(item i) as
                when quantity(i) < threshold(i)
                do order(i, max_stock(i) - quantity(i));
            create rule monitor_items() as
                when for each item i
                where quantity(i) < threshold(i)
                do order(i, max_stock(i) - quantity(i));
        "#;
        let stmts = parse(src).unwrap();
        match &stmts[0] {
            Statement::CreateRule {
                name,
                params,
                condition,
                action,
                ..
            } => {
                assert_eq!(name, "monitor_item");
                assert_eq!(params.len(), 1);
                assert!(condition.for_each.is_empty());
                assert_eq!(action.len(), 1);
            }
            other => panic!("{other:?}"),
        }
        match &stmts[1] {
            Statement::CreateRule { condition, .. } => {
                assert_eq!(condition.for_each.len(), 1);
                assert_eq!(condition.for_each[0].var, "i");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn instances_updates_and_activation() {
        let src = r#"
            create item instances :item1, :item2;
            set max_stock(:item1) = 5000;
            set delivery_time(:item1, :sup1) = 2;
            add supplies_many(:sup1) = :item1;
            remove supplies_many(:sup1) = :item1;
            activate monitor_items();
            deactivate monitor_item(:item1);
        "#;
        let stmts = parse(src).unwrap();
        assert_eq!(stmts.len(), 7);
        assert!(matches!(&stmts[0], Statement::CreateInstances { names, .. } if names.len() == 2));
        assert!(matches!(&stmts[3], Statement::Update(ProcStmt::Add { .. })));
        assert!(matches!(&stmts[5], Statement::Activate { args, .. } if args.is_empty()));
    }

    #[test]
    fn expression_precedence() {
        let stmts = parse("select a + b * c < d and e or not f;").unwrap();
        let Statement::Select(sel) = &stmts[0] else {
            panic!()
        };
        // ((a + (b*c)) < d and e) or (not f)
        match &sel.exprs[0] {
            Expr::Or(lhs, rhs) => {
                assert!(matches!(**rhs, Expr::Not(_)));
                match &**lhs {
                    Expr::And(l, _) => assert!(matches!(**l, Expr::Cmp { .. })),
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rule_with_priority_and_multiple_actions() {
        let src = r#"
            create rule r1() as
                when for each item i where quantity(i) < 10
                do set quantity(i) = 100, log_event(i) priority 5;
        "#;
        let stmts = parse(src).unwrap();
        match &stmts[0] {
            Statement::CreateRule {
                action, priority, ..
            } => {
                assert_eq!(action.len(), 2);
                assert_eq!(*priority, 5);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn transactions_and_calls() {
        let stmts = parse("begin; order(:item1, 5); commit; rollback;").unwrap();
        assert_eq!(stmts.len(), 4);
        assert!(matches!(stmts[0], Statement::Begin));
        assert!(matches!(&stmts[1], Statement::CallProc { .. }));
    }

    #[test]
    fn error_positions() {
        let err = parse("create type ;").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("identifier"));
        assert!(parse("select ;").is_err());
        assert!(parse("create rule r() as when do x();").is_err());
    }

    #[test]
    fn spanned_statements_carry_positions() {
        let src = "create type item;\n  create function quantity(item i) -> integer;\n";
        let stmts = parse_spanned(src).unwrap();
        assert_eq!(stmts.len(), 2);
        assert_eq!((stmts[0].line, stmts[0].col), (1, 1));
        assert_eq!((stmts[1].line, stmts[1].col), (2, 3));
        assert!(matches!(stmts[1].node, Statement::CreateFunction { .. }));
    }

    #[test]
    fn append_only_functions() {
        let stmts = parse("create function restocks(item i) -> integer append only;").unwrap();
        match &stmts[0] {
            Statement::CreateFunction {
                append_only, body, ..
            } => {
                assert!(*append_only);
                assert!(body.is_none());
            }
            other => panic!("{other:?}"),
        }
        // Round-trips through the printer.
        assert!(stmts[0].to_string().contains("append only"));
        // `append only` on a derived function is rejected.
        let err = parse("create function f(item i) -> integer append only as select quantity(i);")
            .unwrap_err();
        assert!(err.message.contains("append only"), "{}", err.message);
    }

    #[test]
    fn negative_numbers_and_parens() {
        let stmts = parse("select -3 * (a + 2);").unwrap();
        let Statement::Select(sel) = &stmts[0] else {
            panic!()
        };
        assert!(matches!(
            &sel.exprs[0],
            Expr::Arith {
                op: ArithOp::Mul,
                ..
            }
        ));
    }
}
