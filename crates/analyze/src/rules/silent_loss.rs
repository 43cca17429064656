//! `no-silent-loss`: in the scheduler, the `__sys` handlers and the
//! transports, a `Parcel`-typed binding may not go out of scope silently — every path
//! must hand it onward (queue push, continuation delivery, field
//! handoff) or kill it loudly via `kill_parcel`. Intentional drops carry
//! a line-level `// px-analyze: allow(no-silent-loss): why`.
//!
//! Why: the transport contract (see `px_core::net::Transport`) makes
//! "no silent loss" invariant number one — a parcel that vanishes
//! strands its continuation forever, and every future/dataflow/barrier
//! downstream of it deadlocks with no diagnostic. The bug class is a
//! quiet `return;` on a rarely taken branch. This rule walks each
//! function in the files that own parcels in flight and checks, branch
//! by branch, that no tracked binding can reach a `return` or the end
//! of its scope unconsumed.
//!
//! What is tracked (stated honestly — this is a lint, not a borrow
//! checker):
//! - parameters whose type mentions `Parcel` by value (`p: Parcel`,
//!   `Vec<Parcel>`; `&Parcel` borrows are not ours to account for), and
//! - `let` bindings constructed from `Parcel::new(..)`,
//!   `Parcel::decode(..)`, a `Parcel { .. }` literal, or an explicit
//!   `: Parcel` annotation.
//!
//! A binding is *consumed* by a move-shaped use: bare `p` as a call
//! argument / tail value / `match p` scrutinee / `return p`, or a field
//! handoff `p.field` passed as an argument (how `run_parcel` delivers
//! `p.cont` to `apply_continuation`). `&p` and `p.method(..)` are reads
//! and keep the obligation alive. Branches are tracked: a consume
//! inside an `if` without `else` does not satisfy the paths around it,
//! while a `match`/`if-else` that consumes (or diverges) in *every* arm
//! does. Pattern-bound parcels (`Ok(p) => ..`) and `?`-operator early
//! exits are out of scope; the rule is a net for the common shape, the
//! allow comment is the escape hatch for what it cannot see.

use crate::lexer::{TokKind, Token};
use crate::segment::{matching_brace, next_sig, prev_sig};
use crate::{FileCtx, Finding};

/// Files whose functions own parcels in flight: the scheduler, the one
/// sender (`origin.rs`), the transports (the TCP backend's I/O loop
/// handles stream messages, not parcels), every `__sys` handler (all of
/// `src/sys/`) and the echo client calls.
const TARGET_SUFFIXES: &[&str] = &[
    "src/sched.rs",
    "src/origin.rs",
    "src/echo.rs",
    "src/net/tcp.rs",
    "src/net/inproc.rs",
];

pub fn check(ctx: &FileCtx, findings: &mut Vec<Finding>) {
    if !(ctx.rel.contains("src/sys/") || TARGET_SUFFIXES.iter().any(|s| ctx.rel.ends_with(s))) {
        return;
    }
    let closures = crate::segment::closure_ranges(&ctx.toks);
    for f in &ctx.fns {
        if f.in_test {
            continue;
        }
        for b in bindings(&ctx.toks, f) {
            let mut scan = Scan {
                toks: &ctx.toks,
                name: &b.name,
                closures: &closures,
                findings,
                file: &ctx.rel,
                func: &f.name,
            };
            let moved = scan.range(b.scope.0, b.scope.1, false, false);
            if !moved {
                findings.push(Finding {
                    file: ctx.rel.clone(),
                    line: b.line,
                    rule: "no-silent-loss",
                    msg: format!(
                        "parcel binding `{}` in `{}` can go out of scope without \
                         kill_parcel or a handoff",
                        b.name, f.name
                    ),
                });
            }
        }
    }
}

/// A tracked parcel binding and the token range it is live over.
struct Binding {
    name: String,
    line: u32,
    /// `[start, end)` token range to scan (after the intro, to scope end).
    scope: (usize, usize),
}

/// Parameters typed `Parcel`-by-value plus `let` bindings constructed
/// from a parcel expression.
fn bindings(toks: &[Token], f: &crate::segment::FnItem) -> Vec<Binding> {
    let mut out = Vec::new();
    // --- parameters ---
    if let Some(open) = (f.fn_idx..f.body.0).find(|&i| toks[i].is_punct('(')) {
        let close = crate::segment::matching_close_paren(toks, open);
        let mut i = open + 1;
        while i < close {
            // One parameter: `[mut] name : TYPE` up to a top-level `,`.
            let start = i;
            let mut depth = 0i64;
            let mut end = i;
            while end < close {
                let t = &toks[end];
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('>') {
                    depth -= 1;
                } else if depth == 0 && t.is_punct(',') {
                    break;
                }
                end += 1;
            }
            if let Some(colon) = (start..end).find(|&j| toks[j].is_punct(':')) {
                let name_idx = (start..colon)
                    .rfind(|&j| toks[j].kind == TokKind::Ident && !toks[j].is_ident("mut"));
                let ty = &toks[colon + 1..end];
                let by_value = ty.first().is_some_and(|t| !t.is_punct('&'));
                let is_parcel = ty.iter().any(|t| t.is_ident("Parcel"));
                if let Some(n) = name_idx {
                    if by_value && is_parcel && !toks[n].text.starts_with('_') {
                        out.push(Binding {
                            name: toks[n].text.clone(),
                            line: toks[n].line,
                            scope: (f.body.0 + 1, f.body.1),
                        });
                    }
                }
            }
            i = end + 1;
        }
    }
    // --- let bindings ---
    let (b_open, b_close) = f.body;
    // Enclosing-block map so a nested `let` scopes to its own block.
    let mut stack: Vec<usize> = Vec::new();
    let mut i = b_open;
    while i <= b_close {
        let t = &toks[i];
        if t.is_punct('{') {
            stack.push(i);
        } else if t.is_punct('}') {
            stack.pop();
        } else if t.is_ident("let") {
            if let Some(bind) = let_binding(toks, i, b_close) {
                let scope_close = stack
                    .last()
                    .map(|&o| matching_brace(toks, o))
                    .unwrap_or(b_close);
                out.push(Binding {
                    name: bind.0,
                    line: toks[i].line,
                    scope: (bind.1, scope_close),
                });
            }
        }
        i += 1;
    }
    out
}

/// Parse `let [mut] name [: T] = RHS ;` at the `let` keyword; return the
/// binding name and the token index just past the terminating `;` when
/// the RHS (or annotation) is parcel-shaped.
fn let_binding(toks: &[Token], let_idx: usize, limit: usize) -> Option<(String, usize)> {
    let mut n = next_sig(toks, let_idx + 1)?;
    if toks[n].is_ident("mut") {
        n = next_sig(toks, n + 1)?;
    }
    if toks[n].kind != TokKind::Ident || toks[n].text.starts_with('_') {
        return None; // tuple/struct patterns and wildcards are not tracked
    }
    let name = toks[n].text.clone();
    let after = next_sig(toks, n + 1)?;
    if !(toks[after].is_punct(':') || toks[after].is_punct('=')) {
        return None;
    }
    // Scan to the statement's `;` at depth 0 (braces included: `let p =
    // match x { .. };`).
    let mut depth = 0i64;
    let mut j = after;
    let mut semi = None;
    while j <= limit {
        let t = &toks[j];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth < 0 {
                break;
            }
        } else if depth == 0 && t.is_punct(';') {
            semi = Some(j);
            break;
        }
        j += 1;
    }
    let semi = semi?;
    // Parcel-shaped RHS or annotation?
    let span = &toks[after..semi];
    let mut shaped = false;
    for (k, t) in span.iter().enumerate() {
        if !t.is_ident("Parcel") {
            continue;
        }
        match span.get(k + 1) {
            Some(n1) if n1.is_punct('{') => shaped = true, // Parcel { .. }
            // `Parcel::new` / `Parcel::decode`
            Some(n1)
                if n1.is_punct(':')
                    && span
                        .get(k + 3)
                        .is_some_and(|m| m.is_ident("new") || m.is_ident("decode")) =>
            {
                shaped = true;
            }
            Some(n1) if n1.is_punct('=') || n1.is_punct(',') || n1.is_punct('>') => {
                // `: Parcel =`, `Vec<Parcel>` annotation
                shaped = true;
            }
            _ => {}
        }
    }
    shaped.then_some((name, semi + 1))
}

/// Branch-aware liveness walker for one binding.
struct Scan<'a> {
    toks: &'a [Token],
    name: &'a str,
    closures: &'a [(usize, usize)],
    findings: &'a mut Vec<Finding>,
    file: &'a str,
    func: &'a str,
}

impl Scan<'_> {
    /// Scan `[start, end)`; returns whether the binding is consumed on
    /// the fall-through path out of the range.
    fn range(&mut self, start: usize, end: usize, mut moved: bool, in_closure: bool) -> bool {
        let mut i = start;
        while i < end {
            let t = &self.toks[i];
            if t.is_comment() {
                i += 1;
                continue;
            }
            if t.is_punct('{') {
                let close = matching_brace(self.toks, i);
                if let Some(&(_, c)) = self.closures.iter().find(|&&(o, _)| o == i) {
                    // Closure body: a by-move capture consumes the parcel
                    // even if the closure never runs; `return` inside
                    // returns from the closure, not from us.
                    moved = self.range(i + 1, c, moved, true);
                } else {
                    // Plain block / struct literal: unconditional.
                    moved = self.range(i + 1, close, moved, in_closure);
                }
                i = close + 1;
                continue;
            }
            if t.is_ident("match") {
                let (ni, m) = self.match_construct(i, moved, in_closure);
                moved = m;
                i = ni;
                continue;
            }
            if t.is_ident("if") {
                let (ni, m) = self.if_chain(i, moved, in_closure);
                moved = m;
                i = ni;
                continue;
            }
            if t.is_ident("loop") || t.is_ident("while") || t.is_ident("for") {
                // Header executes; body may run zero times, so its moves
                // do not satisfy the fall-through path.
                if let Some(open) = self.block_open(i + 1, end) {
                    moved = self.range(i + 1, open, moved, in_closure);
                    let close = matching_brace(self.toks, open);
                    let _ = self.range(open + 1, close, moved, in_closure);
                    i = close + 1;
                } else {
                    i += 1;
                }
                continue;
            }
            if t.is_ident("return") && !in_closure {
                let stmt_end = self.stmt_end(i + 1, end);
                if self.span_moves(i + 1, stmt_end) {
                    moved = true;
                }
                if !moved {
                    self.findings.push(Finding {
                        file: self.file.to_string(),
                        line: t.line,
                        rule: "no-silent-loss",
                        msg: format!(
                            "`return` in `{}` drops parcel `{}` silently; route it \
                             through kill_parcel or hand it off first",
                            self.func, self.name
                        ),
                    });
                    // One finding per path: treat as handled downstream.
                    moved = true;
                }
                i = stmt_end;
                continue;
            }
            if t.kind == TokKind::Ident && t.text == self.name && self.is_move(i) {
                moved = true;
            }
            i += 1;
        }
        moved
    }

    /// Is the binding occurrence at `i` a move-shaped use?
    fn is_move(&self, i: usize) -> bool {
        if let Some(p) = i.checked_sub(1).and_then(|p| prev_sig(self.toks, p)) {
            let pt = &self.toks[p];
            if pt.is_punct('.') {
                return false; // `x.p` — a field of something else
            }
            if pt.is_punct('&') {
                return false; // borrow
            }
            if pt.is_punct(':')
                && p.checked_sub(1)
                    .and_then(|q| prev_sig(self.toks, q))
                    .is_some_and(|q| self.toks[q].is_punct(':'))
            {
                return false; // `path::p` names something else entirely
            }
            if pt.is_ident("mut") {
                // `&mut p` borrow
                if p.checked_sub(1)
                    .and_then(|q| prev_sig(self.toks, q))
                    .is_some_and(|q| self.toks[q].is_punct('&'))
                {
                    return false;
                }
            }
            if pt.is_ident("match") || pt.is_ident("return") {
                return true;
            }
        }
        let Some(n) = next_sig(self.toks, i + 1) else {
            return false;
        };
        let nt = &self.toks[n];
        if nt.is_punct(',') || nt.is_punct(')') || nt.is_punct(';') || nt.is_punct('}') {
            return true; // bare argument / tail value
        }
        if nt.is_punct('.') {
            // `p.cont` / `p.payload` passed as an argument is a handoff of
            // the state the invariant cares about (`run_parcel` delivers
            // `p.cont` to `apply_continuation`). Only the non-`Copy`
            // payload-bearing fields count: reading `p.dest` or `p.hops`
            // resolves nothing.
            if let Some(fld) = next_sig(self.toks, n + 1) {
                if self.toks[fld].is_ident("cont") || self.toks[fld].is_ident("payload") {
                    if let Some(after) = next_sig(self.toks, fld + 1) {
                        let at = &self.toks[after];
                        if at.is_punct(',') || at.is_punct(')') {
                            return true;
                        }
                    }
                }
            }
        }
        false
    }

    /// Does `[start, end)` contain a move-shaped use?
    fn span_moves(&self, start: usize, end: usize) -> bool {
        (start..end.min(self.toks.len()))
            .any(|j| self.toks[j].is_ident(self.name) && self.is_move(j))
    }

    /// Does `[start, end)` divert control (return / panic / break /
    /// continue), so the fall-through path never leaves it?
    fn span_exits(&self, start: usize, end: usize, in_closure: bool) -> bool {
        (start..end.min(self.toks.len())).any(|j| {
            let t = &self.toks[j];
            (t.is_ident("return") && !in_closure)
                || t.is_ident("break")
                || t.is_ident("continue")
                || ((t.is_ident("panic") || t.is_ident("unreachable") || t.is_ident("todo"))
                    && self.toks.get(j + 1).is_some_and(|n| n.is_punct('!')))
        })
    }

    /// First `{` at paren/bracket depth 0 in `[from, end)`.
    fn block_open(&self, from: usize, end: usize) -> Option<usize> {
        let mut depth = 0i64;
        for j in from..end.min(self.toks.len()) {
            let t = &self.toks[j];
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if depth == 0 && t.is_punct('{') {
                return Some(j);
            }
        }
        None
    }

    /// Token index just past the statement starting at `from` (its `;`
    /// at depth 0, or `end`).
    fn stmt_end(&self, from: usize, end: usize) -> usize {
        let mut depth = 0i64;
        for j in from..end.min(self.toks.len()) {
            let t = &self.toks[j];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                if depth == 0 {
                    return j;
                }
                depth -= 1;
            } else if depth == 0 && (t.is_punct(';') || t.is_punct(',')) {
                return j + 1;
            }
        }
        end
    }

    /// `match` at `i`: scan scrutinee and every arm; the construct
    /// consumes the binding iff every arm consumes or diverges.
    fn match_construct(&mut self, i: usize, moved: bool, in_closure: bool) -> (usize, bool) {
        let Some(open) = self.block_open(i + 1, self.toks.len()) else {
            return (i + 1, moved);
        };
        let mut moved = self.range(i + 1, open, moved, in_closure);
        let close = matching_brace(self.toks, open);
        let mut all_armed = true;
        let mut any_arm = false;
        let mut k = open + 1;
        while k < close {
            // Pattern: advance to `=>` (`=` `>` adjacent) at depth 0.
            let mut depth = 0i64;
            let mut arrow = None;
            let mut j = k;
            while j + 1 < close {
                let t = &self.toks[j];
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    depth -= 1;
                } else if depth == 0 && t.is_punct('=') && self.toks[j + 1].is_punct('>') {
                    arrow = Some(j);
                    break;
                }
                j += 1;
            }
            let Some(arrow) = arrow else { break };
            let Some(v) = next_sig(self.toks, arrow + 2) else {
                break;
            };
            let (vstart, vend, after) = if self.toks[v].is_punct('{') {
                let c = matching_brace(self.toks, v);
                let mut a = c + 1;
                if self.toks.get(a).is_some_and(|t| t.is_punct(',')) {
                    a += 1;
                }
                (v + 1, c, a)
            } else {
                // Expression arm: to `,` at depth 0 or the match close.
                let mut depth = 0i64;
                let mut e = v;
                while e < close {
                    let t = &self.toks[e];
                    if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                        depth += 1;
                    } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                        depth -= 1;
                    } else if depth == 0 && t.is_punct(',') {
                        break;
                    }
                    e += 1;
                }
                (v, e, e + 1)
            };
            any_arm = true;
            let child = self.range(vstart, vend, moved, in_closure);
            let exits = self.span_exits(vstart, vend, in_closure);
            if !(child || exits) {
                all_armed = false;
            }
            k = after;
        }
        if any_arm && all_armed {
            moved = true;
        }
        (close + 1, moved)
    }

    /// `if`/`else if`/`else` chain at `i`; consumes the binding iff a
    /// final `else` exists and every branch consumes or diverges.
    fn if_chain(&mut self, i: usize, moved: bool, in_closure: bool) -> (usize, bool) {
        let mut moved = moved;
        let mut branches: Vec<bool> = Vec::new();
        let mut has_else = false;
        let mut k = i; // at an `if`
        let end;
        loop {
            let Some(open) = self.block_open(k + 1, self.toks.len()) else {
                return (k + 1, moved);
            };
            // The condition runs on the path that reaches it.
            moved = self.range(k + 1, open, moved, in_closure);
            let close = matching_brace(self.toks, open);
            let child = self.range(open + 1, close, moved, in_closure);
            let exits = self.span_exits(open + 1, close, in_closure);
            branches.push(child || exits);
            match next_sig(self.toks, close + 1) {
                Some(e) if self.toks[e].is_ident("else") => match next_sig(self.toks, e + 1) {
                    Some(n) if self.toks[n].is_ident("if") => {
                        k = n;
                        continue;
                    }
                    Some(n) if self.toks[n].is_punct('{') => {
                        let c2 = matching_brace(self.toks, n);
                        let child = self.range(n + 1, c2, moved, in_closure);
                        let exits = self.span_exits(n + 1, c2, in_closure);
                        branches.push(child || exits);
                        has_else = true;
                        end = c2 + 1;
                        break;
                    }
                    _ => {
                        end = close + 1;
                        break;
                    }
                },
                _ => {
                    end = close + 1;
                    break;
                }
            }
        }
        if has_else && branches.iter().all(|&b| b) {
            moved = true;
        }
        (end, moved)
    }
}

#[cfg(test)]
mod tests {
    use crate::analyze_files;

    fn run(src: &str) -> Vec<String> {
        analyze_files(&[("crates/core/src/sched.rs".into(), src.into())])
            .into_iter()
            .filter(|f| f.rule == "no-silent-loss")
            .map(|f| f.to_string())
            .collect()
    }

    #[test]
    fn early_return_dropping_parcel_flagged() {
        // The shape that motivated the rule: a guard branch returns with
        // the parcel still owned.
        let src = "\
fn run(rt: &R, p: Parcel) {
    let a = p.action;
    if a == sys::NOOP {
        return;
    }
    deliver(rt, p);
}";
        let found = run(src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains(":4:"), "{found:?}");
        assert!(found[0].contains("drops parcel `p`"));
    }

    #[test]
    fn unused_parcel_param_flagged_at_fn_end() {
        let found = run("fn f(p: Parcel) { let x = 1; drop_all(x); }");
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("out of scope"));
    }

    #[test]
    fn kill_parcel_and_handoff_pass() {
        assert!(run("fn f(rt: &R, p: Parcel) { kill_parcel(rt, p, cause, why); }").is_empty());
        assert!(run("fn f(q: &Q, p: Parcel) { q.inject.push(p); }").is_empty());
        // Field handoff (how run_parcel delivers the continuation).
        assert!(run("fn f(rt: &R, p: Parcel) { apply(rt, p.cont, p.payload); }").is_empty());
    }

    #[test]
    fn all_arms_consuming_match_passes() {
        let src = "\
fn f(rt: &R, p: Parcel) {
    match rt.get(p.dest) {
        Ok(h) => deliver(h, p),
        Err(e) => kill_parcel(rt, p, cause_of(&e), e.to_string()),
    }
}";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn match_with_leaky_arm_flagged() {
        let src = "\
fn f(rt: &R, p: Parcel) {
    match rt.get(p.dest) {
        Ok(h) => deliver(h, p),
        Err(_) => {}
    }
}";
        let found = run(src);
        assert_eq!(found.len(), 1, "{found:?}");
    }

    #[test]
    fn if_without_else_does_not_satisfy_other_paths() {
        let found = run("fn f(q: &Q, p: Parcel, fast: bool) { if fast { q.push(p); } }");
        assert_eq!(found.len(), 1, "{found:?}");
        // …but a diverging arm plus fall-through consume is fine.
        let src =
            "fn f(q: &Q, p: Parcel, fast: bool) { if fast { q.push(p); return; } s.send(p); }";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn if_else_both_consuming_passes() {
        let src = "fn f(q: &Q, s: &S, p: Parcel, fast: bool) \
                   { if fast { q.push(p); } else { s.send(p); } }";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn borrows_do_not_consume() {
        let found = run("fn f(p: Parcel) { log(&p); observe(p.hops > 0); }");
        assert_eq!(found.len(), 1, "{found:?}");
    }

    #[test]
    fn tracked_let_from_decode() {
        let src = "\
fn f(rt: &R, bytes: &[u8]) {
    let mut p = Parcel::new(target, action, value, cont);
    p.hops = 1;
    if rt.full() {
        return;
    }
    rt.route(p);
}";
        let found = run(src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains(":5:"), "{found:?}");
    }

    #[test]
    fn line_level_allow_suppresses_with_justification() {
        let src = "\
fn f(p: Parcel) {
    // px-analyze: allow(no-silent-loss): NOOP parcels exist to be dropped.
    if p.action == 0 { return; }
    deliver(p);
}";
        // The allow sits on the line above the `return` line… the finding
        // is on line 3, allow on line 2 → suppressed.
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn sys_handlers_are_in_scope() {
        // Handlers left `sched.rs` for `src/sys/`; the net went with them.
        let src = "\
fn dir_update(rt: &R, loc: &L, p: Parcel, m: DirUpdate) {
    if m.owner == loc.id {
        return;
    }
    apply_continuation(rt, loc, p.cont, unit(), p.trace);
}";
        for file in ["crates/core/src/sys/agas.rs", "crates/core/src/echo.rs"] {
            let found = analyze_files(&[(file.into(), src.into())]);
            assert_eq!(found.len(), 1, "{file}: {found:?}");
            assert!(found[0].to_string().contains(":3:"), "{found:?}");
        }
    }

    #[test]
    fn non_target_files_ignored() {
        let found = analyze_files(&[(
            "crates/core/src/agas.rs".into(),
            "fn f(p: Parcel) { let x = 1; use_only(x); }".into(),
        )]);
        assert!(!found.iter().any(|f| f.rule == "no-silent-loss"));
    }

    #[test]
    fn closures_and_loops() {
        // A by-move capture consumes; a loop body alone does not satisfy
        // the fall-through path.
        assert!(run("fn f(ex: &E, p: Parcel) { ex.spawn(move || { run(p); }); }").is_empty());
        let found = run("fn f(q: &Q, p: Parcel) { while q.busy() { q.push(p); } }");
        assert_eq!(found.len(), 1, "{found:?}");
    }
}
