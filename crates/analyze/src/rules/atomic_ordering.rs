//! `atomic-ordering`: `Ordering::Relaxed` is allowed only on counter
//! fields (allowlisted below) or with an adjacent justification comment;
//! the `TraceRing` seqlock's Acquire/Release pairing is checked
//! structurally.
//!
//! Why: `Relaxed` is correct for statistics — a counter bumped here and
//! summed later needs atomicity, not ordering — and wrong nearly
//! everywhere else, where it silently removes the happens-before edge a
//! reader depends on. The failure mode is a rare hang or a torn
//! observation under load, exactly the class of bug the split-phase
//! runtime cannot afford. So: counters pass by name, everything else
//! must say *why* relaxed is enough, in a comment the next reader (and
//! this rule) can see.
//!
//! The seqlock check exists because `TraceRing` is the one place where
//! the workspace hand-rolls a publication protocol out of raw atomics:
//! writers claim a slot (`compare_exchange` Acquire), publish with a
//! `Release` store of the even sequence, and readers validate with an
//! `Acquire` load plus an `Acquire` fence before the re-read. Weakening
//! any leg keeps every test passing on x86 and loses events on ARM; the
//! rule pins the shape so a refactor cannot drop a leg unnoticed.

use crate::segment::{matching_brace, next_sig, receiver_name};
use crate::{FileCtx, Finding};
use std::collections::{HashMap, HashSet};

/// Atomic methods whose ordering arguments this rule audits.
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Counter fields allowed to use `Relaxed` without a per-site comment,
/// *beyond* the automatically allowlisted fields of `struct *Counters`
/// items. Every entry is a monotonic statistic: incremented in one
/// place, read for reporting, no reader decision depends on ordering
/// against other memory.
const EXTRA_COUNTERS: &[&str] = &[
    // RuntimeInner process bookkeeping (reported via StatsSnapshot).
    "processes_created",
    "processes_cancelled",
    "processes_reaped",
    // TraceState sampler/allocator tickets (uniqueness, not ordering).
    "seen",
    "next",
    // TraceRing recording-order ticket (slot claim provides ordering).
    "cursor",
    // Balancer spawn-diffusion round-robin ticket.
    "spawn_seq",
];

/// Collect the allowlist, across all files: every field declared
/// `: AtomicU64`/`AtomicUsize` inside a `struct` whose name ends in
/// `Counters`, and every row of a `counters! { … }` table (px-core's
/// `stats.rs` generates `LocalityCounters` from one, so the field names
/// exist only as its rows).
fn counter_fields(ctxs: &[FileCtx]) -> HashSet<String> {
    let mut out: HashSet<String> = EXTRA_COUNTERS.iter().map(|s| s.to_string()).collect();
    for ctx in ctxs {
        let toks = &ctx.toks;
        let mut i = 0usize;
        while i < toks.len() {
            if toks[i].is_ident("counters") {
                // `counters ! { row, row, … }` — the invocation, not the
                // `macro_rules! counters` definition (no `!` after it).
                let bang = next_sig(toks, i + 1).filter(|&b| toks[b].is_punct('!'));
                let open = bang
                    .and_then(|b| next_sig(toks, b + 1))
                    .filter(|&o| toks[o].is_punct('{'));
                if let Some(open) = open {
                    let close = matching_brace(toks, open);
                    for j in open + 1..close {
                        if toks[j].kind == crate::lexer::TokKind::Ident
                            && next_sig(toks, j + 1).is_some_and(|n| toks[n].is_punct(','))
                        {
                            out.insert(toks[j].text.clone());
                        }
                    }
                    i = close;
                }
            } else if toks[i].is_ident("struct") {
                if let Some(n) = next_sig(toks, i + 1) {
                    if toks[n].kind == crate::lexer::TokKind::Ident
                        && toks[n].text.ends_with("Counters")
                    {
                        if let Some(open) = (n + 1..toks.len()).find(|&j| toks[j].is_punct('{')) {
                            let close = matching_brace(toks, open);
                            let mut j = open + 1;
                            while j + 2 < close {
                                if toks[j].kind == crate::lexer::TokKind::Ident
                                    && toks[j + 1].is_punct(':')
                                    && toks[j + 2].kind == crate::lexer::TokKind::Ident
                                    && toks[j + 2].text.starts_with("Atomic")
                                {
                                    out.insert(toks[j].text.clone());
                                }
                                j += 1;
                            }
                            i = close;
                        }
                    }
                }
            }
            i += 1;
        }
    }
    out
}

/// Run the rule over one file (`ctxs` supplies the cross-file allowlist).
pub fn check(ctx: &FileCtx, ctxs: &[FileCtx], findings: &mut Vec<Finding>) {
    let allow = counter_fields(ctxs);
    let toks = &ctx.toks;

    // Line-adjacency maps for the justification scan.
    let mut relaxed_lines: HashSet<u32> = HashSet::new();
    let mut token_lines: HashSet<u32> = HashSet::new();
    let mut code_lines: HashSet<u32> = HashSet::new(); // non-comment tokens
    let mut comment_lines: HashMap<u32, bool> = HashMap::new(); // line -> mentions relaxed
    for t in toks {
        token_lines.insert(t.line);
        if t.is_comment() {
            let end = t.line + t.text.matches('\n').count() as u32;
            let mentions = t.text.to_ascii_lowercase().contains("relaxed");
            for l in t.line..=end {
                token_lines.insert(l);
                let e = comment_lines.entry(l).or_insert(false);
                *e |= mentions;
            }
        } else {
            code_lines.insert(t.line);
        }
        if t.is_ident("Relaxed") {
            relaxed_lines.insert(t.line);
        }
    }
    let justified = |line: u32| -> bool {
        // Trailing comment on the same line.
        if comment_lines.get(&line).copied().unwrap_or(false) {
            return true;
        }
        // A comment ending above, with only Relaxed-bearing lines,
        // comments, or blank lines in between (so one comment covers a
        // contiguous run of Relaxed operations). A run of own-line
        // comment lines is one justification block: any of its lines
        // may carry the "relaxed" mention.
        let mut l = line.saturating_sub(1);
        while l >= 1 {
            if let Some(&mentions) = comment_lines.get(&l) {
                if code_lines.contains(&l) {
                    // Trailing comment on a code line: stands alone.
                    return mentions;
                }
                // Walk the contiguous own-line comment block upward.
                loop {
                    match comment_lines.get(&l) {
                        Some(&m) if !code_lines.contains(&l) => {
                            if m {
                                return true;
                            }
                            if l == 1 {
                                return false;
                            }
                            l -= 1;
                        }
                        _ => return false,
                    }
                }
            }
            let blank = !token_lines.contains(&l);
            if !(blank || relaxed_lines.contains(&l)) {
                return false;
            }
            l -= 1;
        }
        false
    };

    for i in 0..toks.len() {
        if !toks[i].is_ident("Relaxed") || ctx.in_test(i) {
            continue;
        }
        // Must be the tail of `Ordering::Relaxed`.
        let is_path = i >= 3
            && toks[i - 1].is_punct(':')
            && toks[i - 2].is_punct(':')
            && toks[i - 3].is_ident("Ordering");
        if !is_path {
            continue;
        }
        // Locate the enclosing call: walk back to the unbalanced `(`.
        let mut depth = 0i64;
        let mut j = i as isize - 4;
        let mut call_open: Option<usize> = None;
        while j >= 0 {
            let t = &toks[j as usize];
            if t.is_punct(')') {
                depth += 1;
            } else if t.is_punct('(') {
                if depth == 0 {
                    call_open = Some(j as usize);
                    break;
                }
                depth -= 1;
            } else if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
                break;
            }
            j -= 1;
        }
        let site = toks[i].line;
        let (method, receiver) = match call_open {
            Some(open) => {
                let m = crate::segment::prev_sig(toks, open.saturating_sub(1));
                match m {
                    Some(m)
                        if toks[m].kind == crate::lexer::TokKind::Ident
                            && ATOMIC_METHODS.contains(&toks[m].text.as_str()) =>
                    {
                        (toks[m].text.clone(), receiver_name(toks, m))
                    }
                    _ => (String::new(), None),
                }
            }
            None => (String::new(), None),
        };
        if let Some(recv) = &receiver {
            if allow.contains(recv) {
                continue;
            }
        }
        if justified(site) {
            continue;
        }
        let what = match (&receiver, method.is_empty()) {
            (Some(r), false) => format!("`{r}.{method}(Ordering::Relaxed)`"),
            (None, false) => format!("`.{method}(Ordering::Relaxed)`"),
            _ => "`Ordering::Relaxed`".to_string(),
        };
        findings.push(Finding {
            file: ctx.rel.clone(),
            line: site,
            rule: "atomic-ordering",
            msg: format!(
                "{what} outside the counter allowlist needs an adjacent \
                 justification comment mentioning \"relaxed\""
            ),
        });
    }

    // ---- TraceRing seqlock structural check -------------------------------
    if ctx.rel.ends_with("core/src/trace.rs") {
        check_trace_ring(ctx, findings);
    }
}

/// The structural seqlock legs (see module docs). Missing legs are
/// reported at the `impl TraceRing` line.
fn check_trace_ring(ctx: &FileCtx, findings: &mut Vec<Finding>) {
    let toks = &ctx.toks;
    let Some(imp) = crate::segment::impls(toks)
        .into_iter()
        .find(|i| i.type_name == "TraceRing" && i.trait_name.is_none())
    else {
        findings.push(Finding {
            file: ctx.rel.clone(),
            line: 1,
            rule: "atomic-ordering",
            msg: "no `impl TraceRing` found: the seqlock structural check has lost its subject"
                .into(),
        });
        return;
    };
    let impl_line = toks[imp.body.0].line;
    let (open, close) = imp.body;
    let mut claim_acquire = false;
    let mut publish_release = false;
    let mut load_acquire = false;
    let mut acquire_fence = false;
    for i in open..=close {
        let t = &toks[i];
        if t.kind != crate::lexer::TokKind::Ident {
            continue;
        }
        // `fence(Ordering::Acquire)` anywhere in the impl.
        if t.text == "fence" {
            if let Some(ords) = call_orderings(toks, i) {
                if ords.first().is_some_and(|o| o == "Acquire") {
                    acquire_fence = true;
                }
            }
            continue;
        }
        if !ATOMIC_METHODS.contains(&t.text.as_str()) {
            continue;
        }
        if receiver_name(toks, i).as_deref() != Some("seq") {
            continue;
        }
        let Some(ords) = call_orderings(toks, i) else {
            continue;
        };
        match t.text.as_str() {
            "compare_exchange" | "compare_exchange_weak"
                if ords.first().is_some_and(|o| o == "Acquire") =>
            {
                claim_acquire = true;
            }
            "store" => {
                if ords.first().is_some_and(|o| o == "Release") {
                    publish_release = true;
                } else {
                    findings.push(Finding {
                        file: ctx.rel.clone(),
                        line: t.line,
                        rule: "atomic-ordering",
                        msg: format!(
                            "TraceRing seqlock: `seq.store` must publish with Release, found {:?}",
                            ords
                        ),
                    });
                }
            }
            // A Relaxed validation re-load is sound *only* under the
            // Acquire fence, which is checked below; only the Acquire
            // reader entry counts as a leg.
            "load" if ords.first().is_some_and(|o| o == "Acquire") => {
                load_acquire = true;
            }
            m if m.starts_with("fetch_") || m == "swap" => {
                findings.push(Finding {
                    file: ctx.rel.clone(),
                    line: t.line,
                    rule: "atomic-ordering",
                    msg: format!(
                        "TraceRing seqlock: unexpected `seq.{m}` — slot sequences are \
                         claimed by compare_exchange and published by store only"
                    ),
                });
            }
            _ => {}
        }
    }
    let legs: &[(bool, &str)] = &[
        (
            claim_acquire,
            "no `seq.compare_exchange(.., Acquire, ..)` slot claim",
        ),
        (publish_release, "no `seq.store(.., Release)` publication"),
        (load_acquire, "no `seq.load(Acquire)` reader entry"),
        (
            acquire_fence,
            "no `fence(Ordering::Acquire)` between data reads and seq validation",
        ),
    ];
    for (ok, msg) in legs {
        if !ok {
            findings.push(Finding {
                file: ctx.rel.clone(),
                line: impl_line,
                rule: "atomic-ordering",
                msg: format!("TraceRing seqlock pairing broken: {msg}"),
            });
        }
    }
}

/// The `Ordering::X` idents inside the argument list of the call whose
/// method ident is at `m_idx`, in order.
fn call_orderings(toks: &[crate::lexer::Token], m_idx: usize) -> Option<Vec<String>> {
    let open = next_sig(toks, m_idx + 1)?;
    if !toks[open].is_punct('(') {
        return None;
    }
    let mut depth = 0i64;
    let mut out = Vec::new();
    for i in open..toks.len() {
        let t = &toks[i];
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(out);
            }
        } else if t.is_ident("Ordering")
            && toks.get(i + 1).is_some_and(|a| a.is_punct(':'))
            && toks.get(i + 2).is_some_and(|a| a.is_punct(':'))
        {
            if let Some(o) = toks.get(i + 3) {
                out.push(o.text.clone());
            }
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use crate::analyze_files;

    fn run(src: &str) -> Vec<String> {
        analyze_files(&[("crates/core/src/x.rs".into(), src.into())])
            .into_iter()
            .filter(|f| f.rule == "atomic-ordering")
            .map(|f| f.to_string())
            .collect()
    }

    #[test]
    fn unjustified_relaxed_flagged() {
        let found = run("fn f(a: &AtomicBool) { a.store(true, Ordering::Relaxed); }");
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("a.store"));
    }

    #[test]
    fn counter_struct_fields_allowlisted() {
        let src = "\
struct FooCounters { pub parcels_sent: AtomicU64 }
fn f(c: &FooCounters) { c.parcels_sent.fetch_add(1, Ordering::Relaxed); }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn counters_table_rows_allowlisted() {
        let src = "\
macro_rules! counters { ($($name:ident,)*) => { struct C { $($name: AtomicU64,)* } }; }
counters! {
    /// Times a worker went to sleep.
    parks,
    steals,
}
fn f(c: &C, other: &AtomicU64) {
    c.parks.load(Ordering::Relaxed);
    c.steals.fetch_add(1, Ordering::Relaxed);
    other.load(Ordering::Relaxed);
}";
        let found = run(src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("other.load"));
    }

    #[test]
    fn adjacent_justification_accepted() {
        let src = "\
fn f(a: &AtomicU64) {
    // Relaxed: monotonic ticket, no ordering consumed.
    a.fetch_add(1, Ordering::Relaxed);
}";
        assert!(run(src).is_empty());
        // One comment covers a contiguous run of Relaxed lines.
        let src = "\
fn f(a: &AtomicU64, b: &AtomicU64) {
    // Relaxed: snapshot loads, torn totals acceptable.
    let x = a.load(Ordering::Relaxed);
    let y = b.load(Ordering::Relaxed);
    drop((x, y));
}";
        assert!(run(src).is_empty());
        // A non-Relaxed statement breaks the covered run.
        let src = "\
fn f(a: &AtomicU64, b: &AtomicU64) {
    // Relaxed: only covers x.
    let x = a.load(Ordering::Relaxed);
    let q = 1 + 1;
    let y = b.load(Ordering::Relaxed);
    drop((x, q, y));
}";
        assert_eq!(run(src).len(), 1);
    }

    #[test]
    fn multi_line_justification_accepted() {
        // A wrapped comment is one justification block even when the
        // "Relaxed" mention is not on its last line.
        let src = "\
fn f(a: &AtomicU64) {
    // Relaxed: a monotonic tally; the guard release below is what
    // publishes it to readers.
    a.fetch_add(1, Ordering::Relaxed);
}";
        assert!(run(src).is_empty(), "{:?}", run(src));
        // An unrelated trailing comment on the preceding code line does
        // not chain upward to borrow someone else's justification.
        let src = "\
fn f(a: &AtomicU64) {
    // Relaxed: covers only the run directly below.
    let q = compute(); // setup note
    a.fetch_add(1, Ordering::Relaxed);
    drop(q);
}";
        assert_eq!(run(src).len(), 1, "{:?}", run(src));
    }

    #[test]
    fn acquire_release_untouched() {
        assert!(run("fn f(a: &AtomicBool) { a.store(true, Ordering::Release); }").is_empty());
    }

    #[test]
    fn test_code_exempt() {
        let src = "#[cfg(test)]\nmod tests { fn t(a: &AtomicU64) { a.load(Ordering::Relaxed); } }";
        assert!(run(src).is_empty());
    }

    // ---- seqlock structural fixtures ----------------------------------

    fn run_trace(src: &str) -> Vec<String> {
        analyze_files(&[("crates/core/src/trace.rs".into(), src.into())])
            .into_iter()
            .filter(|f| f.rule == "atomic-ordering")
            .map(|f| f.msg)
            .collect()
    }

    /// A minimal, correctly paired seqlock skeleton.
    const GOOD_RING: &str = "\
impl TraceRing {
    fn record(&self, s: &Slot) {
        // Relaxed: ticket only; the claim CAS below orders the write.
        let n = self.cursor.fetch_add(1, Ordering::Relaxed);
        let seq0 = s.seq.load(Ordering::Acquire);
        // Relaxed failure ordering: a lost claim race means drop, not read.
        if s.seq.compare_exchange(seq0, seq0 + 1, Ordering::Acquire, Ordering::Relaxed).is_err() {
            return;
        }
        // Relaxed: data words ordered by the Release publication below.
        s.words[0].store(n, Ordering::Relaxed);
        s.seq.store(seq0 + 2, Ordering::Release);
    }
    fn snapshot(&self, s: &Slot) -> u64 {
        let s1 = s.seq.load(Ordering::Acquire);
        // Relaxed: the Acquire fence below orders these reads.
        let w = s.words[0].load(Ordering::Relaxed);
        std::sync::atomic::fence(Ordering::Acquire);
        // Relaxed: validation load; the fence provides the edge.
        let s2 = s.seq.load(Ordering::Relaxed);
        if s1 == s2 { w } else { 0 }
    }
}";

    #[test]
    fn wellformed_seqlock_passes() {
        let found = run_trace(GOOD_RING);
        assert!(found.is_empty(), "{found:?}");
    }

    /// Regression fixtures: deleting any leg of the protocol is caught.
    #[test]
    fn seqlock_broken_legs_caught() {
        // Publication weakened to Relaxed.
        let bad = GOOD_RING.replace(
            "s.seq.store(seq0 + 2, Ordering::Release)",
            "s.seq.store(seq0 + 2, Ordering::Relaxed)",
        );
        let found = run_trace(&bad);
        assert!(
            found
                .iter()
                .any(|m| m.contains("must publish with Release")),
            "{found:?}"
        );
        // Reader entry weakened.
        let bad = GOOD_RING.replace(
            "s.seq.load(Ordering::Acquire)",
            "s.seq.load(Ordering::Relaxed)",
        );
        let found = run_trace(&bad);
        assert!(
            found.iter().any(|m| m.contains("reader entry")),
            "{found:?}"
        );
        // Fence dropped.
        let bad = GOOD_RING.replace("std::sync::atomic::fence(Ordering::Acquire);", "");
        let found = run_trace(&bad);
        assert!(found.iter().any(|m| m.contains("fence")), "{found:?}");
        // Claim CAS replaced by a blind fetch_add.
        let bad = GOOD_RING.replace(
            "if s.seq.compare_exchange(seq0, seq0 + 1, Ordering::Acquire, Ordering::Relaxed).is_err() {\n            return;\n        }",
            "s.seq.fetch_add(1, Ordering::AcqRel);",
        );
        let found = run_trace(&bad);
        assert!(
            found.iter().any(|m| m.contains("compare_exchange")),
            "{found:?}"
        );
        // No impl at all.
        let found = run_trace("fn unrelated() {}");
        assert!(found.iter().any(|m| m.contains("lost its subject")));
    }
}
