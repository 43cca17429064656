//! `unsafe-hygiene`: every `unsafe` block, fn, impl, and trait must be
//! preceded by a `// SAFETY:` comment.
//!
//! Why: the workspace policy is that `unsafe` lives behind two audited
//! boundaries — `px-poll` (system calls) and px-core's `queue` module
//! (the worker rings' slots); everything else denies or forbids
//! `unsafe_code`. An audit is only as good as its notes — an
//! `unsafe` whose soundness argument lives in someone's head rots the
//! moment the surrounding code changes. The rule accepts a `SAFETY:`
//! comment ending at most [`MAX_GAP`] lines above the `unsafe` token (or
//! trailing on the same line), so the argument stays adjacent to the
//! obligation.

use crate::{FileCtx, Finding};

/// How many lines above the `unsafe` token the end of the SAFETY comment
/// may sit. 3 allows an attribute or an `#[allow]` between comment and
/// item without letting the comment drift out of view.
pub const MAX_GAP: u32 = 3;

/// Run the rule over one file.
pub fn check(ctx: &FileCtx, findings: &mut Vec<Finding>) {
    // End lines of comment runs containing "SAFETY:". Consecutive line
    // comments coalesce into one run (a wrapped SAFETY argument counts
    // from its *last* line), so a long soundness note doesn't push its
    // own `SAFETY:` prefix out of the adjacency window.
    let comments: Vec<(u32, u32, bool)> = ctx
        .toks
        .iter()
        .filter(|t| t.is_comment())
        .map(|t| {
            let end = t.line + t.text.matches('\n').count() as u32;
            (t.line, end, t.text.contains("SAFETY:"))
        })
        .collect();
    let mut safety_lines: Vec<u32> = Vec::new();
    let mut i = 0usize;
    while i < comments.len() {
        let (_, mut end, mut has) = comments[i];
        let mut j = i + 1;
        while j < comments.len() && comments[j].0 <= end + 1 {
            end = end.max(comments[j].1);
            has |= comments[j].2;
            j += 1;
        }
        if has {
            safety_lines.push(end);
        }
        i = j;
    }
    for (i, t) in ctx.toks.iter().enumerate() {
        if !t.is_ident("unsafe") {
            continue;
        }
        let line = t.line;
        let covered = safety_lines
            .iter()
            .any(|&c| c <= line && line - c <= MAX_GAP);
        if !covered {
            let what = match crate::segment::next_sig(&ctx.toks, i + 1) {
                Some(n) if ctx.toks[n].is_ident("impl") => "unsafe impl",
                Some(n) if ctx.toks[n].is_ident("fn") => "unsafe fn",
                Some(n) if ctx.toks[n].is_ident("trait") => "unsafe trait",
                _ => "unsafe block",
            };
            findings.push(Finding {
                file: ctx.rel.clone(),
                line,
                rule: "unsafe-hygiene",
                msg: format!(
                    "{what} without an adjacent `// SAFETY:` comment (within {MAX_GAP} lines)"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::analyze_files;

    fn run(src: &str) -> Vec<String> {
        analyze_files(&[("crates/poll/src/lib.rs".into(), src.into())])
            .into_iter()
            .filter(|f| f.rule == "unsafe-hygiene")
            .map(|f| f.to_string())
            .collect()
    }

    #[test]
    fn undocumented_unsafe_is_flagged() {
        let found = run("fn f() { let x = unsafe { g() }; }");
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("unsafe block"));
        let found = run("unsafe impl Send for P {}");
        assert!(found[0].contains("unsafe impl"));
        let found = run("unsafe fn g() {}");
        assert!(found[0].contains("unsafe fn"));
    }

    #[test]
    fn documented_unsafe_passes() {
        assert!(run("// SAFETY: fd is owned and open.\nfn f() { unsafe { g() }; }").is_empty());
        // Trailing on the same line.
        assert!(run("fn f() { unsafe { g() } } // SAFETY: trailing").is_empty());
        // Multi-line comment run ending adjacent.
        assert!(
            run("// SAFETY: long argument\n// continuing here.\nunsafe impl Send for P {}")
                .is_empty()
        );
        // A wrapped SAFETY note longer than the gap window still counts:
        // the run's *end* line anchors the adjacency check.
        assert!(run(
            "// SAFETY: a long argument\n// line two\n// line three\n// line four\n\
             unsafe impl Send for P {}\nunsafe impl Sync for P {}"
        )
        .is_empty());
    }

    #[test]
    fn stale_comment_too_far_above_does_not_count() {
        let src = "// SAFETY: ancient note\n\n\n\n\nfn f() { unsafe { g() } }";
        assert_eq!(run(src).len(), 1);
    }

    #[test]
    fn unsafe_in_strings_and_comments_ignored() {
        assert!(run(r#"fn f() { let s = "unsafe { }"; } // not real unsafe"#).is_empty());
        assert!(run("// this mentions unsafe code\nfn f() {}").is_empty());
    }
}
