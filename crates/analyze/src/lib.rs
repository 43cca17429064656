//! px-analyze: a workspace invariant checker for the parallex runtime.
//!
//! The runtime's correctness rests on conventions no compiler checks: a
//! global mutex acquisition order, the transport contract's "no silent
//! loss" (a dying [`Parcel`] must route through `kill_parcel`) and
//! justified `Ordering::Relaxed`. This crate lexes the workspace sources
//! (hand-rolled lexer — the build is offline, there is no `syn`) and
//! enforces those conventions as three rules plus a meta-rule:
//!
//! | rule id          | invariant |
//! |------------------|-----------|
//! | `lock-order`     | the global lock-order graph is acyclic |
//! | `atomic-ordering`| `Relaxed` only on counters or with justification; seqlock pairing structurally intact |
//! | `no-silent-loss` | Parcel bindings in scheduler/`__sys` handler/transport files reach a kill/delivery sink |
//! | `allow-syntax`   | every suppression parses, names a rule and says why |
//!
//! Two conventions the toolchain can check are clippy's, not this
//! crate's: documented `unsafe` in the two modules allowed to have any
//! (`clippy::undocumented_unsafe_blocks` and `unsafe_op_in_unsafe_fn`,
//! denied in `px-poll` and on px-core's `queue` module) and no
//! poisoning `std::sync` locks (`disallowed-types` in the root
//! `clippy.toml`).
//!
//! Findings print as `file:line: rule-id: message`. Suppression is
//! **line-level only** — `// px-analyze: allow(rule-id): <why>` on the
//! finding's line or the line above — and the justification text is
//! mandatory (enforced by the `allow-syntax` meta-rule). There is
//! deliberately no file- or crate-wide suppression syntax.
//!
//! Used two ways: `cargo test -p px-analyze` (tier-1; asserts zero
//! findings over the workspace) and the `px-analyze` binary for local
//! runs and CI.
//!
//! [`Parcel`]: ../px_core/parcel/struct.Parcel.html

#![forbid(unsafe_code)]

pub mod lexer;
pub mod rules;
pub mod segment;

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use lexer::{lex, Token};
use segment::FnItem;

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path (`/`-separated on every platform).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (e.g. `lock-order`).
    pub rule: &'static str,
    /// Human-readable message.
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// Every rule id the suppression syntax accepts.
pub const RULE_IDS: &[&str] = &[
    "lock-order",
    "atomic-ordering",
    "no-silent-loss",
    "allow-syntax",
];

/// A parsed line-level suppression.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The rule being suppressed.
    pub rule: String,
    /// Line of the comment itself.
    pub line: u32,
    /// True when the comment is the first thing on its line — only then
    /// does the allow extend to the line below (a trailing allow covers
    /// its own line, nothing else).
    pub own_line: bool,
    /// The mandatory justification text.
    pub why: String,
}

/// One lexed source file plus derived structure, shared by all rules.
pub struct FileCtx {
    /// Workspace-relative path.
    pub rel: String,
    /// Token stream (comments included).
    pub toks: Vec<Token>,
    /// Function items.
    pub fns: Vec<FnItem>,
    /// `#[cfg(test)] mod` body token ranges.
    pub test_ranges: Vec<(usize, usize)>,
    /// Parsed line-level allows.
    pub allows: Vec<Allow>,
}

impl FileCtx {
    /// Build the per-file context from source text.
    pub fn new(rel: &str, src: &str) -> FileCtx {
        let toks = lex(src);
        let fns = segment::functions(&toks);
        let test_ranges = segment::cfg_test_ranges(&toks);
        let allows = parse_allows(&toks);
        FileCtx {
            rel: rel.to_string(),
            toks,
            fns,
            test_ranges,
            allows,
        }
    }

    /// True when token index `i` falls inside a `#[cfg(test)]` module.
    pub fn in_test(&self, i: usize) -> bool {
        self.test_ranges.iter().any(|r| r.0 <= i && i <= r.1)
    }

    /// True when `rule` is suppressed at `line` (allow on the same line,
    /// or an own-line allow on the line immediately above).
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        self.allows
            .iter()
            .any(|a| a.rule == rule && (a.line == line || (a.own_line && a.line + 1 == line)))
    }
}

/// True for rustdoc comments (`///`, `//!`, `/**`, `/*!`). Suppressions
/// are plain `//` comments only; docs may *show* the syntax as an example
/// without it becoming a live allow.
pub(crate) fn is_doc_comment(text: &str) -> bool {
    text.starts_with("///")
        || text.starts_with("//!")
        || text.starts_with("/**")
        || text.starts_with("/*!")
}

/// Parse `// px-analyze: allow(rule-id): why` comments. Malformed
/// attempts are left for the `allow-syntax` rule to report.
fn parse_allows(toks: &[Token]) -> Vec<Allow> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_comment() || is_doc_comment(&t.text) {
            continue;
        }
        if let Some((rule, why)) = parse_allow_comment(&t.text) {
            if RULE_IDS.contains(&rule.as_str()) && !why.is_empty() {
                let own_line = !toks[..i].iter().any(|p| p.line == t.line);
                out.push(Allow {
                    rule,
                    line: t.line,
                    own_line,
                    why,
                });
            }
        }
    }
    out
}

/// Split an allow comment into `(rule, justification)`; `None` when the
/// comment does not mention px-analyze at all.
pub(crate) fn parse_allow_comment(text: &str) -> Option<(String, String)> {
    let at = text.find("px-analyze:")?;
    let rest = text[at + "px-analyze:".len()..].trim_start();
    let rest = rest.strip_prefix("allow(")?;
    let close = rest.find(')')?;
    let rule = rest[..close].trim().to_string();
    let tail = rest[close + 1..].trim_start();
    let why = tail.strip_prefix(':').map(|w| w.trim().to_string())?;
    Some((rule, why))
}

/// Analyze a set of `(workspace-relative path, source)` pairs. This is
/// the whole pipeline minus the filesystem: fixture tests feed synthetic
/// files through it, [`analyze_workspace`] feeds the real tree.
pub fn analyze_files(files: &[(String, String)]) -> Vec<Finding> {
    let ctxs: Vec<FileCtx> = files
        .iter()
        .map(|(rel, src)| FileCtx::new(rel, src))
        .collect();
    let mut findings = Vec::new();
    for ctx in &ctxs {
        rules::atomic_ordering::check(ctx, &ctxs, &mut findings);
        rules::silent_loss::check(ctx, &mut findings);
        rules::allow_syntax::check(ctx, &mut findings);
    }
    rules::lock_order::check(&ctxs, &mut findings);
    // Apply line-level allows.
    let by_file: BTreeMap<&str, &FileCtx> = ctxs.iter().map(|c| (c.rel.as_str(), c)).collect();
    findings.retain(|f| {
        by_file
            .get(f.file.as_str())
            .is_none_or(|c| !c.allowed(f.rule, f.line))
    });
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    findings.dedup();
    findings
}

/// Directories under the workspace root whose `.rs` files are analyzed.
/// Vendored stand-ins are excluded by construction (they reproduce
/// third-party crates and are pinned by their own tests); everything the
/// project authored — the unsafe in `px-poll` and px-core's `queue`
/// included — is in scope.
const SCAN_DIRS: &[&str] = &["crates", "src", "examples"];

/// Skip list *within* the scanned tree.
const SKIP_COMPONENTS: &[&str] = &["target", "vendor", "fixtures"];

/// Recursively collect workspace sources.
fn collect_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    for dir in SCAN_DIRS {
        let base = root.join(dir);
        if base.is_dir() {
            walk(&base, root, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<(String, String)>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_COMPONENTS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(&path, root, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            let src = std::fs::read_to_string(&path)?;
            out.push((rel, src));
        }
    }
    Ok(())
}

/// Locate the workspace root: walk up from `start` to the first directory
/// whose `Cargo.toml` contains a `[workspace]` table.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start.to_path_buf());
    while let Some(dir) = cur {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        cur = dir.parent().map(Path::to_path_buf);
    }
    None
}

/// Run every rule over the workspace rooted at `root`.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let files = collect_sources(root)?;
    Ok(analyze_files(&files))
}

/// The allows present across `files` (for policy tests: every allow is
/// line-level by construction, and each must carry a justification).
pub fn collect_allows(files: &[(String, String)]) -> Vec<(String, Allow)> {
    files
        .iter()
        .flat_map(|(rel, src)| {
            parse_allows(&lex(src))
                .into_iter()
                .map(move |a| (rel.clone(), a))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_comment_parsing() {
        assert_eq!(
            parse_allow_comment("// px-analyze: allow(no-silent-loss): noop parcels carry nothing"),
            Some(("no-silent-loss".into(), "noop parcels carry nothing".into()))
        );
        // Justification is mandatory.
        assert_eq!(
            parse_allow_comment("// px-analyze: allow(lock-order)"),
            None
        );
        assert_eq!(parse_allow_comment("// plain comment"), None);
    }

    #[test]
    fn allows_apply_to_same_and_next_line() {
        let src = "\
// px-analyze: allow(atomic-ordering): demo
let a = n.load(Ordering::Relaxed);
let b = n.load(Ordering::Relaxed); // px-analyze: allow(atomic-ordering): demo
let c = n.load(Ordering::Relaxed);
";
        let ctx = FileCtx::new("x.rs", src);
        assert!(ctx.allowed("atomic-ordering", 2));
        assert!(ctx.allowed("atomic-ordering", 3));
        assert!(!ctx.allowed("atomic-ordering", 4));
        assert!(!ctx.allowed("lock-order", 2));
    }

    #[test]
    fn workspace_root_discovery() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        assert!(root.join("crates").is_dir());
    }
}
