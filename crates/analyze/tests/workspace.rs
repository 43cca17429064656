//! Tier-1 gate: the real workspace has zero findings, and every
//! suppression in it obeys the line-level-only policy.

use std::path::Path;

fn workspace_root() -> std::path::PathBuf {
    // crates/analyze/ -> workspace root.
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    px_analyze::find_workspace_root(here).expect("workspace root above crates/analyze")
}

#[test]
fn workspace_has_zero_findings() {
    let findings = px_analyze::analyze_workspace(&workspace_root()).expect("scan");
    assert!(
        findings.is_empty(),
        "px-analyze found {} violation(s):\n{}",
        findings.len(),
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn scan_covers_the_product_crates() {
    // The zero-findings gate is only meaningful if the scan actually sees
    // the code it guards: the unsafe boundaries (px-poll, px-core's
    // queue module), the scheduler, and the transports must all be in
    // scope, and the vendored tree must not be.
    let root = workspace_root();
    for must_exist in [
        "crates/poll/src/lib.rs",
        "crates/core/src/queue.rs",
        "crates/core/src/sched.rs",
        "crates/core/src/net/tcp.rs",
        "crates/core/src/net/inproc.rs",
        "crates/core/src/trace.rs",
        "crates/core/src/stats.rs",
    ] {
        assert!(
            root.join(must_exist).is_file(),
            "{must_exist} moved — update px-analyze"
        );
    }
    assert!(
        root.join("vendor").is_dir(),
        "vendor/ moved — the exclusion below is stale"
    );
}

#[test]
fn every_allow_is_line_level_and_justified() {
    // The policy is enforced three ways: the parser only *has* a
    // line-level syntax, the allow-syntax rule flags malformed or
    // justification-free attempts, and this test pins the current
    // suppression inventory so a PR adding one shows up in review.
    let root = workspace_root();
    let mut files = Vec::new();
    for dir in ["crates", "src", "examples"] {
        collect(&root.join(dir), &mut files);
    }
    let files: Vec<(String, String)> = files
        .into_iter()
        .map(|p| {
            let rel = p
                .strip_prefix(&root)
                .unwrap()
                .to_string_lossy()
                .replace('\\', "/");
            (rel, std::fs::read_to_string(&p).unwrap())
        })
        .collect();
    let allows = px_analyze::collect_allows(&files);
    for (file, a) in &allows {
        assert!(
            !a.why.trim().is_empty(),
            "{file}:{}: allow({}) without justification",
            a.line,
            a.rule
        );
    }
    // Inventory ceiling: suppressions are for documented, intentional
    // drops — if this number grows, the new allow's justification gets
    // reviewed, not waved through.
    assert!(
        allows.len() <= 10,
        "suppression inventory grew to {}: review the new allows\n{:?}",
        allows.len(),
        allows
            .iter()
            .map(|(f, a)| format!("{f}:{}: allow({}): {}", a.line, a.rule, a.why))
            .collect::<Vec<_>>()
    );
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        let name = e.file_name();
        let name = name.to_string_lossy();
        if p.is_dir() {
            if name == "target" || name == "vendor" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            collect(&p, out);
        } else if name.ends_with(".rs") {
            out.push(p);
        }
    }
}
