//! Three conventions no compiler or clippy lint can hold, kept by
//! reading the source as lines of text — no lexer. Two are about atomics
//! (no lint gates on an `Ordering` argument):
//!
//! * `Ordering::Relaxed` is justified where it is written. A statistic is
//!   a `px_core::stats::Counter`, relaxed by construction with the reason
//!   in that impl; every other `Relaxed` has a comment mentioning
//!   "relaxed" on its line or in the comment block directly above, with
//!   nothing but other `Relaxed` lines and blank lines between (one
//!   comment covers a run). Relaxed is right for a value that publishes
//!   nothing and wrong nearly everywhere else, where it still passes
//!   every test on x86.
//! * The `TraceRing` seqlock keeps its four legs, pinned as the text they
//!   are written in: weakening or rewording one is a decision made here
//!   too.
//!
//! The third is px-core's one clock: its product code spells a sleep, a
//! timed channel wait or park, a thread spawn or a `BinaryHeap` only in
//! `crates/core/src/clock.rs`, the seam for timers and threads.
//!
//! A file's trailing `#[cfg(test)] mod` and test/bench directories are
//! exempt.

use std::path::Path;

/// A line as (code, comment), either possibly empty.
fn split(line: &str) -> (&str, &str) {
    let at = line.find("//").unwrap_or(line.len());
    (line[..at].trim(), &line[at..])
}

fn says_relaxed(comment: &str) -> bool {
    comment.to_ascii_lowercase().contains("relaxed")
}

/// The lines of `src` as (code, comment), up to its trailing test module.
fn product_lines(src: &str) -> Vec<(&str, &str)> {
    let mut lines: Vec<(&str, &str)> = src.lines().map(split).collect();
    let tests_at = lines
        .windows(2)
        .position(|w| w[0].0 == "#[cfg(test)]" && w[1].0.starts_with("mod "));
    lines.truncate(tests_at.unwrap_or(lines.len()));
    lines
}

/// 1-based numbers of the lines of `src` that spell `Ordering::Relaxed`
/// without a justification (see the module docs).
fn unjustified_relaxed(src: &str) -> Vec<usize> {
    let lines = product_lines(src);
    let relaxed = |code: &str| code.contains("Ordering::Relaxed");
    let justified = |at: usize| {
        if says_relaxed(lines[at].1) {
            return true;
        }
        for above in (0..at).rev() {
            match lines[above] {
                // Blank lines and other `Relaxed` lines extend the run.
                (code, "") if code.is_empty() || relaxed(code) => {}
                (_, "") => return false,
                // An own-line comment: any line of its block may say it.
                ("", _) => {
                    let block = lines[..=above].iter().rev();
                    return block
                        .take_while(|(code, comment)| code.is_empty() && !comment.is_empty())
                        .any(|(_, comment)| says_relaxed(comment));
                }
                // A trailing comment on a code line stands alone.
                (_, comment) => return says_relaxed(comment),
            }
        }
        false
    };
    (0..lines.len())
        .filter(|&at| relaxed(lines[at].0) && !justified(at))
        .map(|at| at + 1)
        .collect()
}

/// The seqlock's legs, as `crates/core/src/trace.rs` writes them: the
/// writer's Acquire claim and Release publication, the reader's Acquire
/// entry and the Acquire fence before its re-validation.
const SEQLOCK_LEGS: [&str; 4] = [
    "seq.compare_exchange(seq0, seq0 + 1, Ordering::Acquire, Ordering::Relaxed)",
    "seq.store(seq0 + 2, Ordering::Release)",
    "slot.seq.load(Ordering::Acquire)",
    "std::sync::atomic::fence(Ordering::Acquire);",
];

/// The legs `src` no longer spells.
fn missing_seqlock_legs(src: &str) -> Vec<&'static str> {
    let missing = SEQLOCK_LEGS.iter().filter(|leg| !src.contains(**leg));
    missing.copied().collect()
}

/// 1-based numbers of the lines of `src` whose code spells what px-core
/// spells only in its clock module.
fn timers_outside_the_clock(src: &str) -> Vec<usize> {
    let words = "thread::sleep recv_timeout park_timeout thread::spawn thread::Builder BinaryHeap";
    let spelled = |code: &str| words.split(' ').any(|word| code.contains(word));
    let lines = product_lines(src).into_iter().enumerate();
    lines
        .filter(|(_, line)| spelled(line.0))
        .map(|(at, _)| at + 1)
        .collect()
}

fn walk(dir: &Path, visit: &mut dyn FnMut(&Path, &str)) {
    for entry in std::fs::read_dir(dir).unwrap().map(Result::unwrap) {
        let (path, name) = (entry.path(), entry.file_name());
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !matches!(name.as_ref(), "target" | "tests" | "benches") {
                walk(&path, visit);
            }
        } else if name.ends_with(".rs") {
            visit(&path, &std::fs::read_to_string(&path).unwrap());
        }
    }
}

#[test]
fn every_relaxed_in_the_tree_is_justified_where_it_is_written() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (mut files, mut found) = (0, Vec::new());
    for dir in ["crates", "src", "examples"] {
        walk(&root.join(dir), &mut |path, src| {
            files += 1;
            let rel = path.strip_prefix(root).unwrap().display().to_string();
            let lines = unjustified_relaxed(src);
            found.extend(lines.into_iter().map(|n| format!("{rel}:{n}")));
        });
    }
    assert!(files > 80, "the scan lost its subject: {files} files");
    assert!(
        found.is_empty(),
        "`Ordering::Relaxed` without an adjacent comment saying why relaxed is enough \
         (a statistic should be a `Counter`):\n{}",
        found.join("\n")
    );
}

#[test]
fn the_trace_ring_seqlock_keeps_its_four_legs() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/core/src/trace.rs");
    let src = std::fs::read_to_string(path).unwrap();
    assert_eq!(missing_seqlock_legs(&src), Vec::<&str>::new());
}

#[test]
fn px_core_keeps_its_timers_and_threads_in_its_clock() {
    let (root, mut found) = (Path::new(env!("CARGO_MANIFEST_DIR")), Vec::new());
    walk(&root.join("crates/core/src"), &mut |path, src| {
        let lines = timers_outside_the_clock(src).into_iter();
        found.extend(lines.map(|n| format!("{}:{n}", path.display())));
    });
    assert!(found.len() >= 3, "the scan lost its subject: {found:?}");
    found.retain(|at| !at.contains("/clock.rs:"));
    assert!(
        found.is_empty(),
        "a timer outside `clock.rs`:\n{}",
        found.join("\n")
    );
}

// ---- the scans themselves, on fixture strings ----------------------------

#[test]
fn a_timer_or_thread_outside_the_clock_is_caught() {
    let src = "\
fn poll(rx: &Receiver<()>, q: BinaryHeap<u8>) {
    let _ = rx.recv_timeout(TICK); // a hand-rolled timer
    // std::thread::spawn named in a comment is fine, and so is yield_now
    std::thread::Builder::new().spawn(f);
    std::thread::park_timeout(TICK);
}
#[cfg(test)]
mod tests {
    fn t() { std::thread::sleep(TICK); }
}";
    assert_eq!(timers_outside_the_clock(src), [1, 2, 4, 5]);
}

#[test]
fn unjustified_relaxed_is_flagged() {
    let src = "fn f(a: &AtomicBool) {\n    a.store(true, Ordering::Relaxed);\n}";
    assert_eq!(unjustified_relaxed(src), [2]);
    // Other orderings are not this scan's business.
    let src = "fn f(a: &AtomicBool) { a.store(true, Ordering::Release); }";
    assert!(unjustified_relaxed(src).is_empty());
    // A comment about something else does not count, nor does the word
    // inside code.
    let src = "fn relaxed(a: &AtomicU64) {\n    // bump\n    a.fetch_add(1, Ordering::Relaxed);\n}";
    assert_eq!(unjustified_relaxed(src), [3]);
}

#[test]
fn adjacent_justification_is_accepted() {
    let src = "\
fn f(a: &AtomicU64, b: &AtomicU64) {
    // Relaxed: snapshot loads, torn totals acceptable.
    let x = a.load(Ordering::Relaxed);

    let y = b.load(Ordering::Relaxed);
    b.store(x + y, Ordering::Relaxed); // relaxed: as above
}";
    assert!(unjustified_relaxed(src).is_empty());
    // Any other statement ends the run a comment covers.
    let src = "\
fn f(a: &AtomicU64, b: &AtomicU64) {
    // Relaxed: only covers x.
    let x = a.load(Ordering::Relaxed);
    let q = 1 + 1;
    let y = b.load(Ordering::Relaxed);
}";
    assert_eq!(unjustified_relaxed(src), [5]);
}

#[test]
fn multi_line_justification_is_accepted() {
    // A wrapped comment is one block, wherever in it the word falls.
    let src = "\
fn f(a: &AtomicU64) {
    // Relaxed: a monotonic tally; the guard release below is what
    // publishes it to readers.
    a.fetch_add(1, Ordering::Relaxed);
}";
    assert!(unjustified_relaxed(src).is_empty());
    // A trailing comment on the code line above stands alone: it does
    // not borrow the block over it.
    let src = "\
fn f(a: &AtomicU64) {
    // Relaxed: covers only the run directly below.
    let q = compute(); // setup note
    a.fetch_add(1, Ordering::Relaxed);
}";
    assert_eq!(unjustified_relaxed(src), [4]);
}

#[test]
fn the_trailing_test_module_is_exempt() {
    let src = "\
fn f(a: &AtomicU64) {
    a.load(Ordering::Relaxed);
}
#[cfg(test)]
mod tests {
    fn t(a: &AtomicU64) { a.load(Ordering::Relaxed); }
}";
    assert_eq!(unjustified_relaxed(src), [2]);
}

#[test]
fn one_weakened_seqlock_leg_is_caught() {
    let good = SEQLOCK_LEGS.join("\n");
    assert!(missing_seqlock_legs(&good).is_empty());
    let weak = good.replace("seq0 + 2, Ordering::Release", "seq0 + 2, Ordering::Relaxed");
    assert_eq!(missing_seqlock_legs(&weak), [SEQLOCK_LEGS[1]]);
    let unfenced = good.replace(SEQLOCK_LEGS[3], "");
    assert_eq!(missing_seqlock_legs(&unfenced), [SEQLOCK_LEGS[3]]);
    assert_eq!(missing_seqlock_legs("fn unrelated() {}").len(), 4);
}
