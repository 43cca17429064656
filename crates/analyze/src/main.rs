//! `px-analyze` binary: run the workspace invariant checker and exit
//! non-zero on findings. CI runs `cargo run -p px-analyze --release --
//! --workspace`; locally, run it from anywhere inside the repo.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            // The default; kept explicit so the CI invocation documents
            // its scope.
            "--workspace" => {}
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("px-analyze: --root needs a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "px-analyze [--workspace] [--root <dir>]\n\
                     Checks the workspace against the parallex invariant rules\n\
                     (lock-order, atomic-ordering, no-silent-loss, allow-syntax);\n\
                     see crates/analyze."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("px-analyze: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().expect("cwd");
            match px_analyze::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("px-analyze: no workspace root above {}", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };
    run(&root)
}

fn run(root: &Path) -> ExitCode {
    match px_analyze::analyze_workspace(root) {
        Ok(findings) if findings.is_empty() => {
            println!("px-analyze: 0 findings");
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                println!("{f}");
            }
            println!("px-analyze: {} finding(s)", findings.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("px-analyze: {e}");
            ExitCode::from(2)
        }
    }
}
