//! `pxmark` — the repo's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! pxmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (the driver's form)
//! pxmark run [--seed n] [--seconds s] [--runs r] [--sets k] [--smoke]
//! pxmark compare <a.json> <b.json>
//! pxmark manifest                                                   print BENCHMARK.json
//! ```
//!
//! The runtime is touched only through its public API.

mod bench;
mod catalog;
mod compare;
mod json;
mod ledger;
mod probes;
mod procstat;
mod run;
mod spans;
mod summary;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

/// `benchmark/out/`: next to the manifest `cargo run` was pointed at.
fn out_dir() -> PathBuf {
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest_dir).join("out")
}

/// `--name value` pairs and bare `--flag`s, in any order.
struct Flags(Vec<String>);

impl Flags {
    fn value<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        let Some(i) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if i + 1 >= self.0.len() {
            return Err(format!("{name} needs a value"));
        }
        let raw = self.0.remove(i + 1);
        self.0.remove(i);
        raw.parse()
            .map(Some)
            .map_err(|_| format!("{name}: cannot read `{raw}`"))
    }

    fn flag(&mut self, name: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != name);
        self.0.len() != before
    }

    fn done(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument `{extra}`")),
        }
    }
}

fn one_run(mut flags: Flags) -> Result<i32, String> {
    let name: String = flags.value("--workload")?.ok_or("--workload is required")?;
    let spec = workloads::find(&name).ok_or_else(|| {
        let names: Vec<_> = workloads::ALL.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (have: {})", names.join(", "))
    })?;
    let seconds: f64 = flags
        .value("--seconds")?
        .unwrap_or(catalog::RUN_SECONDS as f64);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }
    let trace: u8 = flags.value("--trace")?.unwrap_or(0);
    let req = bench::Request {
        spec,
        seed: flags.value("--seed")?.unwrap_or(1),
        seconds,
        traced: match trace {
            0 => false,
            1 => true,
            n => return Err(format!("--trace must be 0 or 1, got {n}")),
        },
        smoke: flags.flag("--smoke"),
    };
    flags.done()?;
    let report = bench::run(&req);
    for (name, (value, unit)) in &report.metrics {
        println!("{name} {unit} {value}");
    }
    println!("{}{}", run::DETAIL_PREFIX, report.detail.render());
    println!("{}", report.result_line().render());
    Ok(0)
}

fn dispatch(args: Vec<String>) -> Result<i32, String> {
    let Some(first) = args.first() else {
        return Err("no arguments; see benchmark/README.md".into());
    };
    match first.as_str() {
        workloads::tcp_open::RANK1_ARG => workloads::tcp_open::serve_rank1(&args[1..]).map(|()| 0),
        "run" => {
            let mut flags = Flags(args[1..].to_vec());
            let smoke = flags.flag("--smoke");
            let opts = run::Options {
                seed: flags.value("--seed")?.unwrap_or(1),
                seconds: flags
                    .value("--seconds")?
                    .unwrap_or(catalog::RUN_SECONDS as f64),
                smoke,
                runs: flags
                    .value("--runs")?
                    .unwrap_or(if smoke { 1 } else { 3 })
                    .max(1),
                sets: flags.value("--sets")?.unwrap_or(1).max(1),
            };
            flags.done()?;
            run::run(&opts)
        }
        "compare" => match &args[1..] {
            [a, b] => run::compare_files(a, b),
            _ => Err("compare takes <a.json> <b.json>".into()),
        },
        "manifest" => {
            println!("{}", catalog::manifest().render());
            Ok(0)
        }
        _ => one_run(Flags(args)),
    }
}

fn main() -> ExitCode {
    match dispatch(std::env::args().skip(1).collect()) {
        Ok(code) => ExitCode::from(code as u8),
        Err(e) => {
            eprintln!("pxmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse_in_any_order_and_reject_leftovers() {
        let args = ["--trace", "1", "--smoke", "--seed", "42", "stray"];
        let mut f = Flags(args.map(String::from).to_vec());
        assert_eq!(f.value::<u64>("--seed"), Ok(Some(42)));
        assert_eq!(f.value::<u8>("--trace"), Ok(Some(1)));
        assert_eq!(f.value::<u64>("--seconds"), Ok(None));
        assert!(f.flag("--smoke") && !f.flag("--smoke"));
        assert!(f.done().is_err());
        let mut f = Flags(vec!["--seed".into(), "x".into()]);
        assert!(f.value::<u64>("--seed").is_err());
        let mut f = Flags(vec!["--seed".into()]);
        assert!(f.value::<u64>("--seed").is_err());
    }
}
