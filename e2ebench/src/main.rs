//! Command line of the end-to-end benchmark.
//!
//! ```text
//! e2ebench --workload <build-geolife|build-sharded-gauss|explore-geolife>
//!          [--seed <n>] --seconds <s> [--trace <0|1>]
//! ```
//!
//! Spill and catalog files go to `.bench_work/run-<pid>/` under the current
//! directory and are removed at exit; a traced run leaves its spans there
//! as `trace-<workload>-<seed>.json` (Chrome trace format). The last line
//! of standard output is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value", "unit"}}}`.

use e2ebench::workload::{Params, Workload};
use serde::Value;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: e2ebench --workload <build-geolife|build-sharded-gauss|explore-geolife> \
                     [--seed <n>] --seconds <s> [--trace <0|1>]";

/// Seed used when `--seed` is omitted; `spec.json` also names a held-out one.
const DEFAULT_SEED: u64 = 20_160_520;

struct Cli {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                seconds = Some(s).filter(|s| s.is_finite() && *s >= 0.0);
                seconds.ok_or_else(bad)?;
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Cli {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let base = PathBuf::from(".bench_work");
    let dir = base.join(format!("run-{}", std::process::id()));
    let params = Params::full(cli.seconds);
    let result = e2ebench::run(cli.workload, &params, cli.seed, cli.trace, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(json) = &out.trace_json {
        let path = base.join(format!("trace-{}-{}.json", cli.workload.name(), cli.seed));
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("writing {}: {e}", path.display());
        }
    }
    for problem in &out.problems {
        eprintln!("FAILED {problem}");
    }
    for (name, value, unit) in &out.metrics {
        println!("{name:<50} {value:>16.6} {unit}");
    }
    let record = Value::Object(vec![("record".into(), out.record)]);
    println!(
        "{}",
        serde_json::to_string(&record).expect("record serializes")
    );
    let metrics = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let metric = vec![
                ("value".into(), Value::Number(*value)),
                ("unit".into(), Value::String(unit.to_string())),
            ];
            (name.to_string(), Value::Object(metric))
        })
        .collect();
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(out.correct)),
        ("attempted".into(), Value::Number(out.attempted as f64)),
        ("failed".into(), Value::Number(out.failed as f64)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
    ExitCode::SUCCESS
}
