//! The cbq benchmark harness.
//!
//! ```text
//! cbqbench --workload <circuit-quant|ic3-deep|serve-mixed> --seed <n>
//!          --seconds <s> --trace <0|1> --cbq <path to cbq> [--out <dir>]
//! ```
//!
//! Runs the workload's seeded job list in rounds for `--seconds`, checks
//! every verdict against the answer key, prints one JSON row per job and
//! then, as the last line, the result object. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` alternates untraced and traced rounds
//! and reports the per-layer metrics, writing the spans to
//! `<out>/trace-<workload>-<seed>.json`. Exits 1 on any verdict or trace
//! mismatch, 2 on bad usage.

mod common;
mod inproc;
mod jobs;
mod report;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use crate::common::num;
use crate::report::{RunReport, END_TO_END, PER_LAYER};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    cbq: Option<PathBuf>,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        cbq: None,
        out: PathBuf::from(".bench_out"),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--cbq" => args.cbq = Some(PathBuf::from(value)),
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn metrics_json(values: &BTreeMap<&'static str, f64>, table: &[(&str, &str)]) -> String {
    let fields: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", num(v))
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn run(args: &Args) -> Result<RunReport, String> {
    match args.workload.as_str() {
        "circuit-quant" => Ok(inproc::run(
            &jobs::circuit_quant(args.seed),
            args.seconds,
            args.trace,
            true,
        )),
        "ic3-deep" => Ok(inproc::run(
            &jobs::ic3_deep(args.seed),
            args.seconds,
            args.trace,
            false,
        )),
        "serve-mixed" => {
            let cbq = args.cbq.as_ref().ok_or("serve-mixed needs --cbq")?;
            serve::run(&jobs::serve_mixed(args.seed), args.seconds, args.trace, cbq)
        }
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("cbqbench: {e}");
            return ExitCode::from(2);
        }
    };
    let rep = match run(&args) {
        Ok(rep) => rep,
        Err(e) => {
            eprintln!("cbqbench: {e}");
            return ExitCode::from(2);
        }
    };
    for line in rep.row_lines() {
        println!("{line}");
    }
    if let Some(tr) = &rep.spans {
        let path = args
            .out
            .join(format!("trace-{}-{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(&args.out)
            .and_then(|()| std::fs::write(&path, tr.to_chrome_json()));
        if let Err(e) = written {
            eprintln!("cbqbench: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "cbqbench: {} spans written to {}",
            tr.mark(),
            path.display()
        );
    }
    for why in &rep.wrong {
        eprintln!("cbqbench: MISMATCH {why}");
    }
    eprintln!(
        "cbqbench: {} rounds of {} jobs, counters repeat across rounds: {}; \
         walls {:.3?} s, traced walls {:.3?} s",
        rep.rounds, rep.jobs_per_round, rep.counters_repeat, rep.walls, rep.traced_walls
    );
    let metrics = if args.trace {
        metrics_json(&rep.per_layer(), PER_LAYER)
    } else {
        metrics_json(&rep.end_to_end(), END_TO_END)
    };
    let correct = rep.wrong.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        rep.attempted, rep.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
