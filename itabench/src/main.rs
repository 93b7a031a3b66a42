//! One benchmark for the ITA stack.
//!
//! ```text
//! itabench --workload <fig3-closed|serve-open|sub-churn> --seed <n> \
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload builds its inputs from `--seed` (the Fig 3 paper point:
//! WSJ-like corpus, 1,000 ten-term `k = 10` cosine queries, a 10,000-document
//! window), fills the window and registers the queries before any clock
//! starts, measures for at least `--seconds`, then replays the exact
//! operation sequence into the brute-force oracle. With `--trace 0` it
//! prints every end-to-end metric, with `--trace 1` every per-layer metric
//! (from a second, traced pass of the same loop); one line per metric, then
//! a JSON result line. See `README.md` in this directory.

mod fig3_closed;
mod gate;
mod inputs;
mod layers;
mod report;
mod serve_open;
mod stack;
mod stats;
mod sub_churn;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use cts_index::{Document, QueryId};

use crate::gate::OpLog;
use crate::report::{Metrics, END_TO_END, PER_LAYER, UNGATED};

/// Setups per run; `setup_s` is their median and the last one is measured.
pub const SETUP_REPEATS: usize = 5;
/// Every `SELF_CHECK_STRIDE`-th workload query is compared with the oracle
/// after setup and at the end of the run.
pub const SELF_CHECK_STRIDE: usize = 20;

const WORKLOADS: [&str; 3] = ["fig3-closed", "serve-open", "sub-churn"];
const USAGE: &str =
    "usage: itabench --workload <fig3-closed|serve-open|sub-churn> --seed <n> --seconds <s> --trace <0|1>";

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured duration, seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv
                .next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
            let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}\n{USAGE}");
            match flag.as_str() {
                "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
                "--workload" => return Err(bad(&"unknown workload")),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(bad(&"must be in (0, 600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => match value.as_str() {
                    "0" => trace = Some(false),
                    "1" => trace = Some(true),
                    _ => return Err(bad(&"must be 0 or 1")),
                },
                _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
            }
        }
        let missing = |name: &str| format!("missing {name}\n{USAGE}");
        Ok(Self {
            workload: workload.ok_or_else(|| missing("--workload"))?,
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.ok_or_else(|| missing("--trace"))?,
        })
    }
}

/// What a workload hands back: its metrics, operation counts and the
/// operation log for the correctness gate.
pub struct Outcome {
    /// Measured metrics.
    pub metrics: Metrics,
    /// Operations attempted (events offered or processed, registrations,
    /// deregistrations, result reads).
    pub attempted: u64,
    /// Operations that failed: sheds outside the ladder's last rung, `Retry`
    /// admissions, unknown deregistrations, shard faults.
    pub failed: u64,
    /// The recorded operation sequence.
    pub log: OpLog,
    /// Internal consistency violations (the run is then not correct).
    pub problems: Vec<String>,
}

/// Where a traced run writes its spans.
pub fn trace_path(args: &Args) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}-seed{}.trace.jsonl", args.workload, args.seed))
}

/// Runs `setup` [`SETUP_REPEATS`] times, dropping each result before the
/// next, sets `setup_s` to the median duration and returns the last result.
pub fn repeated_setup<T>(
    m: &mut Metrics,
    mut setup: impl FnMut() -> Result<(T, f64), String>,
) -> Result<T, String> {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        drop(kept.take());
        let (built, seconds) = setup()?;
        setups.push(seconds);
        kept = Some(built);
    }
    m.set(
        "setup_s",
        stats::median(&setups).expect("setups ran").value,
        format!("median of {SETUP_REPEATS} setups"),
    );
    Ok(kept.expect("setups ran"))
}

/// Logs a setup: the window fill, then the workload registered in order.
pub fn log_setup(log: &mut OpLog, fill: &[Document], ids: &[QueryId]) {
    for doc in fill {
        log.event(doc.id);
    }
    for (i, &id) in ids.iter().enumerate() {
        log.register(id, i);
    }
}

fn run(args: &Args) -> Result<String, String> {
    let outcome = match args.workload.as_str() {
        "fig3-closed" => fig3_closed::run(args)?,
        "serve-open" => serve_open::run(args)?,
        "sub-churn" => sub_churn::run(args)?,
        other => return Err(format!("unknown workload {other}")),
    };
    let start = Instant::now();
    let gate = outcome.log.replay(args.seed);
    match &gate {
        Ok(report) => eprintln!(
            "gate: ok, {} events replayed, {} result lists compared with the oracle ({:.1} s)",
            report.events,
            report.checks,
            start.elapsed().as_secs_f64()
        ),
        Err(divergence) => eprintln!("gate: FAILED: {divergence}"),
    }
    for problem in &outcome.problems {
        eprintln!("check: FAILED: {problem}");
    }
    let correct = gate.is_ok() && outcome.problems.is_empty();
    let (set, extra) = if args.trace {
        (PER_LAYER, &[][..])
    } else {
        (END_TO_END, UNGATED)
    };
    outcome
        .metrics
        .render(set, extra, correct, outcome.attempted, outcome.failed)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(text) => {
            println!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("itabench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse("--workload sub-churn --seed 17 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                workload: "sub-churn".into(),
                seed: 17,
                seconds: 10.0,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_or_missing_arguments() {
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload serve-open --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload serve-open --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload serve-open --seconds 1 --trace 0").is_err());
        assert!(parse("--workload serve-open --seed").is_err());
    }
}
