//! Throughput benchmark of the Lina simulator.
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     --workload lina_drift --seed 1 --seconds 25 --trace 0
//! ```
//!
//! One process runs one workload (see `README.md` in this directory).
//! It repeats the workload's fixed-size simulation until `--seconds`
//! have passed, checking every iteration's output and building the
//! set-up once more before each iteration for its median time. With
//! `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! instead replays each layer's public function on the simulated
//! traffic and prints the per-layer metrics. The last line of standard
//! output is one JSON object: `correct`, `attempted` and `failed`
//! (iterations, and iterations that panicked or failed their output
//! check) and `metrics`.

mod calib;
mod check;
mod replay;
mod run;
mod serve;
mod train;
mod workloads;

use std::process::ExitCode;

use crate::workloads::{Size, Workload};

/// Parsed command line.
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of the workload's inputs.
    pub seed: u64,
    /// How long to keep iterating.
    pub seconds: f64,
    /// Replay the layers and report per-layer metrics.
    pub trace: bool,
    /// Simulation size.
    pub size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = check::DEFAULT_SEED;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut size = Size::Full;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--size" => size = Size::parse(&value).ok_or_else(bad)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        size,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            eprintln!(
                "usage: simbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--size full|tiny]",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!("{}", run::run(&args));
    ExitCode::SUCCESS
}
