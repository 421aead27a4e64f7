//! End-to-end and per-layer benchmark of the printed-microprocessors
//! reproduction. See `perfbench/README.md` for the workloads and metrics.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload reproduce --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.

// A benchmark, like the repository's benches: a panic is the failure
// report, and the run then exits nonzero without a result line.
#![allow(clippy::disallowed_methods)]

mod campaign;
mod clock;
mod inputs;
mod layers;
mod reproduce;
mod shop;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Command-line arguments of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["reproduce", "campaign", "shop"];

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err(format!("--seconds {value} outside (0, 120]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value} is not 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; expected one of {WORKLOADS:?}"));
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// Pins every environment variable the program reads, so the host
/// environment cannot change what is measured: every `PRINTED_*`
/// variable is removed (so `PRINTED_CKPT_DIR`, `PRINTED_BITSLICED`,
/// `PRINTED_WARM_START`, `PRINTED_TRACE_OUT` and `PRINTED_SHOP_*` take
/// their defaults and the campaign configs decide the engine), then
/// observability is set off and simulation to one thread. Runs before
/// any thread starts; traced runs turn observability on in-process.
fn pin_environment() {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("PRINTED_") {
            std::env::remove_var(key);
        }
    }
    std::env::set_var("PRINTED_OBS", "off");
    std::env::set_var("PRINTED_SIM_THREADS", "1");
}

/// A fresh state directory inside the working directory, removed when
/// the run ends.
pub struct StateDir(PathBuf);

impl StateDir {
    fn create(workload: &str) -> std::io::Result<StateDir> {
        let dir = Path::new(".bench_state").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(StateDir(dir))
    }

    /// A fresh, empty subdirectory.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("state directory {}: {e}", dir.display()));
        dir
    }
}

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_state");
    }
}

/// Runs `op` back to back until `seconds` of wall time have passed and
/// at least `min_ops` ops ran; returns each op's process CPU time in
/// milliseconds (see [`clock`]). `op` receives the op index.
pub fn timed_phase(seconds: f64, min_ops: usize, mut op: impl FnMut(usize)) -> Vec<f64> {
    let phase = Instant::now();
    let mut op_ms = Vec::new();
    while op_ms.len() < min_ops || phase.elapsed().as_secs_f64() < seconds {
        let started = clock::cpu_ns();
        op(op_ms.len());
        op_ms.push((clock::cpu_ns() - started) as f64 / 1e6);
    }
    op_ms
}

/// Median process CPU time of `reps` repetitions of `f`, seconds.
pub fn median_secs(reps: usize, mut f: impl FnMut(usize)) -> f64 {
    let secs: Vec<f64> = (0..reps)
        .map(|i| {
            let started = clock::cpu_ns();
            f(i);
            (clock::cpu_ns() - started) as f64 / 1e9
        })
        .collect();
    stats::median(&secs)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    pin_environment();
    let state = match StateDir::create(&args.workload) {
        Ok(state) => state,
        Err(e) => {
            eprintln!("perfbench: state directory: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "reproduce" => reproduce::run(&args),
        "campaign" => campaign::run(&args, &state),
        "shop" => shop::run(&args, &state),
        _ => unreachable!("parse_args admits only known workloads"),
    };
    drop(state);
    for problem in &report.problems {
        println!("check failed: {problem}");
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv("--workload shop --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a, Args { workload: "shop".to_string(), seed: 7, seconds: 10.0, trace: true });
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload shop --trace 2")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
    }
}
