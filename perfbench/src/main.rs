//! Runs one workload of the benchmark and prints its result as one JSON line.
//!
//! ```text
//! perfbench --workload <paper-grid|kiloqubit-cold|serve-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the line carries the end-to-end metrics; with `--trace 1`
//! the per-layer metrics of a traced run, whose Chrome trace and per-layer
//! JSON land in `perfbench/out/`. See `perfbench/README.md`.

mod layers;
mod library;
mod serve_mix;

use layers::Layers;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// End-to-end metrics, as named in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("verify_s", "s"),
    ("proved", "count"),
    ("swaps", "count"),
    ("basis_2q_gates", "count"),
    ("critical_path_2q", "count"),
    ("peak_rss_mb", "MB"),
];

/// Times each workload sets itself up; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Fewest operations a run times, so that at least ten latencies lie beyond
/// the 99th percentile.
const MIN_OPS: usize = 1000;

/// Command-line arguments.
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// What one run measured and found.
#[derive(Default)]
pub struct Outcome {
    /// False when any output failed a check other than the counted failures.
    pub correct: bool,
    /// Operations attempted in the timed phase.
    pub attempted: usize,
    /// Operations that failed (the serve-mix `emit` requests).
    pub failed: usize,
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Latency of every timed operation, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Operations completed in the timed passes.
    pub completed: usize,
    /// Seconds of operation time in the timed passes.
    pub op_seconds: f64,
    /// `verify_equivalent` seconds summed over the timed passes' outputs,
    /// per pass.
    pub verify_s: f64,
    /// Outputs proven equivalent in one timed pass.
    pub proved: usize,
    /// SWAPs, basis 2Q gates and critical-path basis gates summed over one
    /// timed pass.
    pub swaps: usize,
    /// See `swaps`.
    pub basis_2q_gates: usize,
    /// See `swaps`.
    pub critical_path_2q: usize,
    /// Per-layer metrics of a traced run.
    pub layers: Option<Layers>,
}

impl Outcome {
    /// Records a failed check; the run's result will say `correct: false`.
    pub fn reject(&mut self, what: impl std::fmt::Display) {
        if self.correct {
            eprintln!("perfbench: check failed: {what}");
        }
        self.correct = false;
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Milliseconds since `started`.
pub fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// Passes a run makes: about `seconds` of operations at `pass_seconds` per
/// pass (each workload's pass time on the reference machine), at least
/// enough for [`MIN_OPS`] operations, and at least two so that a traced run
/// has an untraced and a traced pass. The count depends only on the
/// arguments, so every run of a workload does the same work in whole passes
/// and its memory use and counts do not follow the machine's speed.
pub fn pass_count(seconds: f64, pass_seconds: f64, ops_per_pass: usize) -> usize {
    let for_time = (seconds / pass_seconds).ceil() as usize;
    let for_ops = MIN_OPS.div_ceil(ops_per_pass);
    for_time.max(for_ops).max(2)
}

/// Peak resident set (`VmHWM`) of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Directory for traces and the serve-mix socket and store.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("perfbench/out");
    std::fs::create_dir_all(&dir).expect("creating perfbench/out");
    dir
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = Some(value == "1"),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn metric(line: &mut String, name: &str, value: f64, unit: &str) {
    if !line.ends_with('{') {
        line.push_str(", ");
    }
    let value = if value.is_finite() { value } else { 0.0 };
    let _ = write!(
        line,
        "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
    );
}

fn result_line(outcome: &Outcome, trace: bool) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct, outcome.attempted, outcome.failed
    );
    if let (true, Some(layers)) = (trace, &outcome.layers) {
        for (name, unit, value) in layers.metrics() {
            metric(&mut line, name, value, unit);
        }
    } else {
        let values = [
            median(&outcome.setup_s),
            outcome.completed as f64 / outcome.op_seconds,
            median(&outcome.latencies_ms),
            quantile(&outcome.latencies_ms, 0.99),
            outcome.verify_s,
            outcome.proved as f64,
            outcome.swaps as f64,
            outcome.basis_2q_gates as f64,
            outcome.critical_path_2q as f64,
            peak_rss_mb(),
        ];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            metric(&mut line, name, value, unit);
        }
    }
    line.push_str("}}");
    line
}

fn main() {
    // One rayon worker: the stand-in spawns scoped OS threads per route, and
    // on a two-vCPU machine two threads raised latency without adding
    // throughput. Set before any thread exists.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Spec paths, the socket and the outputs are relative to the repository.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    if let Err(e) = std::env::set_current_dir(&root) {
        eprintln!("perfbench: entering {}: {e}", root.display());
        std::process::exit(1);
    }
    let outcome = match args.workload.as_str() {
        "paper-grid" => library::paper_grid(&args),
        "kiloqubit-cold" => library::kiloqubit_cold(&args),
        "serve-mix" => serve_mix::run(&args),
        other => Err(format!(
            "unknown workload `{other}` (paper-grid | kiloqubit-cold | serve-mix)"
        )),
    };
    match outcome {
        Ok(outcome) => println!("{}", result_line(&outcome, args.trace)),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
