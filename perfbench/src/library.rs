//! The two library workloads: `paper-grid` (warm devices, one
//! `Device::try_transpile` per cell) and `kiloqubit-cold` (spec load plus
//! `try_transpile` with fresh caches per operation).

use crate::layers::{self, timed, Layers, Recorder, Recording};
use crate::{median, ms_since, pass_count, Args, Outcome, SETUP_REPS};
use perfbench::check::{check_structure, refutes_dropped_swap, verify};
use perfbench::inputs::{self, FAMILIES_84, MODULES};
use snailqc::circuit::Circuit;
use snailqc::core::device::Device;
use snailqc::sim::Verdict;
use snailqc::topology::CouplingGraph;
use snailqc::transpiler::{Pipeline, RoutingCache, TranspileReport, TranspileResult};
use snailqc::workloads::ghz;
use std::time::Instant;

/// Seconds of operations in one paper-grid pass on the reference machine
/// (2-vCPU Xeon VM, one rayon thread).
const GRID_PASS_SECONDS: f64 = 1.0;

/// Seconds of operations in one kiloqubit-cold pass on the reference machine.
const KILOQUBIT_PASS_SECONDS: f64 = 0.45;

/// What checking one pass's outputs found.
#[derive(Default)]
pub struct PassSummary {
    /// `verify_equivalent` seconds over the pass.
    pub verify_s: f64,
    /// Outputs proven equivalent.
    pub proved: usize,
    /// Outputs the verifier could neither prove nor refute.
    pub inconclusive: usize,
    /// Reports of the pass, in operation order.
    pub reports: Vec<TranspileReport>,
    /// Verification ms per call, indexed by `Engine` (stabilizer, dense,
    /// Pauli).
    pub engine_ms: [Vec<f64>; 3],
}

impl PassSummary {
    /// Checks one output and folds it in; a failed check rejects the run.
    /// `known` is the verdict on an identical routed output verified earlier
    /// in the pass, which is reused. While `refute` is set, the first proven
    /// GHZ output with a state-moving inserted SWAP must be refuted once that
    /// SWAP is removed. Returns the verdict.
    #[allow(clippy::too_many_arguments)]
    pub fn check(
        &mut self,
        outcome: &mut Outcome,
        refute: &mut bool,
        label: &str,
        source: &Circuit,
        graph: &CouplingGraph,
        result: &TranspileResult,
        known: Option<&Verdict>,
    ) -> Option<Verdict> {
        self.reports.push(result.report);
        let routed = match check_structure(source, graph, result) {
            Ok(routed) => routed,
            Err(e) => {
                outcome.reject(format!("{label}: {e}"));
                return None;
            }
        };
        let verdict = match known {
            Some(verdict) => verdict.clone(),
            None => match verify(source, &result.routed) {
                Ok(verified) => {
                    self.verify_s += verified.seconds;
                    self.engine_ms[verified.engine as usize].push(verified.seconds * 1e3);
                    verified.verdict
                }
                Err(e) => {
                    outcome.reject(format!("{label}: {e}"));
                    return None;
                }
            },
        };
        match &verdict {
            Verdict::Equivalent => {
                self.proved += 1;
                if *refute && *source == ghz(source.num_qubits()) {
                    match refutes_dropped_swap(source, &result.routed, &routed) {
                        Some(true) => *refute = false,
                        Some(false) => outcome.reject(format!(
                            "{label}: verifier accepts the output with an inserted SWAP removed"
                        )),
                        None => {}
                    }
                }
            }
            Verdict::Inconclusive(_) => self.inconclusive += 1,
            Verdict::NotEquivalent(_) => unreachable!("verify rejects refuted outputs"),
        }
        Some(verdict)
    }
}

/// One library output to check: label, source, group (outputs of one group
/// have identical routings), and the device graph with the result.
type Output<'a> = (
    &'a str,
    &'a Circuit,
    Option<usize>,
    Result<(&'a CouplingGraph, &'a TranspileResult), String>,
);

/// Checks one pass of library outputs. A group's routed output is verified
/// once; its siblings must route identically and share the verdict.
fn check_outputs<'a>(
    outcome: &mut Outcome,
    refute: &mut bool,
    outputs: impl Iterator<Item = Output<'a>>,
) -> PassSummary {
    let mut summary = PassSummary::default();
    let mut previous: Option<(usize, &TranspileResult, Verdict)> = None;
    for (label, source, group, output) in outputs {
        let (graph, result) = match output {
            Ok(output) => output,
            Err(e) => {
                outcome.reject(format!("{label}: {e}"));
                continue;
            }
        };
        let known = previous.as_ref().and_then(|(g, before, verdict)| {
            let same = Some(*g) == group
                && before.routed.circuit == result.routed.circuit
                && before.routed.initial_layout == result.routed.initial_layout
                && before.routed.final_layout == result.routed.final_layout;
            same.then_some(verdict)
        });
        let verdict = summary.check(outcome, refute, label, source, graph, result, known);
        if let (Some(group), Some(verdict)) = (group, verdict) {
            previous = Some((group, result, verdict));
        }
    }
    summary
}

/// Per-layer metrics both library workloads read the same way.
fn library_layers(
    outcome: &Outcome,
    summaries: &[PassSummary],
    rec: &Recording,
    pass_seconds: &[Vec<f64>; 2],
    input_2q_per_pass: usize,
) -> Layers {
    let mut layers = Layers::default();
    let traced = summaries.len() / 2;
    layers::set_program_counters(&mut layers, rec, traced);
    layers::set_us_per_2q(&mut layers, rec, traced * input_2q_per_pass);
    layers::set_overhead(&mut layers, &pass_seconds[0], &pass_seconds[1]);
    set_sim(&mut layers, &summaries[0]);
    layers.set("translate.basis_gates", outcome.basis_2q_gates as f64);
    layers
}

/// Folds the timed passes' summaries into the outcome: the counts of the
/// first pass, the mean verification seconds per pass, and a check that
/// every pass produced the same reports.
pub fn absorb(outcome: &mut Outcome, passes: &[PassSummary], refute_pending: bool) {
    if refute_pending {
        outcome.reject("no proven GHZ output with a state-moving SWAP to refute");
    }
    let Some(first) = passes.first() else {
        return outcome.reject("no timed pass ran");
    };
    outcome.proved = first.proved;
    outcome.swaps = first.reports.iter().map(|r| r.swap_count).sum();
    outcome.basis_2q_gates = first.reports.iter().map(|r| r.basis_gate_count).sum();
    outcome.critical_path_2q = first.reports.iter().map(|r| r.basis_gate_depth).sum();
    outcome.verify_s = passes.iter().map(|p| p.verify_s).sum::<f64>() / passes.len() as f64;
    if passes
        .iter()
        .any(|p| p.reports != first.reports || p.proved != first.proved)
    {
        outcome.reject("passes over the same inputs produced different outputs");
    }
}

/// Sets the sim-layer metrics from the first timed pass.
pub fn set_sim(layers: &mut Layers, first: &PassSummary) {
    layers.set("sim.stabilizer_ms", median(&first.engine_ms[0]));
    layers.set("sim.dense_ms", median(&first.engine_ms[1]));
    layers.set("sim.pauli_ms", median(&first.engine_ms[2]));
    layers.set("sim.inconclusive", first.inconclusive as f64);
}

/// Routes `circuit` twice through one fresh `RoutingCache`: the routing-stage
/// time of the cold run minus that of the warm one, and the distance bytes
/// left resident.
pub fn distance_probe(device: &Device, circuit: &Circuit, pipeline: &Pipeline) -> (f64, f64) {
    let cache = RoutingCache::new();
    let routing_ms = |cache: &RoutingCache| {
        pipeline
            .try_run_with_native_basis_cached(circuit, device.graph(), device.basis(), cache)
            .ok()
            .and_then(|r| r.trace.stage("routing").map(|s| s.micros / 1e3))
            .unwrap_or(0.0)
    };
    let cold = routing_ms(&cache);
    let warm = routing_ms(&cache);
    (cold - warm, cache.resident_distance_bytes() as f64)
}

pub fn set_distance(layers: &mut Layers, probes: &[(f64, f64)]) {
    let build: Vec<f64> = probes.iter().map(|p| p.0).collect();
    layers.set("distance.build_ms", median(&build));
    layers.set(
        "distance.resident_bytes",
        probes.iter().map(|p| p.1).fold(0.0, f64::max),
    );
}

/// Runs `passes` timed passes. `pass` runs the operations
/// of one pass and returns their latencies and whatever the checks need;
/// `check` checks one pass's outputs. In a traced run every second pass,
/// with its checks, records; the returned `Recorder` holds what it saw, and
/// the op seconds of untraced and traced passes are returned apart.
fn timed_passes<T>(
    passes: usize,
    args: &Args,
    outcome: &mut Outcome,
    mut pass: impl FnMut() -> (Vec<f64>, T),
    mut check: impl FnMut(&mut Outcome, T) -> PassSummary,
) -> (Vec<PassSummary>, Recorder, [Vec<f64>; 2]) {
    let recorder = Recorder::start();
    let mut summaries = Vec::new();
    let mut pass_seconds: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for pass_index in 0..passes {
        let traced = args.trace && pass_index % 2 == 1;
        let mut run_and_check = || {
            let (latencies, outputs) = pass();
            let summary = check(outcome, outputs);
            (latencies, summary)
        };
        let (latencies, summary) = if traced {
            recorder.pass(false, run_and_check)
        } else {
            run_and_check()
        };
        let seconds = latencies.iter().sum::<f64>() / 1e3;
        pass_seconds[traced as usize].push(seconds);
        outcome.completed += latencies.len();
        outcome.op_seconds += seconds;
        outcome.attempted += latencies.len();
        outcome.latencies_ms.extend(latencies);
        summaries.push(summary);
    }
    (summaries, recorder, pass_seconds)
}

/// `paper-grid`: the paper's sweep on warm devices.
pub fn paper_grid(args: &Args) -> Result<Outcome, String> {
    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut grid = None;
    for _ in 0..SETUP_REPS {
        drop(grid.take());
        let started = Instant::now();
        let g = inputs::paper_grid(args.seed)?;
        for cell in &g.cells {
            g.devices[cell.device]
                .try_transpile(&cell.circuit, &cell.pipeline)
                .map_err(|e| format!("{}: {e}", cell.label))?;
        }
        outcome.setup_s.push(started.elapsed().as_secs_f64());
        grid = Some(g);
    }
    let grid = grid.expect("SETUP_REPS > 0");

    let mut refute = true;
    let passes = pass_count(args.seconds, GRID_PASS_SECONDS, grid.cells.len());
    let (summaries, recorder, pass_seconds) = timed_passes(
        passes,
        args,
        &mut outcome,
        || {
            let mut latencies = Vec::with_capacity(grid.cells.len());
            let mut results = Vec::with_capacity(grid.cells.len());
            for cell in &grid.cells {
                let started = Instant::now();
                let result = grid.devices[cell.device].try_transpile(&cell.circuit, &cell.pipeline);
                latencies.push(ms_since(started));
                results.push(result);
            }
            (latencies, results)
        },
        |outcome, results| {
            let outputs = grid.cells.iter().zip(&results).map(|(cell, result)| {
                let graph = grid.devices[cell.device].graph();
                let output = result
                    .as_ref()
                    .map(|r| (graph, r))
                    .map_err(|e| e.to_string());
                (cell.label.as_str(), &cell.circuit, Some(cell.group), output)
            });
            check_outputs(outcome, &mut refute, outputs)
        },
    );
    absorb(&mut outcome, &summaries, refute);

    if args.trace {
        let rec = recorder.finish();
        let input_2q: usize = grid.cells.iter().map(|c| c.circuit.two_qubit_count()).sum();
        let mut layers = library_layers(&outcome, &summaries, &rec, &pass_seconds, input_2q);
        let loads: Vec<f64> = FAMILIES_84
            .iter()
            .chain(MODULES.iter())
            .map(|name| timed("bench.devices.load", || Device::from_catalog(name)).0)
            .collect();
        layers.set("devices.load_ms", median(&loads));
        // One cell per 84-qubit family, each on a cold cache.
        let probes: Vec<(f64, f64)> = FAMILIES_84
            .iter()
            .filter_map(|name| {
                grid.cells
                    .iter()
                    .find(|c| c.label.contains(&format!("@{name}/")))
            })
            .map(|c| distance_probe(&grid.devices[c.device], &c.circuit, &c.pipeline))
            .collect();
        set_distance(&mut layers, &probes);
        layers.write(&args.workload, args.seed, &rec.spans)?;
        outcome.layers = Some(layers);
    }
    Ok(outcome)
}

/// `kiloqubit-cold`: one-shot compiles on kiloqubit spec files.
pub fn kiloqubit_cold(args: &Args) -> Result<Outcome, String> {
    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut cells = Vec::new();
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        cells = inputs::kiloqubit(args.seed);
        // Warm-up pass: nothing stays cached between operations, but the
        // first touches of code and allocator pages are paid here.
        for cell in &cells {
            Device::from_spec_file(cell.spec)?
                .try_transpile(&cell.circuit, &cell.pipeline)
                .map_err(|e| format!("{}: {e}", cell.label))?;
        }
        outcome.setup_s.push(started.elapsed().as_secs_f64());
    }

    let mut load_ms = Vec::new();
    let mut refute = true;
    let passes = pass_count(args.seconds, KILOQUBIT_PASS_SECONDS, cells.len());
    let (summaries, recorder, pass_seconds) = timed_passes(
        passes,
        args,
        &mut outcome,
        || {
            let mut latencies = Vec::with_capacity(cells.len());
            let mut outputs = Vec::with_capacity(cells.len());
            for cell in &cells {
                let started = Instant::now();
                let (ms, device) =
                    timed("bench.devices.load", || Device::from_spec_file(cell.spec));
                let output = device.and_then(|device| {
                    device
                        .try_transpile(&cell.circuit, &cell.pipeline)
                        .map(|result| (device, result))
                        .map_err(|e| e.to_string())
                });
                latencies.push(ms_since(started));
                load_ms.push(ms);
                outputs.push(output);
            }
            (latencies, outputs)
        },
        |outcome, outputs| {
            let outputs = cells.iter().zip(&outputs).map(|(cell, output)| {
                let output = output
                    .as_ref()
                    .map(|(device, r)| (device.graph(), r))
                    .map_err(String::clone);
                (cell.label.as_str(), &cell.circuit, None, output)
            });
            check_outputs(outcome, &mut refute, outputs)
        },
    );
    absorb(&mut outcome, &summaries, refute);
    if args.trace {
        let rec = recorder.finish();
        let input_2q: usize = cells.iter().map(|c| c.circuit.two_qubit_count()).sum();
        let mut layers = library_layers(&outcome, &summaries, &rec, &pass_seconds, input_2q);
        layers.set("devices.load_ms", median(&load_ms));
        let mut probes = Vec::new();
        for cell in &cells {
            let device = Device::from_spec_file(cell.spec)?;
            probes.push(distance_probe(&device, &cell.circuit, &cell.pipeline));
        }
        set_distance(&mut layers, &probes);
        layers.write(&args.workload, args.seed, &rec.spans)?;
        outcome.layers = Some(layers);
    }
    Ok(outcome)
}
