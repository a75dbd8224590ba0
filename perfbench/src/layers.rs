//! Per-layer metrics of a traced run.
//!
//! A traced run alternates untraced and traced passes over the same inputs.
//! In traced passes `snailqc-obs` records, the benchmark opens spans named
//! `bench.*` around its own calls into a layer's public functions, and the
//! program's existing spans (`pipeline.layout`, `pipeline.routing`,
//! `pipeline.translation`) and counters (`router.*`, `sim.gates_applied`,
//! `serve.device_pool.hits`) are read back. The run writes the Chrome trace
//! and the per-layer JSON to `perfbench/out/`.

use crate::{median, out_dir};
use snailqc::obs::{self, MetricsSnapshot, SpanEvent};
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-layer metrics, as named in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("devices.load_ms", "ms"),
    ("distance.build_ms", "ms"),
    ("distance.resident_bytes", "bytes"),
    ("layout.ms", "ms"),
    ("routing.ms", "ms"),
    ("routing.us_per_2q", "us"),
    ("routing.candidates_scored", "count"),
    ("routing.scratch_score_calls", "count"),
    ("routing.trials", "count"),
    ("translate.ms", "ms"),
    ("translate.basis_gates", "count"),
    ("sim.stabilizer_ms", "ms"),
    ("sim.dense_ms", "ms"),
    ("sim.pauli_ms", "ms"),
    ("sim.gates_applied", "count"),
    ("sim.inconclusive", "count"),
    ("qasm.parse_ms", "ms"),
    ("qasm.parse_mb_per_s", "MB/s"),
    ("qasm.emit_ms", "ms"),
    ("json.decode_ms", "ms"),
    ("json.decode_mb_per_s", "MB/s"),
    ("json.encode_ms", "ms"),
    ("serve.server_p50_ms", "ms"),
    ("serve.client_overhead_ms", "ms"),
    ("serve.memory_hits", "count"),
    ("serve.store_replayed", "count"),
    ("serve.device_pool_hits", "count"),
    ("serve.misses", "count"),
    ("store.appends", "count"),
    ("store.flush_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
];

/// The per-layer values of one traced run; a layer the workload does not
/// exercise reads 0.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Sets one metric.
    ///
    /// # Panics
    /// Panics on a name missing from [`PER_LAYER`], which is a bug here.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Every metric of [`PER_LAYER`], in order, with its unit and value.
    pub fn metrics(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, self.values.get(name).copied().unwrap_or(0.0)))
    }

    /// Writes the per-layer JSON and the Chrome trace of `spans` to
    /// `perfbench/out/<workload>-seed<seed>.{layers,trace}.json`.
    pub fn write(&self, workload: &str, seed: u64, spans: &[SpanEvent]) -> Result<(), String> {
        let dir = out_dir();
        let stem = format!("{workload}-seed{seed}");
        let body: Vec<String> = self
            .metrics()
            .map(|(name, unit, value)| {
                format!("  \"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let layers = format!("{{\n{}\n}}\n", body.join(",\n"));
        std::fs::write(dir.join(format!("{stem}.layers.json")), layers)
            .and_then(|()| {
                std::fs::write(
                    dir.join(format!("{stem}.trace.json")),
                    obs::chrome_trace(spans),
                )
            })
            .map_err(|e| format!("writing trace files: {e}"))
    }
}

/// Times `f` under a benchmark span named `name`, returning milliseconds.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (f64, T) {
    let _span = obs::span(name);
    let started = Instant::now();
    let value = f();
    (started.elapsed().as_secs_f64() * 1e3, value)
}

/// What the traced passes of a run recorded.
pub struct Recording {
    /// Every span of the traced passes (all threads).
    pub spans: Vec<SpanEvent>,
    /// Counter deltas over the traced passes.
    pub counters: Vec<(String, u64)>,
}

impl Recording {
    /// Durations in ms of every span named `name`.
    pub fn span_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect()
    }

    /// Median duration in ms of the spans named `name`.
    pub fn median_ms(&self, name: &str) -> f64 {
        median(&self.span_ms(name))
    }

    /// The delta of counter `name` over the traced passes.
    pub fn counter(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |&(_, v)| v as f64)
    }
}

/// Brackets the traced passes of a run: marks each traced pass with a
/// `bench.pass` span and keeps only spans that start inside one, so spans the
/// daemon's threads buffered outside traced passes are left out.
pub struct Recorder {
    before: MetricsSnapshot,
}

impl Recorder {
    /// Drops spans recorded so far and snapshots the counters.
    pub fn start() -> Self {
        let _ = obs::take_spans();
        Self {
            before: obs::snapshot(),
        }
    }

    /// Runs one traced pass under a `bench.pass` span with recording on.
    /// `keep_enabled` leaves recording on afterwards (the daemon needs it).
    pub fn pass<T>(&self, keep_enabled: bool, f: impl FnOnce() -> T) -> T {
        obs::enable();
        let value = {
            let _pass = obs::span("bench.pass");
            f()
        };
        if !keep_enabled {
            obs::disable();
        }
        value
    }

    /// Collects the spans (call after every recording thread has exited or
    /// flushed) and the counter deltas.
    pub fn finish(self) -> Recording {
        let counters = obs::snapshot().counter_deltas_since(&self.before);
        let all = obs::take_spans();
        let windows: Vec<(u64, u64)> = all
            .iter()
            .filter(|s| s.name == "bench.pass")
            .map(|s| (s.start_ns, s.start_ns + s.dur_ns))
            .collect();
        let spans = all
            .into_iter()
            .filter(|s| {
                windows
                    .iter()
                    .any(|&(a, b)| s.start_ns >= a && s.start_ns <= b)
            })
            .collect();
        Recording { spans, counters }
    }
}

/// Sets the router, translation and sim counters shared by every workload,
/// per traced pass.
pub fn set_program_counters(layers: &mut Layers, rec: &Recording, passes: usize) {
    let per_pass = |v: f64| v / passes.max(1) as f64;
    layers.set("layout.ms", rec.median_ms("pipeline.layout"));
    layers.set("routing.ms", rec.median_ms("pipeline.routing"));
    layers.set("translate.ms", rec.median_ms("pipeline.translation"));
    layers.set(
        "routing.candidates_scored",
        per_pass(rec.counter("router.swap_candidates_scored")),
    );
    layers.set(
        "routing.scratch_score_calls",
        per_pass(rec.counter("router.scratch_score_calls")),
    );
    layers.set("routing.trials", per_pass(rec.counter("router.trials_run")));
    layers.set(
        "sim.gates_applied",
        per_pass(rec.counter("sim.gates_applied")),
    );
}

/// `routing.us_per_2q`: routing span time over the input 2Q gates routed.
pub fn set_us_per_2q(layers: &mut Layers, rec: &Recording, routed_2q: usize) {
    let routing_us: f64 = rec.span_ms("pipeline.routing").iter().sum::<f64>() * 1e3;
    layers.set("routing.us_per_2q", routing_us / routed_2q.max(1) as f64);
}

/// `obs.trace_overhead_pct` from the op time of untraced and traced passes.
pub fn set_overhead(layers: &mut Layers, untraced_s: &[f64], traced_s: &[f64]) {
    let plain = median(untraced_s);
    layers.set(
        "obs.trace_overhead_pct",
        (median(traced_s) / plain - 1.0) * 100.0,
    );
}
