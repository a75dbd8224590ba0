//! `serve-mix`: one closed-loop client against an in-process daemon.
//!
//! The daemon (`snailqc::serve::Server`, one worker, a store file in a
//! temporary directory under `perfbench/out/`) answers the seeded request
//! list of `inputs::serve_mix`. Every response is checked against a one-shot
//! library transpile of the same parameters (its "twin"), which itself goes
//! through the output checker and the verifier.

use crate::layers::{self, timed, Layers, Recorder};
use crate::library::{distance_probe, set_distance, set_sim, PassSummary};
use crate::{median, ms_since, out_dir, pass_count, Args, Outcome, SETUP_REPS};
use perfbench::inputs::{self, DeviceRef, ServeRequest, TranspileRequest};
use serde::Value;
use snailqc::circuit::Circuit;
use snailqc::core::device::Device;
use snailqc::core::store::SweepStore;
use snailqc::serve::protocol::{object, parse_request, Client, RpcFailure};
use snailqc::serve::{circuit_digest, Bind, ServeConfig, Server};
use snailqc::sim::{verify_equivalent, Verdict};
use snailqc::transpiler::{
    LayoutStrategy, Pipeline, RoutedCircuit, RouterConfig, TranspileReport, TranspileResult,
};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

/// Seconds of operations in one serve-mix pass on the reference machine
/// (2-vCPU Xeon VM, one rayon thread, one daemon worker).
const PASS_SECONDS: f64 = 0.9;

/// Router trials every request asks for (the daemon's default).
const TRIALS: u64 = 4;

/// A running daemon, its client, and the files it owns.
struct Daemon {
    server: Server,
    client: Client,
    dir: PathBuf,
}

impl Daemon {
    fn start() -> Result<Self, String> {
        let dir = out_dir().join(format!("serve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let socket = dir.join("s.sock");
        let server = Server::spawn(ServeConfig {
            bind: Bind::Unix(socket.clone()),
            workers: 1,
            queue_capacity: 64,
            store: Some(dir.join("store.jsonl")),
        })?;
        let client = Client::connect_unix(&socket).map_err(|e| format!("connecting: {e}"))?;
        Ok(Self {
            server,
            client,
            dir,
        })
    }

    fn store_lines(&self) -> usize {
        std::fs::read_to_string(self.dir.join("store.jsonl")).map_or(0, |text| text.lines().count())
    }

    /// Drains the daemon, joins its threads (flushing their spans) and
    /// removes its directory.
    fn stop(self) -> Result<(), String> {
        drop(self.client);
        self.server.shutdown();
        self.server.join()?;
        std::fs::remove_dir_all(&self.dir)
            .map_err(|e| format!("removing {}: {e}", self.dir.display()))
    }
}

/// The `params` of a transpile request in pass `pass`.
fn params(req: &TranspileRequest, pass: u64) -> Result<Value, String> {
    let mut fields = vec![("source", Value::String(req.source.as_str().to_string()))];
    match req.device {
        DeviceRef::Catalog(name) => fields.push(("topology", Value::String(name.into()))),
        DeviceRef::SpecPath(path) => fields.push(("device", Value::String(path.into()))),
        DeviceRef::Inline(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let spec = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
            fields.push(("device", spec));
        }
    }
    if let Some(basis) = req.basis {
        fields.push(("basis", Value::String(basis.label().to_string())));
    }
    fields.push(("seed", Value::UInt(req.router_seed(pass))));
    fields.push(("trials", Value::UInt(TRIALS)));
    if req.emit {
        fields.push(("emit", Value::String("qasm2".into())));
    }
    Ok(object(fields))
}

/// A one-shot library transpile of a request's parameters.
struct Twin {
    report: TranspileReport,
    routed_digest: String,
    basis_digest: Option<String>,
    proven: bool,
    /// Kept for `emit` requests, whose output is checked against its layouts.
    result: Option<TranspileResult>,
}

/// Timings the twins record for the per-layer metrics.
#[derive(Default)]
struct TwinTimings {
    parse_ms: Vec<f64>,
    parse_bytes: usize,
    emit_ms: Vec<f64>,
    load_ms: Vec<f64>,
}

fn twin_device(device: DeviceRef, timings: &mut TwinTimings) -> Result<Device, String> {
    match device {
        DeviceRef::Catalog(name) => Device::from_catalog(name),
        DeviceRef::SpecPath(path) | DeviceRef::Inline(path) => {
            let (ms, device) = timed("bench.devices.load", || {
                // The daemon builds inline specs from their re-serialised text.
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                let text = match device {
                    DeviceRef::Inline(_) => serde_json::from_str(&text)
                        .and_then(|v| serde_json::to_string(&v))
                        .map_err(|e| format!("{path}: {e}"))?,
                    _ => text,
                };
                Device::from_spec_str(&text)
            });
            timings.load_ms.push(ms);
            device
        }
    }
}

/// Builds and checks the twin of `req` in pass `pass`.
fn build_twin(
    req: &TranspileRequest,
    pass: u64,
    summary: &mut PassSummary,
    outcome: &mut Outcome,
    refute: &mut bool,
    timings: &mut TwinTimings,
) -> Result<Twin, String> {
    let (ms, program) = timed("bench.qasm.parse", || snailqc::qasm::parse_any(&req.source));
    timings.parse_ms.push(ms);
    timings.parse_bytes += req.source.len();
    let circuit = program.map_err(|e| e.to_string())?.circuit;
    if circuit != *req.circuit {
        return Err("parsed source differs from the generated circuit".into());
    }
    let mut device = twin_device(req.device, timings)?;
    if let Some(basis) = req.basis {
        device = device.with_basis(basis);
    }
    let pipeline = Pipeline::builder()
        .layout(LayoutStrategy::Dense)
        .router(RouterConfig {
            trials: TRIALS as usize,
            seed: req.router_seed(pass),
            error_weight: 0.0,
            ..RouterConfig::default()
        })
        .build();
    let result = device
        .try_transpile(&circuit, &pipeline)
        .map_err(|e| e.to_string())?;
    let verdict = summary.check(
        outcome,
        refute,
        "twin",
        &circuit,
        device.graph(),
        &result,
        None,
    );
    let (ms, routed_digest) = timed("bench.qasm.emit", || circuit_digest(&result.routed.circuit));
    timings.emit_ms.push(ms);
    Ok(Twin {
        report: result.report,
        routed_digest,
        basis_digest: result.translated.as_ref().map(circuit_digest),
        proven: verdict == Some(Verdict::Equivalent),
        result: req.emit.then_some(result),
    })
}

/// Compares a response's report with the twin's.
fn report_matches(got: Option<&Value>, want: &TranspileReport) -> Result<(), String> {
    let got = got.ok_or("response has no report")?;
    let ints = [
        ("logical_qubits", want.logical_qubits),
        ("physical_qubits", want.physical_qubits),
        ("input_two_qubit_gates", want.input_two_qubit_gates),
        ("swap_count", want.swap_count),
        ("swap_depth", want.swap_depth),
        ("routed_two_qubit_gates", want.routed_two_qubit_gates),
        ("routed_two_qubit_depth", want.routed_two_qubit_depth),
        ("basis_gate_count", want.basis_gate_count),
        ("basis_gate_depth", want.basis_gate_depth),
    ];
    for (name, value) in ints {
        if got.get(name).and_then(Value::as_u64) != Some(value as u64) {
            return Err(format!(
                "report {name} differs from the one-shot transpile ({value})"
            ));
        }
    }
    let floats = [
        ("error_weight", want.error_weight),
        ("routed_edge_log_fidelity", want.routed_edge_log_fidelity),
        ("basis_edge_log_fidelity", want.basis_edge_log_fidelity),
    ];
    for (name, value) in floats {
        let ok = got
            .get(name)
            .and_then(Value::as_f64)
            .is_some_and(|v| (v - value).abs() <= 1e-9 * value.abs().max(1.0));
        if !ok {
            return Err(format!(
                "report {name} differs from the one-shot transpile ({value})"
            ));
        }
    }
    Ok(())
}

/// True when the QASM an `emit` request returned is equivalent to its source
/// under the twin's layouts (dense check: the device has 16 qubits).
fn emitted_is_equivalent(
    qasm: Option<&str>,
    source: &Circuit,
    twin: &TranspileResult,
    summary: &mut PassSummary,
) -> Result<bool, String> {
    let qasm = qasm.ok_or("emit response has no qasm")?;
    let circuit = snailqc::qasm::parse_any(qasm)
        .map_err(|e| format!("emitted qasm: {e}"))?
        .circuit;
    let emitted = RoutedCircuit {
        circuit,
        initial_layout: twin.routed.initial_layout.clone(),
        final_layout: twin.routed.final_layout.clone(),
        swap_count: twin.routed.swap_count,
    };
    let started = Instant::now();
    let verdict = verify_equivalent(source, &emitted);
    summary.verify_s += started.elapsed().as_secs_f64();
    Ok(verdict == Verdict::Equivalent)
}

/// One answered RPC.
struct Answer {
    latency_ms: f64,
    response: Result<Value, RpcFailure>,
}

/// The RPC method of a request.
fn method(req: &ServeRequest) -> &'static str {
    match req {
        ServeRequest::Stats => "stats",
        ServeRequest::Transpile(_) => "transpile",
    }
}

/// Sends every request of a pass, back to back, each frame built beforehand.
fn drive(client: &mut Client, requests: &[ServeRequest], frames: &[Value]) -> Vec<Answer> {
    requests
        .iter()
        .zip(frames)
        .map(|(req, params)| {
            let method = method(req);
            let params = params.clone();
            let started = Instant::now();
            let response = client.call(method, params);
            Answer {
                latency_ms: ms_since(started),
                response,
            }
        })
        .collect()
}

/// The params of every request in pass `pass`.
fn frames(requests: &[ServeRequest], pass: u64) -> Result<Vec<Value>, String> {
    requests
        .iter()
        .map(|req| match req {
            ServeRequest::Stats => Ok(object(vec![])),
            ServeRequest::Transpile(t) => params(t, pass),
        })
        .collect()
}

/// What the checks of one pass found beyond the [`PassSummary`].
#[derive(Default)]
struct PassFacts {
    failed: usize,
    proved: usize,
    swaps: usize,
    basis_2q_gates: usize,
    critical_path_2q: usize,
    server_ms: Vec<f64>,
    client_ms: Vec<f64>,
    cached: HashMap<String, usize>,
    /// Input 2Q gates and basis gates of the requests the daemon routed.
    miss_2q: usize,
    miss_basis_gates: usize,
}

/// Checks one pass's answers against the twins, building missing twins.
#[allow(clippy::too_many_arguments)]
fn check_pass(
    requests: &[ServeRequest],
    answers: &[Answer],
    pass: u64,
    twins: &mut HashMap<(usize, u64), Twin>,
    outcome: &mut Outcome,
    refute: &mut bool,
    timings: &mut TwinTimings,
) -> (PassSummary, PassFacts) {
    let mut summary = PassSummary::default();
    let mut facts = PassFacts::default();
    for (i, (req, answer)) in requests.iter().zip(answers).enumerate() {
        let label = format!("request {i} of pass {pass}");
        let value = match &answer.response {
            Ok(value) => value,
            Err(e) => {
                outcome.reject(format!("{label}: {e}"));
                continue;
            }
        };
        let ServeRequest::Transpile(req) = req else {
            if value.get("requests").is_none() {
                outcome.reject(format!("{label}: stats response has no request counters"));
            }
            continue;
        };
        let key = (i, req.router_seed(pass));
        let twin = match twins.entry(key) {
            Entry::Occupied(entry) => entry.into_mut(),
            Entry::Vacant(entry) => {
                match build_twin(req, pass, &mut summary, outcome, refute, timings) {
                    Ok(twin) => entry.insert(twin),
                    Err(e) => {
                        outcome.reject(format!("{label}: one-shot transpile: {e}"));
                        continue;
                    }
                }
            }
        };
        let digest = |name: &str| value.get(name).and_then(Value::as_str).map(str::to_string);
        if let Err(e) = report_matches(value.get("report"), &twin.report) {
            outcome.reject(format!("{label}: {e}"));
        }
        if digest("routed_digest").as_deref() != Some(twin.routed_digest.as_str())
            || digest("basis_digest") != twin.basis_digest
        {
            outcome.reject(format!(
                "{label}: digest differs from the one-shot transpile"
            ));
        }
        if let Some(result) = &twin.result {
            match emitted_is_equivalent(
                value.get("qasm").and_then(Value::as_str),
                &req.circuit,
                result,
                &mut summary,
            ) {
                Ok(true) => {}
                Ok(false) => facts.failed += 1,
                Err(e) => outcome.reject(format!("{label}: {e}")),
            }
        }
        facts.proved += twin.proven as usize;
        facts.swaps += twin.report.swap_count;
        facts.basis_2q_gates += twin.report.basis_gate_count;
        facts.critical_path_2q += twin.report.basis_gate_depth;
        facts.client_ms.push(answer.latency_ms);
        if let Some(micros) = value.get("micros").and_then(Value::as_f64) {
            facts.server_ms.push(micros / 1e3);
        }
        let cached = digest("cached").unwrap_or_default();
        if cached == "none" {
            facts.miss_2q += req.circuit.two_qubit_count();
            facts.miss_basis_gates += twin.report.basis_gate_count;
        }
        *facts.cached.entry(cached).or_default() += 1;
    }
    (summary, facts)
}

/// Runs the serve mix.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut daemon: Option<Daemon> = None;
    let mut requests = Vec::new();
    let mut warmup = Vec::new();
    for _ in 0..SETUP_REPS {
        if let Some(d) = daemon.take() {
            d.stop()?;
        }
        let started = Instant::now();
        requests = inputs::serve_mix(args.seed);
        let mut d = Daemon::start()?;
        warmup = drive(&mut d.client, &requests, &frames(&requests, 0)?);
        outcome.setup_s.push(started.elapsed().as_secs_f64());
        daemon = Some(d);
    }
    let mut daemon = daemon.expect("SETUP_REPS > 0");

    let mut twins = HashMap::new();
    let mut refute = true;
    let mut timings = TwinTimings::default();
    // The warm-up pass is checked too; its twins cover every repeat.
    let _ = check_pass(
        &requests,
        &warmup,
        0,
        &mut twins,
        &mut outcome,
        &mut refute,
        &mut timings,
    );

    let store_before = daemon.store_lines();
    let recorder = Recorder::start();
    let mut summaries = Vec::new();
    let mut facts = Vec::new();
    let mut pass_seconds: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut traced_facts = Vec::new();
    let mut json = (Vec::new(), Vec::new(), 0usize);
    let mut flush_ms = Vec::new();
    let side_store = daemon.dir.join("bench-store.jsonl");
    let mut side = SweepStore::open(&side_store);
    let passes = pass_count(args.seconds, PASS_SECONDS, requests.len()) as u64;
    for pass in 1..=passes {
        let traced = args.trace && pass % 2 == 0;
        let frames = frames(&requests, pass)?;
        let mut run_and_check = || {
            let answers = drive(&mut daemon.client, &requests, &frames);
            let checked = check_pass(
                &requests,
                &answers,
                pass,
                &mut twins,
                &mut outcome,
                &mut refute,
                &mut timings,
            );
            (answers, checked)
        };
        let (answers, (summary, pass_facts)) = if traced {
            recorder.pass(true, run_and_check)
        } else {
            run_and_check()
        };
        if traced {
            // The front end's own layers, timed by the benchmark on this
            // pass's exact request lines, outside the operations' timers.
            for (id, (req, params)) in requests.iter().zip(&frames).enumerate() {
                let frame = object(vec![
                    ("id", Value::UInt(id as u64)),
                    ("method", Value::String(method(req).into())),
                    ("params", params.clone()),
                ]);
                let (encode, line) = timed("bench.json.encode", || serde_json::to_string(&frame));
                let line = line.map_err(|e| e.to_string())?;
                let (decode, parsed) = timed("bench.json.decode", || parse_request(&line));
                parsed?;
                json.0.push(encode);
                json.1.push(decode);
                json.2 += line.len();
            }
            for (i, req) in requests.iter().enumerate() {
                let ServeRequest::Transpile(req) = req else {
                    continue;
                };
                if !req.fresh {
                    continue;
                }
                let report = twins[&(i, req.router_seed(pass))].report;
                side.insert(format!("{pass}/{i}"), report);
                let (ms, flushed) = timed("bench.store.flush", || side.flush());
                flushed.map_err(|e| format!("side store: {e}"))?;
                flush_ms.push(ms);
            }
        }
        let latencies: Vec<f64> = answers.iter().map(|a| a.latency_ms).collect();
        let seconds = latencies.iter().sum::<f64>() / 1e3;
        pass_seconds[traced as usize].push(seconds);
        outcome.completed += latencies.len() - pass_facts.failed;
        outcome.op_seconds += seconds;
        outcome.attempted += latencies.len();
        outcome.failed += pass_facts.failed;
        outcome.latencies_ms.extend(latencies);
        summaries.push(summary);
        if traced {
            traced_facts.push(facts.len());
        }
        facts.push(pass_facts);
        if !args.trace {
            // The daemon keeps recording; drop what this thread buffered.
            let _ = snailqc::obs::take_spans();
        }
    }
    let appended = daemon.store_lines() - store_before;
    daemon.stop()?;

    if refute {
        outcome.reject("no proven GHZ output with a state-moving SWAP to refute");
    }
    let first = &facts[0];
    outcome.proved = first.proved;
    outcome.swaps = first.swaps;
    outcome.basis_2q_gates = first.basis_2q_gates;
    outcome.critical_path_2q = first.critical_path_2q;
    outcome.verify_s = summaries.iter().map(|s| s.verify_s).sum::<f64>() / summaries.len() as f64;
    // Only emit requests count as failed (any other failure rejects the
    // run); their number may drop once emitted circuits are exact, but it
    // must be the same in every pass over the same requests.
    if facts.iter().any(|f| f.failed != first.failed) {
        outcome.reject("the emit requests failed a different number of times in different passes");
    }

    if args.trace {
        let rec = recorder.finish();
        let passes = summaries.len();
        let traced: Vec<&PassFacts> = traced_facts.iter().map(|&i| &facts[i]).collect();
        let per_traced = |v: f64| v / traced.len().max(1) as f64;
        let mut layers = Layers::default();
        layers::set_program_counters(&mut layers, &rec, passes);
        // Each miss is routed by the daemon and again by its twin.
        let routed_2q: usize = traced.iter().map(|f| 2 * f.miss_2q).sum();
        layers::set_us_per_2q(&mut layers, &rec, routed_2q);
        layers::set_overhead(&mut layers, &pass_seconds[0], &pass_seconds[1]);
        set_sim(&mut layers, &summaries[0]);
        layers.set(
            "translate.basis_gates",
            per_traced(traced.iter().map(|f| f.miss_basis_gates as f64).sum()),
        );
        layers.set("devices.load_ms", median(&timings.load_ms));
        layers.set("qasm.parse_ms", median(&timings.parse_ms));
        let parse_s: f64 = timings.parse_ms.iter().sum::<f64>() / 1e3;
        layers.set(
            "qasm.parse_mb_per_s",
            timings.parse_bytes as f64 / 1e6 / parse_s,
        );
        layers.set("qasm.emit_ms", median(&timings.emit_ms));
        layers.set("json.encode_ms", median(&json.0));
        layers.set("json.decode_ms", median(&json.1));
        let decode_s: f64 = json.1.iter().sum::<f64>() / 1e3;
        layers.set("json.decode_mb_per_s", json.2 as f64 / 1e6 / decode_s);
        let server: Vec<f64> = traced
            .iter()
            .flat_map(|f| f.server_ms.iter().copied())
            .collect();
        let client: Vec<f64> = traced
            .iter()
            .flat_map(|f| f.client_ms.iter().copied())
            .collect();
        layers.set("serve.server_p50_ms", median(&server));
        layers.set(
            "serve.client_overhead_ms",
            median(&client) - median(&server),
        );
        let cached = |kind: &str| {
            per_traced(
                traced
                    .iter()
                    .map(|f| f.cached.get(kind).copied().unwrap_or(0))
                    .sum::<usize>() as f64,
            )
        };
        layers.set("serve.memory_hits", cached("memory"));
        layers.set("serve.store_replayed", cached("store"));
        layers.set("serve.misses", cached("none"));
        layers.set(
            "serve.device_pool_hits",
            rec.counter("serve.device_pool.hits") / passes as f64,
        );
        layers.set("store.appends", appended as f64 / passes as f64);
        layers.set("store.flush_ms", median(&flush_ms));
        // Distance state of one fresh cache per spec-backed device.
        let mut probes = Vec::new();
        let mut seen = Vec::new();
        for req in &requests {
            if let ServeRequest::Transpile(req) = req {
                if matches!(req.device, DeviceRef::Catalog(_)) || seen.contains(&req.device) {
                    continue;
                }
                seen.push(req.device);
                let device = twin_device(req.device, &mut TwinTimings::default())?;
                let pipeline = Pipeline::builder().seed(req.seed).build();
                probes.push(distance_probe(&device, &req.circuit, &pipeline));
            }
        }
        set_distance(&mut layers, &probes);
        layers.write(&args.workload, args.seed, &rec.spans)?;
        outcome.layers = Some(layers);
    }
    Ok(outcome)
}
