//! The benchmark's own output checker.
//!
//! Every check here recomputes what it compares from the source circuit, the
//! device graph and the counting rule of the basis gate; none of it calls the
//! router, the translator or the verifier, and none of it compares against a
//! stored copy of an earlier output.

use snailqc::circuit::Circuit;
use snailqc::decompose::BasisGate;
use snailqc::sim::{verify_equivalent, Verdict, DENSE_VERIFY_MAX_QUBITS};
use snailqc::topology::CouplingGraph;
use snailqc::transpiler::{RoutedCircuit, TranspileReport, TranspileResult};

/// What the replay of a routed circuit found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutedCheck {
    /// Indices (into the routed circuit) of the SWAPs the router inserted.
    pub inserted_swaps: Vec<usize>,
}

/// Replays `routed` from its initial layout and checks it against `source`:
/// every two-qubit gate lies on an edge of `graph`, inserted SWAPs act as
/// relabellings, each logical qubit sees exactly its source gate sequence, and
/// the replay ends at the recorded final layout.
///
/// A SWAP in the routed stream is taken as the source's own gate when it is the
/// next source instruction of both logical qubits it touches, and as an
/// inserted SWAP otherwise.
pub fn check_routed(
    source: &Circuit,
    graph: &CouplingGraph,
    routed: &RoutedCircuit,
) -> Result<RoutedCheck, String> {
    let n = source.num_qubits();
    let m = graph.num_qubits();
    if routed.circuit.num_qubits() != m {
        return Err(format!(
            "routed register has {} qubits, device has {m}",
            routed.circuit.num_qubits()
        ));
    }
    if routed.initial_layout.num_logical() < n || routed.final_layout.num_logical() < n {
        return Err("layouts do not cover every logical qubit".into());
    }
    let src = source.instructions();
    let mut sequence: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (k, inst) in src.iter().enumerate() {
        for &q in &inst.qubits {
            sequence[q].push(k);
        }
    }
    let mut next = vec![0usize; n];
    let mut at: Vec<usize> = (0..n).map(|q| routed.initial_layout.physical(q)).collect();
    let mut holder: Vec<Option<usize>> = vec![None; m];
    for (q, &p) in at.iter().enumerate() {
        if p >= m || holder[p].is_some() {
            return Err(format!(
                "initial layout puts logical {q} on taken or missing qubit {p}"
            ));
        }
        holder[p] = Some(q);
    }

    let mut inserted_swaps = Vec::new();
    for (i, inst) in routed.circuit.instructions().iter().enumerate() {
        if inst.qubits.iter().any(|&p| p >= m) {
            return Err(format!("routed gate {i} acts outside the device"));
        }
        if inst.qubits.len() == 2 && !graph.has_edge(inst.qubits[0], inst.qubits[1]) {
            return Err(format!(
                "routed gate {i} ({}) on {}–{} is not a device edge",
                inst.gate.name(),
                inst.qubits[0],
                inst.qubits[1]
            ));
        }
        let logical: Option<Vec<usize>> = inst.qubits.iter().map(|&p| holder[p]).collect();
        let source_index = logical.as_ref().and_then(|qs| {
            let k = *sequence[qs[0]].get(next[qs[0]])?;
            let same = qs.iter().all(|&q| sequence[q].get(next[q]) == Some(&k));
            (same && src[k].qubits == *qs && src[k].gate == inst.gate).then_some(k)
        });
        match (source_index, logical) {
            (Some(_), Some(qs)) => {
                for q in qs {
                    next[q] += 1;
                }
            }
            _ if inst.gate.is_swap() => {
                let (a, b) = (inst.qubits[0], inst.qubits[1]);
                holder.swap(a, b);
                for p in [a, b] {
                    if let Some(q) = holder[p] {
                        at[q] = p;
                    }
                }
                inserted_swaps.push(i);
            }
            _ => {
                return Err(format!(
                    "routed gate {i} ({} on {:?}) is not the next source gate of its qubits",
                    inst.gate.name(),
                    inst.qubits
                ))
            }
        }
    }
    for q in 0..n {
        if next[q] != sequence[q].len() {
            return Err(format!(
                "logical {q} ran {} of its {} source gates",
                next[q],
                sequence[q].len()
            ));
        }
        if at[q] != routed.final_layout.physical(q) {
            return Err(format!(
                "replay leaves logical {q} on {} but the final layout says {}",
                at[q],
                routed.final_layout.physical(q)
            ));
        }
    }
    if inserted_swaps.len() != routed.swap_count {
        return Err(format!(
            "replay counts {} inserted SWAPs, routed circuit claims {}",
            inserted_swaps.len(),
            routed.swap_count
        ));
    }
    Ok(RoutedCheck { inserted_swaps })
}

/// Checks a basis-translated circuit against the routed circuit it came from.
///
/// Every translated two-qubit gate must be the basis gate on a device edge.
/// On each physical qubit, the partners of its translated basis gates must
/// follow the routed two-qubit gates in order, each routed gate standing for
/// `basis.count_for_gate` basis gates on its edge (the paper's cost rule,
/// which an exact synthesis keeps). Single-qubit gates are not constrained,
/// so corrections between basis gates are allowed. The report's basis-gate
/// count and critical path must equal the checker's own recount and
/// longest-path computation on the translated circuit alone.
pub fn check_translated(
    routed: &Circuit,
    translated: &Circuit,
    graph: &CouplingGraph,
    basis: BasisGate,
    report: &TranspileReport,
) -> Result<(), String> {
    let m = graph.num_qubits();
    if translated.num_qubits() != m {
        return Err(format!(
            "translated register has {} qubits, device has {m}",
            translated.num_qubits()
        ));
    }
    let mut expected: Vec<Vec<usize>> = vec![Vec::new(); m];
    for inst in routed.instructions().iter().filter(|i| i.is_two_qubit()) {
        let (a, b) = (inst.qubits[0], inst.qubits[1]);
        for _ in 0..basis.count_for_gate(&inst.gate) {
            expected[a].push(b);
            expected[b].push(a);
        }
    }

    let basis_gate = basis.gate();
    let mut next = vec![0usize; m];
    let mut count = 0;
    let mut depth = vec![0usize; m];
    for (k, inst) in translated.instructions().iter().enumerate() {
        if inst.qubits.iter().any(|&p| p >= m) {
            return Err(format!("translated gate {k} acts outside the device"));
        }
        if !inst.is_two_qubit() {
            continue;
        }
        let (a, b) = (inst.qubits[0], inst.qubits[1]);
        if inst.gate != basis_gate || !graph.has_edge(a, b) {
            return Err(format!(
                "translated 2Q gate {k} is {} on {a}–{b}, not {} on an edge",
                inst.gate.name(),
                basis_gate.name()
            ));
        }
        for (p, partner) in [(a, b), (b, a)] {
            if expected[p].get(next[p]) != Some(&partner) {
                return Err(format!(
                    "translated 2Q gate {k} on {a}–{b} is not the next routed 2Q gate of qubit {p}"
                ));
            }
            next[p] += 1;
        }
        count += 1;
        let d = depth[a].max(depth[b]) + 1;
        depth[a] = d;
        depth[b] = d;
    }
    if let Some(p) = (0..m).find(|&p| next[p] != expected[p].len()) {
        return Err(format!(
            "qubit {p} has {} translated basis gates, its routed 2Q gates stand for {}",
            next[p],
            expected[p].len()
        ));
    }
    let longest = depth.into_iter().max().unwrap_or(0);
    if count != report.basis_gate_count || longest != report.basis_gate_depth {
        return Err(format!(
            "report says {} basis gates, critical path {}; recount gives {count}, {longest}",
            report.basis_gate_count, report.basis_gate_depth
        ));
    }
    Ok(())
}

/// The verifier's finding on one routed output.
#[derive(Debug, Clone)]
pub struct Verified {
    /// The verdict, never `NotEquivalent` (that is an error).
    pub verdict: Verdict,
    /// The engine `verify_equivalent` dispatched to.
    pub engine: Engine,
    /// Seconds spent in `verify_equivalent`.
    pub seconds: f64,
}

/// The verification engines of `snailqc-sim`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Stabilizer-tableau proof (Clifford circuits).
    Stabilizer = 0,
    /// Dense statevector comparison (small registers).
    Dense = 1,
    /// Pauli spot checks (everything else; can refute, cannot prove).
    Pauli = 2,
}

impl Engine {
    /// The engine `verify_equivalent` picks, by its documented dispatch rule.
    pub fn for_output(source: &Circuit, routed: &RoutedCircuit) -> Self {
        if source.is_clifford() && routed.circuit.is_clifford() {
            Engine::Stabilizer
        } else if routed.circuit.num_qubits() <= DENSE_VERIFY_MAX_QUBITS {
            Engine::Dense
        } else {
            Engine::Pauli
        }
    }
}

/// Runs the checker on one pipeline result: the replay, the SWAP count of
/// the report, and the translation when a basis was used.
pub fn check_structure(
    source: &Circuit,
    graph: &CouplingGraph,
    result: &TranspileResult,
) -> Result<RoutedCheck, String> {
    let routed = check_routed(source, graph, &result.routed)?;
    if result.report.swap_count != routed.inserted_swaps.len() {
        return Err(format!(
            "report says {} SWAPs, replay found {}",
            result.report.swap_count,
            routed.inserted_swaps.len()
        ));
    }
    match (result.report.basis, &result.translated) {
        (Some(basis), Some(translated)) => check_translated(
            &result.routed.circuit,
            translated,
            graph,
            basis,
            &result.report,
        )?,
        (None, None) => {
            if result.report.basis_gate_count != 0 || result.report.basis_gate_depth != 0 {
                return Err("untranslated result reports basis gates".into());
            }
        }
        _ => return Err("report basis and translated circuit disagree".into()),
    }
    Ok(routed)
}

/// Runs `verify_equivalent` on a routed output, which must never refute it.
pub fn verify(source: &Circuit, routed: &RoutedCircuit) -> Result<Verified, String> {
    let started = std::time::Instant::now();
    let verdict = verify_equivalent(source, routed);
    let seconds = started.elapsed().as_secs_f64();
    if let Verdict::NotEquivalent(why) = &verdict {
        return Err(format!("verifier refutes the routed output: {why}"));
    }
    Ok(Verified {
        verdict,
        engine: Engine::for_output(source, routed),
        seconds,
    })
}

/// A copy of `routed` with the inserted SWAP at routed index `swap` removed
/// and the layouts left as the router recorded them.
pub fn without_gate(routed: &RoutedCircuit, swap: usize) -> RoutedCircuit {
    let mut circuit = Circuit::new(routed.circuit.num_qubits());
    circuit.add_global_phase(routed.circuit.global_phase());
    for (i, inst) in routed.circuit.instructions().iter().enumerate() {
        if i != swap {
            circuit.push_instruction(inst.clone());
        }
    }
    RoutedCircuit {
        circuit,
        initial_layout: routed.initial_layout.clone(),
        final_layout: routed.final_layout.clone(),
        swap_count: routed.swap_count.saturating_sub(1),
    }
}

/// The last inserted SWAP that exchanges a qubit some earlier gate acted on
/// with one no gate has touched yet.
///
/// On a GHZ source every touched qubit holds part of the entangled state
/// and every untouched one is still |0⟩, so removing such a SWAP moves part
/// of the state: the copy cannot be equivalent to the source.
pub fn state_moving_swap(routed: &RoutedCircuit, check: &RoutedCheck) -> Option<usize> {
    let mut touched = vec![false; routed.circuit.num_qubits()];
    let mut found = None;
    let mut inserted = check.inserted_swaps.iter().peekable();
    for (i, inst) in routed.circuit.instructions().iter().enumerate() {
        if inst.gate.is_swap() {
            let (a, b) = (inst.qubits[0], inst.qubits[1]);
            if inserted.peek() == Some(&&i) {
                inserted.next();
                if touched[a] != touched[b] {
                    found = Some(i);
                }
            }
            touched.swap(a, b);
        } else {
            for &q in &inst.qubits {
                touched[q] = true;
            }
        }
    }
    found
}

/// Whether the verifier refutes `routed` with a state-moving inserted SWAP
/// removed (see [`state_moving_swap`]); `None` when there is no such SWAP.
/// This is the property that shows an `Equivalent` verdict is not vacuous.
pub fn refutes_dropped_swap(
    source: &Circuit,
    routed: &RoutedCircuit,
    check: &RoutedCheck,
) -> Option<bool> {
    let swap = state_moving_swap(routed, check)?;
    Some(matches!(
        verify_equivalent(source, &without_gate(routed, swap)),
        Verdict::NotEquivalent(_)
    ))
}
