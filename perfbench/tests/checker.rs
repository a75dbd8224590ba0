//! The output checker must reject tampered routed circuits, and the verifier
//! must refute a proven output of each workload once an inserted SWAP that
//! moves part of the state is removed.

use perfbench::check::{
    check_routed, check_structure, check_translated, refutes_dropped_swap, without_gate,
};
use perfbench::inputs::{self, ServeRequest};
use snailqc::circuit::{Circuit, Gate, Instruction};
use snailqc::core::device::Device;
use snailqc::decompose::BasisGate;
use snailqc::sim::{verify_equivalent, Verdict};
use snailqc::transpiler::{Pipeline, RoutedCircuit, TranspileResult};
use snailqc::workloads::{ghz, quantum_volume};

fn routed_qv() -> (Circuit, Device, TranspileResult) {
    let circuit = quantum_volume(10, 10, 3);
    let device = Device::from_catalog("square-lattice-16")
        .unwrap()
        .with_basis(BasisGate::SqrtISwap);
    let result = device
        .try_transpile(&circuit, &Pipeline::builder().seed(5).build())
        .unwrap();
    (circuit, device, result)
}

fn with_circuit(routed: &RoutedCircuit, circuit: Circuit) -> RoutedCircuit {
    RoutedCircuit {
        circuit,
        ..routed.clone()
    }
}

#[test]
fn accepts_the_router_output() {
    let (circuit, device, result) = routed_qv();
    let check = check_structure(&circuit, device.graph(), &result).unwrap();
    assert!(
        !check.inserted_swaps.is_empty(),
        "the cell should need SWAPs"
    );
    assert_eq!(check.inserted_swaps.len(), result.report.swap_count);
}

#[test]
fn rejects_a_dropped_swap() {
    let (circuit, device, result) = routed_qv();
    let check = check_routed(&circuit, device.graph(), &result.routed).unwrap();
    for &swap in &check.inserted_swaps {
        let tampered = without_gate(&result.routed, swap);
        assert!(
            check_routed(&circuit, device.graph(), &tampered).is_err(),
            "dropping inserted SWAP {swap} went unnoticed"
        );
    }
}

#[test]
fn rejects_a_gate_moved_off_an_edge() {
    let (circuit, device, result) = routed_qv();
    let graph = device.graph();
    let mut instructions = result.routed.circuit.instructions().to_vec();
    let (i, far) = instructions
        .iter()
        .enumerate()
        .find_map(|(i, inst)| {
            let a = inst.qubits[0];
            (inst.is_two_qubit() && !inst.gate.is_swap())
                .then(|| (0..graph.num_qubits()).find(|&b| b != a && !graph.has_edge(a, b)))
                .flatten()
                .map(|b| (i, b))
        })
        .unwrap();
    instructions[i].qubits[1] = far;
    let mut moved = Circuit::new(result.routed.circuit.num_qubits());
    for inst in instructions {
        moved.push_instruction(inst);
    }
    let err = check_routed(&circuit, graph, &with_circuit(&result.routed, moved)).unwrap_err();
    assert!(err.contains("not a device edge"), "{err}");
}

#[test]
fn rejects_two_dependent_gates_swapped() {
    let (circuit, device, result) = routed_qv();
    let instructions = result.routed.circuit.instructions();
    let i = (0..instructions.len() - 1)
        .find(|&i| {
            let (a, b) = (&instructions[i], &instructions[i + 1]);
            !a.gate.is_swap()
                && !b.gate.is_swap()
                && a != b
                && a.qubits.iter().any(|q| b.qubits.contains(q))
        })
        .unwrap();
    let mut reordered = Circuit::new(result.routed.circuit.num_qubits());
    for (k, _) in instructions.iter().enumerate() {
        let k = if k == i {
            i + 1
        } else if k == i + 1 {
            i
        } else {
            k
        };
        reordered.push_instruction(instructions[k].clone());
    }
    assert!(check_routed(
        &circuit,
        device.graph(),
        &with_circuit(&result.routed, reordered)
    )
    .is_err());
}

/// A copy of `circuit` with `edit` applied to its instruction list.
fn edited(circuit: &Circuit, edit: impl FnOnce(&mut Vec<Instruction>)) -> Circuit {
    let mut instructions = circuit.instructions().to_vec();
    edit(&mut instructions);
    let mut out = Circuit::new(circuit.num_qubits());
    for inst in instructions {
        out.push_instruction(inst);
    }
    out
}

fn check_translation(
    result: &TranspileResult,
    device: &Device,
    translated: &Circuit,
) -> Result<(), String> {
    check_translated(
        &result.routed.circuit,
        translated,
        device.graph(),
        result.report.basis.unwrap(),
        &result.report,
    )
}

#[test]
fn accepts_single_qubit_corrections_between_basis_gates() {
    let (_, device, result) = routed_qv();
    let translated = result.translated.as_ref().unwrap();
    assert!(check_translation(&result, &device, translated).is_ok());
    // An exact synthesis puts single-qubit gates around and between the
    // basis gates; the counts and the critical path stay the same.
    let corrected = edited(translated, |instructions| {
        let mut out = Vec::new();
        for inst in instructions.drain(..) {
            if inst.is_two_qubit() {
                for &q in &inst.qubits {
                    out.push(Instruction::new(Gate::RZ(0.25), vec![q]));
                    out.push(Instruction::new(Gate::H, vec![q]));
                }
            }
            out.push(inst);
        }
        *instructions = out;
    });
    assert!(corrected.len() > translated.len());
    check_translation(&result, &device, &corrected).unwrap();
}

#[test]
fn rejects_a_translation_that_drops_a_basis_gate() {
    let (_, device, result) = routed_qv();
    let translated = result.translated.as_ref().unwrap();
    let short = edited(translated, |instructions| {
        let at = instructions.iter().position(|i| i.is_two_qubit()).unwrap();
        instructions.remove(at);
    });
    assert!(check_translation(&result, &device, &short).is_err());
}

#[test]
fn rejects_basis_gates_out_of_routed_order() {
    let (_, device, result) = routed_qv();
    let translated = result.translated.as_ref().unwrap();
    // Move the first basis gate behind the first later one that shares a
    // qubit with it but sits on another edge.
    let edge = |inst: &Instruction| {
        (
            inst.qubits[0].min(inst.qubits[1]),
            inst.qubits[0].max(inst.qubits[1]),
        )
    };
    let reordered = edited(translated, |instructions| {
        let first = instructions.iter().position(|i| i.is_two_qubit()).unwrap();
        let (a, b) = edge(&instructions[first]);
        let later = (first + 1..instructions.len())
            .find(|&k| {
                let inst = &instructions[k];
                inst.is_two_qubit()
                    && edge(inst) != (a, b)
                    && (inst.qubits.contains(&a) || inst.qubits.contains(&b))
            })
            .unwrap();
        let moved = instructions.remove(first);
        instructions.insert(later, moved);
    });
    assert!(check_translation(&result, &device, &reordered).is_err());
}

/// Asserts that some proven GHZ output among `outputs` has a state-moving
/// inserted SWAP, and that the verifier refutes it once that SWAP is gone.
fn refutes_some(outputs: impl Iterator<Item = (Circuit, Device, Pipeline)>) {
    for (circuit, device, pipeline) in outputs {
        let result = device.try_transpile(&circuit, &pipeline).unwrap();
        let check = check_structure(&circuit, device.graph(), &result).unwrap();
        if verify_equivalent(&circuit, &result.routed) != Verdict::Equivalent {
            continue;
        }
        if let Some(refuted) = refutes_dropped_swap(&circuit, &result.routed, &check) {
            assert!(
                refuted,
                "verifier accepts a copy with a state-moving SWAP removed"
            );
            return;
        }
    }
    panic!("no proven GHZ output with a state-moving inserted SWAP");
}

fn is_ghz(circuit: &Circuit) -> bool {
    *circuit == ghz(circuit.num_qubits())
}

#[test]
fn verifier_refutes_a_dropped_swap_on_paper_grid() {
    let grid = inputs::paper_grid(1).unwrap();
    refutes_some(
        grid.cells
            .into_iter()
            .filter(|c| is_ghz(&c.circuit))
            .map(|c| (c.circuit, grid.devices[c.device].clone(), c.pipeline)),
    );
}

#[test]
fn verifier_refutes_a_dropped_swap_on_kiloqubit_cold() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    refutes_some(
        inputs::kiloqubit(1)
            .into_iter()
            .filter(|c| is_ghz(&c.circuit))
            .map(|c| {
                let device = Device::from_spec_file(format!("{root}/{}", c.spec)).unwrap();
                (c.circuit, device, c.pipeline)
            }),
    );
}

#[test]
fn verifier_refutes_a_dropped_swap_on_serve_mix() {
    refutes_some(
        inputs::serve_mix(1)
            .into_iter()
            .filter_map(|req| match req {
                ServeRequest::Transpile(req) if is_ghz(&req.circuit) => {
                    let inputs::DeviceRef::Catalog(name) = req.device else {
                        return None;
                    };
                    let mut device = Device::from_catalog(name).unwrap();
                    if let Some(basis) = req.basis {
                        device = device.with_basis(basis);
                    }
                    let pipeline = Pipeline::builder().seed(req.router_seed(1)).build();
                    Some(((*req.circuit).clone(), device, pipeline))
                }
                _ => None,
            }),
    );
}
