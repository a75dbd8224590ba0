//! End-to-end and per-layer benchmark of the snailqc transpiler, verifier
//! and daemon. The binary (`src/main.rs`) runs the workloads; this library
//! holds what its tests exercise too: the seeded inputs and the output
//! checker.

pub mod check;
pub mod inputs;
