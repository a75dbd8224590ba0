//! Seeded inputs of the three workloads.
//!
//! Each workload has one fixed list of operations, with circuits and router
//! seeds drawn from constants; the workload seed only chooses the order in
//! which a pass runs them. Every seed thus asks for the same work, the
//! output counts (`swaps`, `basis_2q_gates`, `critical_path_2q`, `proved`)
//! are the same for every seed, and the spread between seeds measures the
//! program and the machine, not the draw.

use snailqc::circuit::Circuit;
use snailqc::core::device::Device;
use snailqc::core::noise::ErrorModelSpec;
use snailqc::decompose::BasisGate;
use snailqc::transpiler::Pipeline;
use snailqc::workloads::{clifford_qv, qaoa_vanilla, quantum_volume, Workload};
use std::sync::Arc;

/// SplitMix64 of `a` mixed with `b`: a cheap, well-spread seed derivation.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0x6A09_E667_F3BC_C908);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The router seed of the `index`-th operation of a workload's list. It
/// does not depend on the workload seed: a cell's pipeline stays fixed, as
/// in the paper's sweep.
fn router_seed(index: usize) -> u64 {
    mix(0x0005_EED5, index as u64)
}

/// Fisher–Yates shuffle driven by [`mix`].
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    for i in (1..items.len()).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// The seven 84-qubit topology families of the paper's sweep.
pub const FAMILIES_84: [&str; 7] = [
    "heavy-hex-84",
    "hex-lattice-84",
    "square-lattice-84",
    "lattice-alt-diagonals-84",
    "hypercube-84",
    "tree-84",
    "tree-rr-84",
];

/// The 16- and 20-qubit modules.
pub const MODULES: [&str; 9] = [
    "heavy-hex-20",
    "hex-lattice-20",
    "square-lattice-16",
    "lattice-alt-diagonals-16",
    "hypercube-16",
    "tree-20",
    "tree-rr-20",
    "corral11-16",
    "corral12-16",
];

/// Circuit size of each catalog workload on the 84-qubit families.
const SIZE_84: [(Workload, usize); 6] = [
    (Workload::QuantumVolume, 24),
    (Workload::Qft, 16),
    (Workload::QaoaVanilla, 24),
    (Workload::TimHamiltonian, 24),
    (Workload::Adder, 18),
    (Workload::Ghz, 40),
];

/// Circuit size of each catalog workload on a 16- or 20-qubit module.
fn module_size(workload: Workload, module_qubits: usize) -> usize {
    match (workload, module_qubits) {
        (Workload::Ghz, n) => n,
        (_, 16) => 12,
        _ => 16,
    }
}

/// One transpile of the paper grid.
pub struct GridCell {
    /// `workload-size@device/basis`, for diagnostics.
    pub label: String,
    /// Index into [`Grid::devices`].
    pub device: usize,
    /// Cells of one group differ only in basis; their routed outputs are
    /// identical.
    pub group: usize,
    /// The logical circuit.
    pub circuit: Circuit,
    /// The pipeline, router seed baked in.
    pub pipeline: Pipeline,
}

/// The paper-grid workload: warm devices and the fixed cell list.
pub struct Grid {
    /// One device per (topology, basis, noise) combination; the bases of one
    /// topology share its routing cache, as clones of one `Device` do.
    pub devices: Vec<Device>,
    /// The cells, in the order one pass runs them.
    pub cells: Vec<GridCell>,
}

/// Builds the paper grid: all six catalog workloads on the seven 84-qubit
/// families and the nine modules, in each of the three bases, plus six
/// noise-aware cells on calibrated devices with `error_weight` 1.0. `seed`
/// orders the groups.
///
/// The three bases of one (workload, topology) form a group: they share the
/// circuit and the router seed, as the paper translates one routing into
/// each basis, so their routed outputs are identical and only translation
/// differs. A group's cells stay adjacent in the pass.
pub fn paper_grid(seed: u64) -> Result<Grid, String> {
    let mut devices = Vec::new();
    let mut cells = Vec::new();
    let mut group = 0;
    let mut add_topology = |name: &str, jobs: &[(Workload, usize)], devices: &mut Vec<Device>| {
        let base = Device::from_catalog(name)?;
        let first = devices.len();
        devices.extend(BasisGate::all().map(|basis| base.clone().with_basis(basis)));
        for &(workload, size) in jobs {
            let circuit = workload.generate(size, mix(GRID_CIRCUITS, group as u64));
            for (offset, basis) in BasisGate::all().into_iter().enumerate() {
                cells.push(GridCell {
                    label: format!("{}-{size}@{name}/{}", workload.label(), basis.label()),
                    device: first + offset,
                    group,
                    circuit: circuit.clone(),
                    pipeline: Pipeline::builder().seed(router_seed(group)).build(),
                });
            }
            group += 1;
        }
        Ok::<(), String>(())
    };
    for name in FAMILIES_84 {
        add_topology(name, &SIZE_84, &mut devices)?;
    }
    for name in MODULES {
        let qubits = Device::from_catalog(name)?.num_qubits();
        let jobs: Vec<(Workload, usize)> = Workload::all()
            .into_iter()
            .map(|w| (w, module_size(w, qubits)))
            .collect();
        add_topology(name, &jobs, &mut devices)?;
    }
    let calibrated = ErrorModelSpec::preset("calibrated").ok_or("no calibrated preset")?;
    for (name, basis, size) in [
        ("heavy-hex-84", BasisGate::Cnot, 24),
        ("tree-84", BasisGate::SqrtISwap, 24),
        ("corral11-16", BasisGate::SqrtISwap, 12),
    ] {
        devices.push(
            Device::from_catalog(name)?
                .with_error_model(calibrated.clone())?
                .with_basis(basis),
        );
        for workload in [Workload::QuantumVolume, Workload::QaoaVanilla] {
            group += 1;
            cells.push(GridCell {
                label: format!("{}-{size}@{name}/{}/noise", workload.label(), basis.label()),
                device: devices.len() - 1,
                group,
                circuit: workload.generate(size, mix(GRID_CIRCUITS, group as u64)),
                pipeline: Pipeline::builder()
                    .seed(router_seed(group))
                    .error_weight(1.0)
                    .build(),
            });
        }
    }
    let mut groups: Vec<Vec<GridCell>> = Vec::new();
    for cell in cells {
        match groups.last_mut() {
            Some(last) if last[0].group == cell.group => last.push(cell),
            _ => groups.push(vec![cell]),
        }
    }
    shuffle(&mut groups, seed);
    let cells = groups.into_iter().flatten().collect();
    Ok(Grid { devices, cells })
}

/// Seed of the paper-grid circuits.
const GRID_CIRCUITS: u64 = 0x0000_0084;

/// One cold kiloqubit compile: a device-spec file and a circuit.
pub struct ColdCell {
    /// `circuit@spec`, for diagnostics.
    pub label: String,
    /// Spec file, relative to the repository root.
    pub spec: &'static str,
    /// The logical circuit.
    pub circuit: Circuit,
    /// The pipeline, router seed baked in.
    pub pipeline: Pipeline,
}

/// The kiloqubit devices.
const GRID_625: &str = "devices/grid_625.json";
const HYPERCUBE_1024: &str = "devices/hypercube_1024.json";
const HEAVY_HEX_433: &str = "devices/ibm_heavy_hex_433.json";

/// Small programs compiled one-shot onto a kiloqubit device, each drawn
/// with its own seed: (name, generator).
type Make = fn(u64) -> (String, Circuit);
const SMALL_PROGRAMS: [Make; 6] = [
    |_| ("ghz-32".into(), Workload::Ghz.generate(32, 0)),
    |s| ("qaoa-12".into(), qaoa_vanilla(12, 1, s)),
    |s| ("clifford-qv-12".into(), clifford_qv(12, 4, s)),
    |s| ("qv-8".into(), quantum_volume(8, 8, s)),
    |_| ("qft-8".into(), Workload::Qft.generate(8, 0)),
    |_| ("tim-12".into(), Workload::TimHamiltonian.generate(12, 0)),
];

/// Builds the kiloqubit-cold list: GHZ-625/1000/400, Clifford QV, QAOA and
/// QV cells on `grid_625`, `hypercube_1024` and `ibm_heavy_hex_433`, then
/// small programs on `grid_625` and `ibm_heavy_hex_433`, where the lazy
/// distance rows let a small program pay only for the rows it touches.
/// `seed` orders the pass.
///
/// On `ibm_heavy_hex_433` the SWAP count of one small random circuit swings
/// by up to 100× between draws. One such circuit is kept on purpose: a QV-8
/// that routes with about 1770 SWAPs from the same initial layout on which
/// its siblings need about 35.
pub fn kiloqubit(seed: u64) -> Vec<ColdCell> {
    let large: [(&'static str, Make); 9] = [
        (GRID_625, |_| {
            ("ghz-625".into(), Workload::Ghz.generate(625, 0))
        }),
        (GRID_625, |s| {
            ("clifford-qv-24".into(), clifford_qv(24, 8, s))
        }),
        (GRID_625, |s| ("qaoa-24".into(), qaoa_vanilla(24, 1, s))),
        (HYPERCUBE_1024, |_| {
            ("ghz-1000".into(), Workload::Ghz.generate(1000, 0))
        }),
        (HYPERCUBE_1024, |s| {
            ("clifford-qv-32".into(), clifford_qv(32, 8, s))
        }),
        (HYPERCUBE_1024, |s| {
            ("qv-16".into(), quantum_volume(16, 16, s))
        }),
        (HEAVY_HEX_433, |_| {
            ("ghz-400".into(), Workload::Ghz.generate(400, 0))
        }),
        (HEAVY_HEX_433, |s| {
            ("clifford-qv-24".into(), clifford_qv(24, 8, s))
        }),
        (HEAVY_HEX_433, |s| {
            ("qaoa-24".into(), qaoa_vanilla(24, 1, s))
        }),
    ];
    let small = [GRID_625, HEAVY_HEX_433].into_iter().flat_map(|spec| {
        (0..SMALL_COPIES).flat_map(move |_| SMALL_PROGRAMS.map(|make| (spec, make)))
    });
    let mut cells: Vec<ColdCell> = large
        .into_iter()
        .chain(small)
        .enumerate()
        .map(|(i, (spec, make))| {
            let (name, circuit) = make(mix(KILOQUBIT_CIRCUITS, i as u64));
            ColdCell {
                label: format!("{name}#{i}@{spec}"),
                spec,
                circuit,
                pipeline: Pipeline::builder().seed(router_seed(i)).build(),
            }
        })
        .collect();
    cells.push(ColdCell {
        label: format!("qv-8-outlier@{HEAVY_HEX_433}"),
        spec: HEAVY_HEX_433,
        circuit: quantum_volume(8, 8, mix(7, 168)),
        pipeline: Pipeline::builder().seed(router_seed(168)).build(),
    });
    shuffle(&mut cells, seed);
    cells
}

/// Seed of the kiloqubit-cold circuits.
const KILOQUBIT_CIRCUITS: u64 = 0x0001_0240;

/// Seed of the serve-mix circuits.
const SERVE_CIRCUITS: u64 = 0x5E12_7E00;

/// Copies of [`SMALL_PROGRAMS`] per device in one pass.
const SMALL_COPIES: usize = 3;

/// How a serve request names its device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceRef {
    /// A built-in catalog name.
    Catalog(&'static str),
    /// A device-spec file path, relative to the repository root.
    SpecPath(&'static str),
    /// The JSON object of this spec file, sent inline.
    Inline(&'static str),
}

/// One `transpile` RPC of the serve mix.
#[derive(Debug, Clone)]
pub struct TranspileRequest {
    /// The logical circuit the source encodes.
    pub circuit: Arc<Circuit>,
    /// OpenQASM 2.0 text sent as `source`.
    pub source: Arc<String>,
    /// The device parameter.
    pub device: DeviceRef,
    /// An explicit `basis` parameter; `None` inherits the device's.
    pub basis: Option<BasisGate>,
    /// Router seed (of pass 0 for fresh requests).
    pub seed: u64,
    /// A fresh request takes a new router seed every pass, so it always
    /// misses the daemon's caches.
    pub fresh: bool,
    /// Asks for the translated circuit as QASM (`emit: qasm2`).
    pub emit: bool,
}

impl TranspileRequest {
    /// The router seed this request carries in pass `pass`.
    pub fn router_seed(&self, pass: u64) -> u64 {
        if self.fresh {
            mix(self.seed, pass)
        } else {
            self.seed
        }
    }
}

/// One client RPC of the serve mix.
#[derive(Debug, Clone)]
pub enum ServeRequest {
    /// A `transpile` call.
    Transpile(TranspileRequest),
    /// A `stats` call.
    Stats,
}

/// Requests in one pass of the serve mix.
pub const SERVE_PASS: usize = 200;
/// Every this many requests, a `stats` call.
const STATS_EVERY: usize = 50;
/// Large QV-12/QV-16 requests per pass (48–85 KB request lines).
const LARGE: usize = 6;
/// `emit` requests per pass.
const EMITS: usize = 2;
/// Fresh (cache-missing) requests per pass among the ordinary ones.
const FRESH: usize = 40;

/// The small-request templates: (workload, size, device, explicit basis).
const TEMPLATES: [(Workload, usize, DeviceRef, Option<BasisGate>); 12] = [
    (
        Workload::QaoaVanilla,
        12,
        DeviceRef::Catalog("corral12-16"),
        Some(BasisGate::SqrtISwap),
    ),
    (
        Workload::Qft,
        10,
        DeviceRef::Catalog("heavy-hex-20"),
        Some(BasisGate::Cnot),
    ),
    (
        Workload::Ghz,
        16,
        DeviceRef::Catalog("square-lattice-16"),
        Some(BasisGate::Syc),
    ),
    (
        Workload::TimHamiltonian,
        12,
        DeviceRef::Catalog("tree-20"),
        None,
    ),
    (
        Workload::Adder,
        12,
        DeviceRef::Catalog("hypercube-16"),
        Some(BasisGate::SqrtISwap),
    ),
    (
        Workload::QaoaVanilla,
        16,
        DeviceRef::Catalog("heavy-hex-84"),
        Some(BasisGate::Cnot),
    ),
    (
        Workload::Ghz,
        24,
        DeviceRef::Catalog("tree-rr-84"),
        Some(BasisGate::SqrtISwap),
    ),
    (
        Workload::QaoaVanilla,
        12,
        DeviceRef::SpecPath("devices/grid_100.json"),
        None,
    ),
    (
        Workload::TimHamiltonian,
        12,
        DeviceRef::SpecPath("devices/sycamore_53.json"),
        None,
    ),
    (
        Workload::Qft,
        8,
        DeviceRef::SpecPath("devices/ibm_heavy_hex_127.json"),
        None,
    ),
    (
        Workload::Adder,
        10,
        DeviceRef::Inline("devices/ion_trap_32.json"),
        Some(BasisGate::Cnot),
    ),
    (
        Workload::Ghz,
        20,
        DeviceRef::Inline("devices/grid_100.json"),
        Some(BasisGate::SqrtISwap),
    ),
];

/// The large-request templates: QV-12 and QV-16 on 16-qubit modules. With
/// four QV-16 lines (about 85 KB) in a pass of 200, the p99 rank falls in
/// the middle of the QV-16 group.
const LARGE_TEMPLATES: [(usize, &str); LARGE] = [
    (12, "square-lattice-16"),
    (16, "hypercube-16"),
    (12, "corral12-16"),
    (16, "lattice-alt-diagonals-16"),
    (16, "square-lattice-16"),
    (16, "corral11-16"),
];

fn transpile_request(
    circuit: Circuit,
    device: DeviceRef,
    basis: Option<BasisGate>,
    seed: u64,
    fresh: bool,
    emit: bool,
) -> ServeRequest {
    let source = snailqc::qasm::emit(&circuit);
    ServeRequest::Transpile(TranspileRequest {
        circuit: Arc::new(circuit),
        source: Arc::new(source),
        device,
        basis,
        seed,
        fresh,
        emit,
    })
}

/// Builds the serve-mix request list: one pass of [`SERVE_PASS`] RPCs with
/// fixed shares of repeats, fresh misses, large lines, `emit` requests and
/// `stats` calls, in an order chosen by `seed`. The two `emit` requests ask
/// for √iSWAP output on `corral11-16`.
pub fn serve_mix(seed: u64) -> Vec<ServeRequest> {
    let stats = SERVE_PASS / STATS_EVERY;
    let ordinary = SERVE_PASS - stats - LARGE - EMITS;
    let mut requests = Vec::with_capacity(SERVE_PASS);
    for i in 0..ordinary {
        let (workload, size, device, basis) = TEMPLATES[i % TEMPLATES.len()];
        let circuit_seed = mix(SERVE_CIRCUITS, i as u64);
        requests.push(transpile_request(
            workload.generate(size, circuit_seed),
            device,
            basis,
            router_seed(i),
            i < FRESH,
            false,
        ));
    }
    for (i, &(size, module)) in LARGE_TEMPLATES.iter().enumerate() {
        let circuit_seed = mix(SERVE_CIRCUITS, (ordinary + i) as u64);
        requests.push(transpile_request(
            quantum_volume(size, size, circuit_seed),
            DeviceRef::Catalog(module),
            Some(BasisGate::SqrtISwap),
            router_seed(ordinary + i),
            i == 0,
            false,
        ));
    }
    for (workload, size) in [(Workload::Qft, 6), (Workload::QaoaVanilla, 8)] {
        requests.push(transpile_request(
            workload.generate(size, 5),
            DeviceRef::Catalog("corral11-16"),
            Some(BasisGate::SqrtISwap),
            7,
            false,
            true,
        ));
    }
    shuffle(&mut requests, mix(seed, 0x5E11E));
    for k in 1..=stats {
        requests.insert(k * STATS_EVERY - 1, ServeRequest::Stats);
    }
    requests
}
