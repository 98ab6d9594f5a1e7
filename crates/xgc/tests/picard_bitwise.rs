//! Bitwise pins of the implicit collision step.
//!
//! The host kernels under the Picard loop (SpMV, BLAS-1, assembly) may
//! change how fast they run, never what they compute. These tests pin
//! two warm-started steps, with ELL and with CSR, to digests recorded
//! before the kernels were compiled for hardware FMA and the assembly
//! was made parallel, and check the parallel assembly against the
//! serial per-system call. The multi-species step and the workload
//! batches are pinned to digests recorded before their assembly
//! replayed a recorded scatter plan.

use batsolv_gpusim::DeviceSpec;
use batsolv_xgc::operator_assembly::assemble_matrix;
use batsolv_xgc::picard::{ProxyState, SolverKind};
use batsolv_xgc::{CollisionProxy, Moments, MultiSpeciesProxy, Species, VelocityGrid, XgcWorkload};

const MESH_NODES: usize = 5;
const SEED: u64 = 2022;

/// FNV-1a digest of the state after two steps. ELL and CSR accumulate
/// each row in the same order, so they agree to the bit.
const STATE_DIGEST: u64 = 0x3b22_38eb_9e18_10c4;
/// FNV-1a digest of the combined batch assembled from the seeded state.
const ASSEMBLY_DIGEST: u64 = 0x051f_f874_8c74_d424;
/// Largest per-species iteration count of each sweep, `[ion, electron]`,
/// for the two steps (the same for ELL and CSR).
const TABLES: [[[u32; 5]; 2]; 2] = [
    [[3, 2, 1, 1, 0], [9, 7, 7, 5, 5]],
    [[3, 2, 1, 1, 0], [9, 7, 6, 5, 5]],
];

fn proxy() -> CollisionProxy {
    CollisionProxy::new(VelocityGrid::small(10, 9), MESH_NODES)
}

/// 64-bit FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn state_digest(state: &ProxyState) -> u64 {
    fnv1a(
        state
            .f
            .iter()
            .flat_map(|f| f.values().iter().map(|v| v.to_bits())),
    )
}

/// Two warm-started steps from the seeded state: the final state's
/// digest and each step's `[ion, electron]` iteration table.
fn two_steps(solver: SolverKind) -> (u64, Vec<[Vec<u32>; 2]>) {
    let proxy = proxy();
    let mut state = proxy.initial_state(SEED);
    let device = DeviceSpec::v100();
    let tables = (0..2)
        .map(|_| {
            proxy
                .run_picard(&mut state, &device, solver, true)
                .expect("picard step")
                .iteration_table()
        })
        .collect();
    (state_digest(&state), tables)
}

#[test]
fn picard_steps_are_bitwise_pinned() {
    for solver in [SolverKind::BicgstabEll, SolverKind::BicgstabCsr] {
        let (digest, tables) = two_steps(solver);
        let name = solver.name();
        assert_eq!(tables, TABLES.map(|step| step.map(Vec::from)), "{name}");
        assert_eq!(digest, STATE_DIGEST, "{name}: state digest {digest:#018x}");
    }
}

#[test]
fn combined_assembly_matches_serial_per_system_assembly() {
    let proxy = proxy();
    let state = proxy.initial_state(SEED);
    let combined = proxy.assemble_combined(&state).expect("assembly");
    let pattern = proxy.pattern();
    let mut serial = vec![0.0f64; pattern.nnz()];
    for node in 0..MESH_NODES {
        for (s, species) in proxy.species.iter().enumerate() {
            let moments = Moments::compute(&proxy.grid, state.f[s].system(node));
            assemble_matrix(&proxy.grid, species, &moments, pattern, &mut serial);
            let slab = combined.values_of(2 * node + s);
            assert!(
                slab.iter()
                    .zip(&serial)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "node {node} species {s}: combined slab differs from assemble_matrix"
            );
        }
    }
    let digest =
        fnv1a((0..2 * MESH_NODES).flat_map(|i| combined.values_of(i).iter().map(|v| v.to_bits())));
    assert_eq!(digest, ASSEMBLY_DIGEST, "assembly digest {digest:#018x}");
}

/// FNV-1a digest of a multi-species state (three ion species plus
/// electrons) after two steps.
const MULTI_SPECIES_DIGEST: u64 = 0x7333_1e6d_c652_dfa9;

#[test]
fn multi_species_steps_are_bitwise_pinned() {
    let proxy = MultiSpeciesProxy::future_xgc(VelocityGrid::small(10, 9), 3, 3);
    let mut state = proxy.initial_state(SEED);
    let device = DeviceSpec::v100();
    for _ in 0..2 {
        proxy.run_picard(&mut state, &device).expect("picard step");
    }
    let digest = fnv1a(
        state
            .f
            .iter()
            .flat_map(|f| f.values().iter().map(|v| v.to_bits())),
    );
    assert_eq!(
        digest, MULTI_SPECIES_DIGEST,
        "multi-species state digest {digest:#018x}"
    );
}

/// FNV-1a digest of a two-species and a one-species workload batch:
/// matrix values, then right-hand sides.
const WORKLOAD_DIGEST: u64 = 0x2a36_78d8_de69_6b9c;

#[test]
fn workload_batches_are_bitwise_pinned() {
    let grid = VelocityGrid::small(10, 9);
    let pair = XgcWorkload::generate(grid, 3, SEED).expect("workload");
    let ions =
        XgcWorkload::generate_single_species(grid, Species::ion(), 2, SEED).expect("workload");
    let digest = fnv1a([&pair, &ions].into_iter().flat_map(|w| {
        (0..w.num_systems())
            .flat_map(|i| w.matrices.values_of(i).iter().chain(w.rhs.system(i)))
            .map(|v| v.to_bits())
    }));
    assert_eq!(digest, WORKLOAD_DIGEST, "workload digest {digest:#018x}");
}
