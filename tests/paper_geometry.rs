//! Smoke test at the paper's real device geometry: 16 banks × 64 subarrays of 512 rows ×
//! 65,536 columns (8 KiB rows). Data rows materialize on first write, so building a
//! paper-scale machine and computing on one bank's worth of lanes stays cheap enough
//! for every test run.
//!
//! Every execution knob is pinned on the config itself, so the result does not depend
//! on `SIMDRAM_*` environment overrides.

use simdram_core::{
    ExecutionPolicy, FaultModel, FunctionalMode, GuardMode, SimdramConfig, SimdramMachine,
    TimingBackendKind,
};
use simdram_logic::Operation;

/// `SimdramConfig::paper_banks(banks)` with every execution axis pinned.
fn paper(banks: usize, functional: FunctionalMode) -> SimdramConfig {
    SimdramConfig {
        execution: ExecutionPolicy::Sequential,
        functional,
        timing_backend: TimingBackendKind::Analytic,
        faults: FaultModel::Off,
        guard: GuardMode::Off,
        mimd_windows: true,
        ..SimdramConfig::paper_banks(banks)
    }
}

#[test]
fn simdram16_machine_has_the_papers_lane_count() {
    let machine = SimdramMachine::new(paper(16, FunctionalMode::Interpreted)).unwrap();
    assert_eq!(machine.lanes(), 16_777_216);
    assert_eq!(machine.lanes_per_subarray(), 65_536);
}

#[test]
fn simdram1_adds_two_full_width_16_bit_vectors() {
    const LANES: usize = 1_048_576;
    let mask = 0xFFFF;
    let a: Vec<u64> = (0..LANES as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9) >> 7 & mask)
        .collect();
    let b: Vec<u64> = (0..LANES as u64)
        .map(|i| (i ^ 0x5A5A).wrapping_mul(2_654_435_761) >> 11 & mask)
        .collect();
    let expected: Vec<u64> = a.iter().zip(&b).map(|(x, y)| (x + y) & mask).collect();
    for functional in [FunctionalMode::Interpreted, FunctionalMode::compiled()] {
        let mut machine = SimdramMachine::new(paper(1, functional)).unwrap();
        assert_eq!(machine.lanes(), LANES);
        let va = machine.alloc_and_write(16, &a).unwrap();
        let vb = machine.alloc_and_write(16, &b).unwrap();
        let (sum, _) = machine.binary(Operation::Add, &va, &vb).unwrap();
        assert_eq!(machine.read(&sum).unwrap(), expected, "{functional:?}");
    }
}
