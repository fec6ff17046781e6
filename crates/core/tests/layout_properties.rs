//! Property-based tests of the transposition unit and the vertical-layout round trip
//! through a real machine.

use proptest::prelude::*;
use simdram_core::{
    horizontal_to_vertical, horizontal_to_vertical_into, transpose_64x64, vertical_to_horizontal,
    vertical_to_horizontal_into, SimdramConfig, SimdramMachine,
};

/// The pre-tiling scalar implementation of `horizontal_to_vertical`, kept as the
/// reference the word-tiled version must match bit-for-bit.
fn scalar_horizontal_to_vertical(values: &[u64], width: usize, lanes: usize) -> Vec<Vec<u64>> {
    let words_per_slice = lanes.div_ceil(64);
    let mut slices = vec![vec![0u64; words_per_slice]; width];
    for (lane, &value) in values.iter().enumerate().take(lanes) {
        for (bit, slice) in slices.iter_mut().enumerate() {
            if (value >> bit) & 1 == 1 {
                slice[lane / 64] |= 1 << (lane % 64);
            }
        }
    }
    slices
}

/// The pre-tiling scalar implementation of `vertical_to_horizontal` (reference).
fn scalar_vertical_to_horizontal(slices: &[Vec<u64>], width: usize, lanes: usize) -> Vec<u64> {
    let mut values = vec![0u64; lanes];
    for (bit, slice) in slices.iter().enumerate().take(width) {
        for (lane, value) in values.iter_mut().enumerate() {
            if (slice[lane / 64] >> (lane % 64)) & 1 == 1 {
                *value |= 1 << bit;
            }
        }
    }
    values
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The tiled conversions must match the scalar reference bit-for-bit, in particular
    // for lane counts that are not multiples of the 64×64 tile size and for value lists
    // shorter or longer than the lane count.
    #[test]
    fn tiled_h2v_matches_scalar_reference(
        values in proptest::collection::vec(any::<u64>(), 1..300),
        width in 1usize..=64,
        extra_lanes in 0usize..70,
    ) {
        let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        let masked: Vec<u64> = values.iter().map(|v| v & mask).collect();
        let lanes = (masked.len() + extra_lanes).max(1);
        prop_assert_eq!(
            horizontal_to_vertical(&masked, width, lanes),
            scalar_horizontal_to_vertical(&masked, width, lanes)
        );
    }

    #[test]
    fn tiled_v2h_matches_scalar_reference(
        values in proptest::collection::vec(any::<u64>(), 1..300),
        width in 1usize..=64,
    ) {
        let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        let masked: Vec<u64> = values.iter().map(|v| v & mask).collect();
        let lanes = masked.len();
        let slices = scalar_horizontal_to_vertical(&masked, width, lanes);
        prop_assert_eq!(
            vertical_to_horizontal(&slices, width, lanes),
            scalar_vertical_to_horizontal(&slices, width, lanes)
        );
    }

    #[test]
    fn tiled_round_trip_against_scalar_for_ragged_lanes(
        lanes in 1usize..200,
        width in 1usize..=32,
    ) {
        // Deterministic ragged-lane round trip: tiled h2v -> scalar v2h and
        // scalar h2v -> tiled v2h both recover the original values.
        let mask = (1u64 << width) - 1;
        let values: Vec<u64> = (0..lanes as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask)
            .collect();
        let tiled = horizontal_to_vertical(&values, width, lanes);
        prop_assert_eq!(scalar_vertical_to_horizontal(&tiled, width, lanes), values.clone());
        let scalar = scalar_horizontal_to_vertical(&values, width, lanes);
        prop_assert_eq!(vertical_to_horizontal(&scalar, width, lanes), values);
    }

    // The in-place forms the machine's I/O path uses must equal the allocating wrappers
    // bit-for-bit for ragged lane counts and value lists shorter or longer than them,
    // whatever the destination held before: every word is overwritten.
    #[test]
    fn in_place_forms_match_allocating_forms(
        values in proptest::collection::vec(any::<u64>(), 0..300),
        width in 1usize..=64,
        lanes in 1usize..300,
        stale in any::<u64>(),
    ) {
        let mut slices = vec![vec![stale; lanes.div_ceil(64)]; width];
        horizontal_to_vertical_into(&values, lanes, &mut slices);
        prop_assert_eq!(&slices, &horizontal_to_vertical(&values, width, lanes));
        let mut back = vec![stale; lanes];
        vertical_to_horizontal_into(&slices, width, &mut back);
        prop_assert_eq!(back, vertical_to_horizontal(&slices, width, lanes));
    }

    #[test]
    fn tile_transpose_is_involutive(rows in proptest::collection::vec(any::<u64>(), 64)) {
        let tile: [u64; 64] = rows.clone().try_into().unwrap();
        let twice = transpose_64x64(&transpose_64x64(&tile));
        prop_assert_eq!(twice.to_vec(), rows);
    }

    #[test]
    fn tile_transpose_moves_every_bit(row in 0usize..64, col in 0usize..64) {
        let mut tile = [0u64; 64];
        tile[row] = 1 << col;
        let t = transpose_64x64(&tile);
        prop_assert_eq!(t[col], 1u64 << row);
        prop_assert_eq!(t.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
    }

    #[test]
    fn layout_conversion_round_trips(
        values in proptest::collection::vec(0u64..=0xFFFF_FFFF, 1..200),
        width in 1usize..=32,
    ) {
        let mask = if width == 64 { u64::MAX } else { (1 << width) - 1 };
        let masked: Vec<u64> = values.iter().map(|v| v & mask).collect();
        let lanes = masked.len();
        let slices = horizontal_to_vertical(&masked, width, lanes);
        prop_assert_eq!(slices.len(), width);
        let back = vertical_to_horizontal(&slices, width, lanes);
        prop_assert_eq!(back, masked);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn machine_write_read_round_trips(
        values in proptest::collection::vec(any::<u64>(), 1..300),
        width in 1usize..=64,
    ) {
        let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        let masked: Vec<u64> = values.iter().map(|v| v & mask).collect();
        let mut machine = SimdramMachine::new(SimdramConfig::functional_test()).unwrap();
        let vector = machine.alloc_and_write(width, &masked).unwrap();
        prop_assert_eq!(machine.read(&vector).unwrap(), masked);
    }

    #[test]
    fn allocation_free_cycles_do_not_leak_rows(widths in proptest::collection::vec(1usize..=32, 1..20)) {
        let mut machine = SimdramMachine::new(SimdramConfig::functional_test()).unwrap();
        for &width in &widths {
            let v = machine.alloc(width, 8).unwrap();
            machine.free(v);
        }
        // After freeing everything, the largest legal vector must still be allocatable.
        let all_rows = 64usize.min(machine.config().allocatable_rows());
        prop_assert!(machine.alloc(all_rows, 8).is_ok());
    }
}
