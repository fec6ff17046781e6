//! The transposition unit: converting between horizontal and vertical data layouts.
//!
//! SIMDRAM stores compute data *vertically* (all bits of an element in one bitline) while
//! the CPU reads and writes DRAM *horizontally* (all bits of an element in one row, accessed
//! a cache line at a time). The paper adds a transposition unit to the memory controller
//! that converts between the two layouts at object granularity, so only data that is
//! actually used for in-DRAM computation pays the conversion cost and the rest of memory
//! keeps the conventional layout and full CPU bandwidth.
//!
//! This module provides both the *functional* transposition (a 64×64 bit-matrix transpose,
//! the building block the hardware unit would use) and an *analytical* cost model for
//! transposing whole objects through the memory controller.

use simdram_dram::{energy::EnergyModel, DramTiming};

/// Transposes a 64×64 bit matrix held as 64 row words.
///
/// Bit `j` of input word `i` becomes bit `i` of output word `j`. This is the core primitive
/// of the transposition unit: a horizontal cache line's worth of 64-bit elements becomes 64
/// vertical bit-slices (and vice versa — the transform is an involution).
///
/// The software model runs the same 6-stage butterfly network the hardware unit would
/// use: each stage swaps square sub-blocks with word-wide masked XORs (the classic
/// recursive block-transpose), so the cost is ~6 × 64 branch-free word operations,
/// independent of how many bits are set.
///
/// # Examples
///
/// ```
/// use simdram_core::transpose_64x64;
///
/// let mut matrix = [0u64; 64];
/// matrix[3] = 1 << 10; // row 3, column 10
/// let t = transpose_64x64(&matrix);
/// assert_eq!(t[10], 1 << 3); // row 10, column 3
/// assert_eq!(transpose_64x64(&t), matrix);
/// ```
pub fn transpose_64x64(rows: &[u64; 64]) -> [u64; 64] {
    let mut m = *rows;
    // Stage s swaps, for every 2j×2j block on the diagonal, its upper-right and
    // lower-left j×j sub-blocks (j = 32, 16, …, 1): a delta-swap between row r's high
    // (column ≥ j) bits and row r+j's low bits.
    let mut j = 32usize;
    let mut mask: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            let t = (m[k] >> j ^ m[k + j]) & mask;
            m[k] ^= t << j;
            m[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        mask ^= mask << j;
    }
    m
}

/// Analytic latency/energy model of the memory-controller transposition unit.
///
/// The unit streams data between the channel and a small SRAM holding one 64×64 tile;
/// transposing an object of `n` `width`-bit elements therefore moves `n × width` bits twice
/// (read horizontally, write vertically, or vice versa) plus a fixed per-tile pipeline
/// latency.
#[derive(Debug, Clone, PartialEq)]
pub struct TranspositionUnit {
    /// Pipeline latency of transposing one 64×64 tile, in nanoseconds.
    pub tile_latency_ns: f64,
    /// Energy of transposing one 64×64 tile inside the unit's SRAM, in nanojoules.
    pub tile_energy_nj: f64,
    timing: DramTiming,
    energy: EnergyModel,
}

impl TranspositionUnit {
    /// Creates the unit with the paper's assumptions: the tile transpose is pipelined behind
    /// the DRAM accesses, costing a few nanoseconds and a fraction of a nanojoule per tile.
    pub fn new(timing: DramTiming, energy: EnergyModel) -> Self {
        TranspositionUnit {
            tile_latency_ns: 4.0,
            tile_energy_nj: 0.1,
            timing,
            energy,
        }
    }

    /// Number of 64×64 tiles needed to transpose `elements` elements of `width` bits.
    pub fn tiles(&self, elements: usize, width: usize) -> usize {
        elements.div_ceil(64) * width.div_ceil(64).max(1)
    }

    /// Latency in nanoseconds of transposing an object of `elements` × `width` bits,
    /// including reading it from DRAM in one layout and writing it back in the other.
    pub fn latency_ns(&self, elements: usize, width: usize) -> f64 {
        let bytes = (elements * width).div_ceil(8);
        let tiles = self.tiles(elements, width) as f64;
        self.timing.row_read_ns(bytes)
            + self.timing.row_write_ns(bytes)
            + tiles * self.tile_latency_ns
    }

    /// Energy in nanojoules of transposing an object of `elements` × `width` bits.
    pub fn energy_nj(&self, elements: usize, width: usize) -> f64 {
        let bits = elements * width;
        let tiles = self.tiles(elements, width) as f64;
        // The data crosses the on-DIMM datapath twice (read + write) plus the tile SRAM.
        2.0 * self.energy.array_access_nj(bits) + tiles * self.tile_energy_nj
    }
}

/// Transposes `values` (one `width`-bit element each, element `i` in lane `i`) into
/// `width` bit-slices of `lanes` bits packed as `u64` words (LSB-first lane order).
///
/// Slice `b` of the result holds bit `b` of every element — exactly the contents of DRAM row
/// `base + b` in SIMDRAM's vertical layout. [`vertical_to_horizontal`] is the inverse.
/// This is the allocating wrapper over [`horizontal_to_vertical_into`], which writes the
/// slices into caller-owned storage (e.g. the destination DRAM rows' words).
pub fn horizontal_to_vertical(values: &[u64], width: usize, lanes: usize) -> Vec<Vec<u64>> {
    let mut slices = vec![vec![0u64; lanes.div_ceil(64)]; width];
    horizontal_to_vertical_into(values, lanes, &mut slices);
    slices
}

/// In-place form of [`horizontal_to_vertical`]: transposes the first `lanes` of `values`
/// into `slices`, one bit-slice per slice (`slices.len()` is the element width).
///
/// Every slice is overwritten in full: lanes past `lanes` (or past `values.len()`) and
/// bits past the 64th slice read as zero. The conversion is word-tiled: each group of 64
/// lanes forms one 64×64 tile that is transposed with [`transpose_64x64`] — the same
/// primitive the hardware unit pipelines — so the cost is one tile transpose per 64 lanes
/// instead of one inner loop per bit.
///
/// # Panics
///
/// Panics if a slice holds fewer than `lanes.div_ceil(64)` words.
pub fn horizontal_to_vertical_into<S: AsMut<[u64]>>(
    values: &[u64],
    lanes: usize,
    slices: &mut [S],
) {
    let used = &values[..values.len().min(lanes)];
    let mut tile = [0u64; 64];
    for (w, group) in used.chunks(64).enumerate() {
        tile[..group.len()].copy_from_slice(group);
        tile[group.len()..].fill(0);
        let transposed = transpose_64x64(&tile);
        for (slice, &word) in slices.iter_mut().zip(&transposed) {
            slice.as_mut()[w] = word;
        }
    }
    let filled = used.len().div_ceil(64);
    for (bit, slice) in slices.iter_mut().enumerate() {
        let slice = slice.as_mut();
        let from = if bit < 64 { filled } else { 0 };
        slice[from..].fill(0);
    }
}

/// Inverse of [`horizontal_to_vertical`]: reassembles per-element values from bit-slices.
///
/// The allocating wrapper over [`vertical_to_horizontal_into`]. Accepts any word-slice
/// representation of the vertical layout (`Vec<u64>` rows, borrowed `&[u64]` DRAM row
/// words, …); slices shorter than `lanes` bits are treated as zero-padded.
pub fn vertical_to_horizontal<S: AsRef<[u64]>>(
    slices: &[S],
    width: usize,
    lanes: usize,
) -> Vec<u64> {
    let mut values = vec![0u64; lanes];
    vertical_to_horizontal_into(slices, width, &mut values);
    values
}

/// In-place form of [`vertical_to_horizontal`]: reassembles the first `values.len()`
/// lanes of the `width` bit-slices into `values`, overwriting every element.
///
/// Word-tiled like the forward conversion; slices shorter than `values.len()` bits are
/// treated as zero-padded, and bits past `width` (or past the 64th slice) read as zero.
pub fn vertical_to_horizontal_into<S: AsRef<[u64]>>(
    slices: &[S],
    width: usize,
    values: &mut [u64],
) {
    let width = width.min(slices.len()).min(64);
    let mut tile = [0u64; 64];
    for (w, group) in values.chunks_mut(64).enumerate() {
        for (bit, row) in tile.iter_mut().enumerate() {
            *row = if bit < width {
                slices[bit].as_ref().get(w).copied().unwrap_or(0)
            } else {
                0
            };
        }
        let transposed = transpose_64x64(&tile);
        group.copy_from_slice(&transposed[..group.len()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdram_dram::DramConfig;

    #[test]
    fn transpose_is_an_involution() {
        let mut matrix = [0u64; 64];
        for (i, row) in matrix.iter_mut().enumerate() {
            *row = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i as u64) << 17;
        }
        let once = transpose_64x64(&matrix);
        let twice = transpose_64x64(&once);
        assert_eq!(twice, matrix);
    }

    #[test]
    fn transpose_moves_single_bits_correctly() {
        for (row, col) in [(0usize, 0usize), (5, 63), (63, 5), (17, 42)] {
            let mut matrix = [0u64; 64];
            matrix[row] = 1 << col;
            let t = transpose_64x64(&matrix);
            for (i, &word) in t.iter().enumerate() {
                let expected = if i == col { 1u64 << row } else { 0 };
                assert_eq!(word, expected, "row {row} col {col} output word {i}");
            }
        }
    }

    #[test]
    fn horizontal_vertical_roundtrip() {
        let values: Vec<u64> = (0..100u64)
            .map(|i| i.wrapping_mul(2654435761) & 0xFFFF)
            .collect();
        let slices = horizontal_to_vertical(&values, 16, 128);
        assert_eq!(slices.len(), 16);
        let back = vertical_to_horizontal(&slices, 16, 128);
        assert_eq!(&back[..100], &values[..]);
        assert!(back[100..].iter().all(|&v| v == 0));
    }

    #[test]
    fn vertical_slices_contain_expected_bits() {
        let values = vec![0b01u64, 0b10, 0b11];
        let slices = horizontal_to_vertical(&values, 2, 3);
        assert_eq!(slices[0][0], 0b101); // bit 0 of elements 0 and 2
        assert_eq!(slices[1][0], 0b110); // bit 1 of elements 1 and 2
    }

    #[test]
    fn cost_model_scales_with_object_size() {
        let cfg = DramConfig::default();
        let unit = TranspositionUnit::new(cfg.timing.clone(), cfg.energy.clone());
        let small_lat = unit.latency_ns(64, 8);
        let big_lat = unit.latency_ns(65_536, 32);
        assert!(big_lat > small_lat * 10.0);
        assert!(unit.energy_nj(65_536, 32) > unit.energy_nj(64, 8));
        assert_eq!(unit.tiles(64, 8), 1);
        assert_eq!(unit.tiles(128, 8), 2);
    }
}
