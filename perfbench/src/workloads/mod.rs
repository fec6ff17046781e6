//! The four work-bounded workloads and what they share: the fixed machine
//! configuration, the per-run context (tracer + result checker), the per-pass
//! accounting and the transposition probes.
//!
//! A *pass* is a workload's fixed unit of work (a fixed count of rounds or jobs).
//! Every pass of a seed does identical modeled work; only host time varies.

mod compute;
mod fleet;
mod serve;
mod stream;

use std::collections::BTreeMap;
use std::hint::black_box;

use simdram_core::{
    horizontal_to_vertical, vertical_to_horizontal, ExecutionPolicy, FaultModel, FunctionalMode,
    GuardMode, SimdramConfig, TimingBackendKind,
};
use simdram_dram::DramConfig;
use simdram_logic::Operation;
use simdram_uprog::{CodegenOptions, Target};

pub use compute::Compute;
pub use fleet::Fleet;
pub use serve::Serve;
pub use stream::Stream;

use crate::trace::Tracer;
use crate::BenchError;

/// Problem size: the paper's design points, or a tiny geometry for the benchmark's own
/// tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Full DDR4 geometry (65,536-column rows) at SIMDRAM:1/4/16.
    Paper,
    /// 256-column rows and a handful of subarrays: seconds to run every workload.
    Tiny,
}

/// The fixed configuration every workload runs: compiled functional mode, threaded
/// broadcast over `threads` workers, analytic timing, faults and guard off, MIMD
/// windows on. Built field by field, so no `SIMDRAM_*` override can reach it.
pub fn fixed_config(
    dram: DramConfig,
    compute_banks: usize,
    compute_subarrays_per_bank: usize,
    threads: usize,
) -> SimdramConfig {
    SimdramConfig {
        dram,
        compute_banks,
        compute_subarrays_per_bank,
        target: Target::Simdram,
        codegen: CodegenOptions::optimized(),
        execution: ExecutionPolicy::Threaded {
            max_threads: threads.max(1),
        },
        functional: FunctionalMode::compiled(),
        timing_backend: TimingBackendKind::Analytic,
        faults: FaultModel::Off,
        guard: GuardMode::Off,
        mimd_windows: true,
    }
}

/// SIMDRAM:`banks` at paper geometry, or the tiny test geometry (2 × 2 subarrays).
pub fn design_point(scale: Scale, banks: usize, threads: usize) -> SimdramConfig {
    match scale {
        Scale::Paper => {
            let paper = SimdramConfig::paper_banks(banks);
            fixed_config(
                paper.dram,
                paper.compute_banks,
                paper.compute_subarrays_per_bank,
                threads,
            )
        }
        Scale::Tiny => fixed_config(tiny_dram(2, 2), 2, 2, threads),
    }
}

/// A 256-column geometry of `banks` × `subarrays`.
pub fn tiny_dram(banks: usize, subarrays: usize) -> DramConfig {
    DramConfig::builder()
        .banks(banks)
        .subarrays_per_bank(subarrays)
        .rows_per_subarray(512)
        .columns_per_row(256)
        .reserved_rows(128)
        .build()
        .expect("tiny benchmark geometry is valid")
}

/// Counts verified results. A result is one read-back output vector or one served job.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checker {
    /// Results checked so far.
    pub attempted: u64,
    /// Results that did not match, were refused or ended in a typed error.
    pub failed: u64,
    /// Test hook: flips one bit of every expected vector, so a correct program must
    /// fail verification.
    pub corrupt_expected: bool,
}

impl Checker {
    /// Checks one result vector against its expected values.
    pub fn compare(&mut self, got: &[u64], expected: &mut [u64]) -> bool {
        if self.corrupt_expected {
            if let Some(first) = expected.first_mut() {
                *first ^= 1;
            }
        }
        let ok = got == expected;
        self.record(ok);
        ok
    }

    /// Records one result that passed (`true`) or failed.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Per-run state shared by every call site: the tracer, the result checker, the
/// worker count and the payload bytes moved per traced call name.
#[derive(Debug)]
pub struct Ctx {
    /// Span recorder (disabled in untraced phases).
    pub tr: Tracer,
    /// Result verification tally.
    pub check: Checker,
    /// Host threads the broadcast engine (and the transposition probes) use.
    pub threads: usize,
    /// Payload bytes (elements × width / 8) per call name, for MB/s figures.
    pub bytes: BTreeMap<&'static str, u64>,
}

impl Ctx {
    /// A context with a tracer that records spans when `traced`.
    pub fn new(traced: bool, threads: usize, corrupt_expected: bool) -> Self {
        Ctx {
            tr: Tracer::new(traced),
            check: Checker {
                corrupt_expected,
                ..Checker::default()
            },
            threads,
            bytes: BTreeMap::new(),
        }
    }

    /// Adds the payload of `elements` × `width` bits to `name`'s byte count.
    pub fn add_bytes(&mut self, name: &'static str, elements: usize, width: usize) {
        *self.bytes.entry(name).or_default() += (elements * width / 8) as u64;
    }

    /// Runs the transposition probe for a host → vertical write of `values` (traced
    /// runs only): the public [`horizontal_to_vertical`] over the same per-subarray
    /// chunks the machine converts, split over the same worker count.
    pub fn probe_h2v(&mut self, values: &[u64], width: usize, lanes: usize) {
        if !self.tr.enabled() {
            return;
        }
        let threads = self.threads;
        self.add_bytes("transpose.h2v", values.len(), width);
        self.tr.untimed("transpose.h2v", || {
            on_threads(values.chunks(lanes).collect(), threads, |chunk| {
                black_box(horizontal_to_vertical(chunk, width, lanes));
            });
        });
    }

    /// Runs the transposition probe for a vertical → host read of `values` (traced
    /// runs only): the public [`vertical_to_horizontal`] over per-subarray row slices.
    pub fn probe_v2h(&mut self, values: &[u64], width: usize, lanes: usize) {
        if !self.tr.enabled() {
            return;
        }
        let threads = self.threads;
        let slices: Vec<(usize, Vec<Vec<u64>>)> = self.tr.untimed("transpose.prep", || {
            values
                .chunks(lanes)
                .map(|c| (c.len(), horizontal_to_vertical(c, width, lanes)))
                .collect()
        });
        self.add_bytes("transpose.v2h", values.len(), width);
        self.tr.untimed("transpose.v2h", || {
            on_threads(slices.iter().collect(), threads, |(len, rows)| {
                black_box(vertical_to_horizontal(rows, width, *len));
            });
        });
    }
}

/// Runs `f` over `items`, split into contiguous groups over `threads` scoped threads.
fn on_threads<T: Sync>(items: Vec<T>, threads: usize, f: impl Fn(&T) + Sync) {
    let per = items.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        for group in items.chunks(per) {
            let f = &f;
            scope.spawn(move || group.iter().for_each(f));
        }
    });
}

/// Host buffers a workload reuses from round to round: two operands and the
/// expected result. Fresh buffers each round would churn the heap between the
/// program's calls and slow the program's own allocations.
#[derive(Debug, Default)]
pub struct Buffers {
    /// First operand.
    pub a: Vec<u64>,
    /// Second operand.
    pub b: Vec<u64>,
    /// Expected result.
    pub want: Vec<u64>,
}

/// Fills `out` with `f(0..n)`, computed over `threads` scoped threads.
pub fn expected_into(
    out: &mut Vec<u64>,
    n: usize,
    threads: usize,
    f: impl Fn(usize) -> u64 + Sync,
) {
    out.clear();
    out.resize(n, 0);
    let per = n.div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        for (part, chunk) in out.chunks_mut(per).enumerate() {
            let f = &f;
            scope.spawn(move || {
                for (i, slot) in chunk.iter_mut().enumerate() {
                    *slot = f(part * per + i);
                }
            });
        }
    });
}

/// Modeled (simulated-clock) outcome of one pass. Every field repeats exactly for a
/// given seed, traced or not; [`Modeled::same_as`] compares them bit for bit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Modeled {
    /// Element operations executed by bbops.
    pub element_ops: u64,
    /// Modeled busy time, in nanoseconds.
    pub ns: f64,
    /// Modeled energy, in nanojoules.
    pub nj: f64,
    /// DRAM commands issued.
    pub commands: u64,
    /// Verified results over attempted results in this pass (the determinism
    /// self-check compares it; the reported `ok_ratio` covers every pass).
    pub ok_ratio: f64,
    /// Served-job turnaround percentiles from the due time, in modeled µs (serve only).
    pub turnaround_p50_us: f64,
    /// See `turnaround_p50_us`.
    pub turnaround_p99_us: f64,
}

impl Modeled {
    /// Element operations per modeled nanosecond (GOPS).
    pub fn gops(&self) -> f64 {
        self.element_ops as f64 / self.ns
    }

    /// Element operations per modeled nanojoule (GOPS/W).
    pub fn gops_per_w(&self) -> f64 {
        self.element_ops as f64 / self.nj
    }

    /// Bit-identical comparison of every metric the determinism self-check covers.
    pub fn same_as(&self, other: &Modeled) -> bool {
        self.gops().to_bits() == other.gops().to_bits()
            && self.gops_per_w().to_bits() == other.gops_per_w().to_bits()
            && self.commands == other.commands
            && self.ok_ratio.to_bits() == other.ok_ratio.to_bits()
            && self.turnaround_p50_us.to_bits() == other.turnaround_p50_us.to_bits()
            && self.turnaround_p99_us.to_bits() == other.turnaround_p99_us.to_bits()
    }
}

/// Everything one pass reports.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Σ(elements × operand bits) over every bbop of the pass.
    pub bitops: f64,
    /// `(bitops, timed host seconds)` of each fixed-size segment of a long pass, so
    /// the host rate can be a median over more samples than passes; empty when the
    /// pass is its own single segment.
    pub segments: Vec<(f64, f64)>,
    /// Modeled outcome.
    pub modeled: Modeled,
    /// Exact per-layer counts and ratios (e.g. `dram.broadcasts`), by metric name.
    pub counts: BTreeMap<&'static str, f64>,
}

/// Start-up record of one workload: its effective configuration and geometry, read
/// back from the constructed machine.
#[derive(Debug, Clone)]
pub struct Startup {
    /// The configuration of (each) device, as the machine reports it.
    pub config: SimdramConfig,
    /// Devices in the workload (1 except for the fleet).
    pub devices: usize,
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// The workload's name on the command line.
    const NAME: &'static str;

    /// Builds the program state from `seed` and runs the untimed warm-up. Returns the
    /// state and the seconds spent constructing the machine(s).
    fn setup(scale: Scale, seed: u64, ctx: &mut Ctx) -> Result<(Self, f64), BenchError>;

    /// Runs one pass (the fixed unit of work) and verifies its results.
    fn pass(&mut self, ctx: &mut Ctx) -> Result<Pass, BenchError>;

    /// The (operation, width) set the workload's μPrograms cover.
    fn programs(&self) -> Vec<(Operation, usize)>;

    /// The effective configuration and geometry.
    fn startup(&self) -> Startup;
}

/// Σ(elements × operand bits) and Σ elements over a plan's step reports.
pub fn step_work(steps: &[simdram_core::ExecutionReport]) -> (f64, u64) {
    steps.iter().fold((0.0, 0), |(bits, ops), s| {
        (
            bits + (s.elements * s.width) as f64,
            ops + s.elements as u64,
        )
    })
}
