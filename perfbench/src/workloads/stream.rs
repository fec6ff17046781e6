//! `paper16_stream`: SIMDRAM:16 streaming fresh full-width operands through one cheap
//! bbop. Each round writes two fresh vectors, adds them, reads the sum back, verifies
//! it and frees everything. Rounds alternate 8-bit and 16-bit operands.

use std::time::Instant;

use simdram_core::SimdramMachine;
use simdram_logic::Operation;

use super::{design_point, expected_into, Buffers, Ctx, Pass, Scale, Startup, Workload};
use crate::rng::Rng;
use crate::BenchError;

/// Operand widths, one per round in turn.
const WIDTHS: [usize; 2] = [8, 16];
/// Rounds per pass at paper scale (one of each width).
const PAPER_ROUNDS: usize = 2;

/// State of the streaming workload.
pub struct Stream {
    machine: SimdramMachine,
    rng: Rng,
    bufs: Buffers,
    rounds: usize,
    next_round: u32,
}

impl Stream {
    /// One round: write two fresh operands, add, read back, verify, free.
    fn round(&mut self, width: usize, ctx: &mut Ctx, pass: &mut Pass) -> Result<(), BenchError> {
        let m = &mut self.machine;
        let lanes = m.lanes();
        let per_subarray = m.lanes_per_subarray();
        ctx.tr.set_round(self.next_round);
        self.next_round += 1;
        let (
            rng,
            Buffers {
                a: a_vals,
                b: b_vals,
                want,
            },
        ) = (&mut self.rng, &mut self.bufs);
        ctx.tr.untimed("bench.gen", || {
            rng.fill(a_vals, lanes, width);
            rng.fill(b_vals, lanes, width);
        });
        let (a, b) = ctx.tr.span("machine.alloc_free", || {
            Ok::<_, BenchError>((m.alloc(width, lanes)?, m.alloc(width, lanes)?))
        })?;
        for (vector, values) in [(&a, &*a_vals), (&b, &*b_vals)] {
            ctx.tr.span("machine.write", || m.write(vector, values))?;
            ctx.add_bytes("machine.write", lanes, width);
            ctx.probe_h2v(values, width, per_subarray);
        }
        let (sum, report) = ctx
            .tr
            .span("machine.run", || m.binary(Operation::Add, &a, &b))?;
        let got = ctx.tr.span("machine.read", || m.read(&sum))?;
        ctx.add_bytes("machine.read", lanes, width);
        ctx.probe_v2h(&got, width, per_subarray);
        let (check, threads) = (&mut ctx.check, ctx.threads);
        ctx.tr.untimed("bench.verify", || {
            expected_into(want, lanes, threads, |i| {
                Operation::Add.reference(width, a_vals[i], b_vals[i], false)
            });
            check.compare(&got, want);
            drop(got);
        });
        ctx.tr.span("machine.alloc_free", || {
            m.free(a);
            m.free(b);
            m.free(sum);
        });
        pass.bitops += (report.elements * report.width) as f64;
        pass.modeled.element_ops += report.elements as u64;
        Ok(())
    }

    fn rounds(&mut self, rounds: usize, ctx: &mut Ctx) -> Result<Pass, BenchError> {
        let before_estimate = self.machine.estimate().clone();
        let before_stats = self.machine.stats().clone();
        let before_windows = self.machine.dispatch_windows_issued();
        let before_check = ctx.check;
        let mut pass = Pass::default();
        for r in 0..rounds {
            self.round(WIDTHS[r % WIDTHS.len()], ctx, &mut pass)?;
        }
        let estimate = self.machine.estimate();
        let stats = self.machine.stats();
        let transpose_ns = stats.transpose_latency_ns - before_stats.transpose_latency_ns;
        let compute_ns = estimate.busy_latency_ns - before_estimate.busy_latency_ns;
        pass.modeled.ns = compute_ns + transpose_ns;
        pass.modeled.nj = (estimate.total_energy_nj() - before_estimate.total_energy_nj())
            + (stats.transpose_energy_nj - before_stats.transpose_energy_nj);
        pass.modeled.commands = (estimate.commands - before_estimate.commands) as u64;
        pass.modeled.ok_ratio = ok_ratio(&before_check, &ctx.check);
        pass.counts.insert(
            "dram.broadcasts",
            (estimate.broadcasts - before_estimate.broadcasts) as f64,
        );
        pass.counts.insert(
            "dram.dispatch_windows",
            (self.machine.dispatch_windows_issued() - before_windows) as f64,
        );
        pass.counts
            .insert("estimate.transpose_share", transpose_ns / pass.modeled.ns);
        Ok(pass)
    }
}

/// Verified over attempted results between two checker snapshots (1 when none).
pub(crate) fn ok_ratio(before: &super::Checker, after: &super::Checker) -> f64 {
    let attempted = after.attempted - before.attempted;
    let failed = after.failed - before.failed;
    if attempted == 0 {
        1.0
    } else {
        (attempted - failed) as f64 / attempted as f64
    }
}

impl Workload for Stream {
    const NAME: &'static str = "paper16_stream";

    fn setup(scale: Scale, seed: u64, ctx: &mut Ctx) -> Result<(Self, f64), BenchError> {
        let config = design_point(scale, 16, ctx.threads);
        let start = Instant::now();
        let machine = ctx.tr.span("machine.new", || SimdramMachine::new(config))?;
        let construct_s = start.elapsed().as_secs_f64();
        let rounds = match scale {
            Scale::Paper => PAPER_ROUNDS,
            Scale::Tiny => 2,
        };
        let mut stream = Stream {
            machine,
            rng: Rng::new(seed, 1),
            bufs: Buffers::default(),
            rounds,
            next_round: 0,
        };
        // Warm-up: one round of each width, so codegen and first touch land in set-up.
        stream.rounds(WIDTHS.len(), ctx)?;
        Ok((stream, construct_s))
    }

    fn pass(&mut self, ctx: &mut Ctx) -> Result<Pass, BenchError> {
        self.rounds(self.rounds, ctx)
    }

    fn programs(&self) -> Vec<(Operation, usize)> {
        WIDTHS.iter().map(|&w| (Operation::Add, w)).collect()
    }

    fn startup(&self) -> Startup {
        Startup {
            config: self.machine.config().clone(),
            devices: 1,
        }
    }
}
