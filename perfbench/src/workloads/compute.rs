//! `paper4_compute`: SIMDRAM:4 running one fixed, pre-compiled chain of heavy ops on
//! resident state. Per width (16 and 32 bits) the state is a vector `a`, evolving,
//! and an operand `b`, fixed; both are written once in set-up. Each round runs the
//! chain (mul, div, max, min, greater, select, bitcount, add, sub) and stores the new
//! `a` into the other half of a ping-pong buffer (a plan may not store over its own
//! inputs). Each pass ends by reading the state back once and verifying it against a
//! host replay of every round.

use std::time::Instant;

use simdram_core::{Plan, PlanBuilder, SimdVector, SimdramMachine};
use simdram_logic::Operation;

use super::stream::ok_ratio;
use super::{design_point, step_work, Ctx, Pass, Scale, Startup, Workload};
use crate::rng::Rng;
use crate::BenchError;

/// Element widths of the two state groups.
const WIDTHS: [usize; 2] = [16, 32];
/// Operations of one round, per group.
const CHAIN: [Operation; 9] = [
    Operation::Mul,
    Operation::Max,
    Operation::Min,
    Operation::Div,
    Operation::Greater,
    Operation::IfElse,
    Operation::BitCount,
    Operation::Add,
    Operation::Sub,
];
/// Rounds per pass at paper scale (even, so every pass starts on the same buffer).
const PAPER_ROUNDS: usize = 2;

/// One width group: the ping-pong pair holding `a`, the fixed operand `b`, and their
/// host mirrors.
struct Group {
    width: usize,
    a: [SimdVector; 2],
    b: SimdVector,
    host_a: Vec<u64>,
    host_b: Vec<u64>,
}

/// The chain of one round on one element: `a` → `a'` for the fixed operand `b`.
fn replay(width: usize, a: u64, b: u64) -> u64 {
    let op = |op: Operation, x: u64, y: u64| op.reference(width, x, y, false);
    let m = op(Operation::Mul, a, b);
    let q = op(Operation::Div, a, b);
    let mx = op(Operation::Max, m, q);
    let mn = op(Operation::Min, m, q);
    let p = op(Operation::Greater, a, b) == 1;
    let s = Operation::IfElse.reference(width, mx, mn, p);
    let bc = op(Operation::BitCount, s, 0);
    op(Operation::Sub, op(Operation::Add, s, b), bc)
}

/// State of the compute workload.
pub struct Compute {
    machine: SimdramMachine,
    groups: Vec<Group>,
    /// `plans[k]` reads buffer `k` and stores into buffer `1 - k`.
    plans: [Plan; 2],
    parity: usize,
    rounds: usize,
    /// Rounds run since the host mirror was last brought up to date.
    unverified: usize,
    next_round: u32,
}

fn build_plan(groups: &[Group], src: usize) -> Result<Plan, BenchError> {
    let mut p = PlanBuilder::new();
    for g in groups {
        let a = p.input(&g.a[src]);
        let b = p.input(&g.b);
        let m = p.mul(a, b)?;
        let q = p.binary(Operation::Div, a, b)?;
        let mx = p.max(m, q)?;
        let mn = p.min(m, q)?;
        let pred = p.greater(a, b)?;
        let s = p.select(pred, mx, mn)?;
        let bc = p.unary(Operation::BitCount, s)?;
        let t = p.add(s, b)?;
        let next = p.sub(t, bc)?;
        p.store(next, &g.a[1 - src])?;
    }
    Ok(p.compile()?)
}

impl Compute {
    fn rounds(&mut self, rounds: usize, ctx: &mut Ctx) -> Result<Pass, BenchError> {
        let before_estimate = self.machine.estimate().clone();
        let before_stats = self.machine.stats().clone();
        let before_windows = self.machine.dispatch_windows_issued();
        let before_check = ctx.check;
        let mut pass = Pass::default();
        let mut eager = 0usize;
        let mut fused = 0usize;
        for _ in 0..rounds {
            ctx.tr.set_round(self.next_round);
            self.next_round += 1;
            let m = &mut self.machine;
            let plan = &self.plans[self.parity];
            let exec = ctx.tr.span("machine.run", || m.run_plan(plan))?;
            let (outputs, report) = exec.into_parts();
            debug_assert!(outputs.is_empty(), "the chain only stores");
            let (bits, ops) = step_work(&report.step_reports);
            pass.bitops += bits;
            pass.modeled.element_ops += ops;
            eager += report.eager_broadcasts;
            fused += report.broadcasts;
            self.parity = 1 - self.parity;
            self.unverified += 1;
        }
        self.read_and_verify(ctx)?;
        let estimate = self.machine.estimate();
        let stats = self.machine.stats();
        let transpose_ns = stats.transpose_latency_ns - before_stats.transpose_latency_ns;
        pass.modeled.ns =
            (estimate.busy_latency_ns - before_estimate.busy_latency_ns) + transpose_ns;
        pass.modeled.nj = (estimate.total_energy_nj() - before_estimate.total_energy_nj())
            + (stats.transpose_energy_nj - before_stats.transpose_energy_nj);
        pass.modeled.commands = (estimate.commands - before_estimate.commands) as u64;
        pass.modeled.ok_ratio = ok_ratio(&before_check, &ctx.check);
        let counts = &mut pass.counts;
        counts.insert(
            "dram.broadcasts",
            (estimate.broadcasts - before_estimate.broadcasts) as f64,
        );
        counts.insert(
            "dram.dispatch_windows",
            (self.machine.dispatch_windows_issued() - before_windows) as f64,
        );
        counts.insert("estimate.transpose_share", transpose_ns / pass.modeled.ns);
        counts.insert("plan.broadcast_savings", eager as f64 / fused.max(1) as f64);
        Ok(pass)
    }

    /// Reads the current state back once and checks it against the host replay.
    fn read_and_verify(&mut self, ctx: &mut Ctx) -> Result<(), BenchError> {
        let per_subarray = self.machine.lanes_per_subarray();
        let rounds = std::mem::take(&mut self.unverified);
        let threads = ctx.threads;
        for g in &mut self.groups {
            let a = g.a[self.parity];
            let m = &mut self.machine;
            let got = ctx.tr.span("machine.read", || m.read(&a))?;
            ctx.add_bytes("machine.read", got.len(), g.width);
            ctx.probe_v2h(&got, g.width, per_subarray);
            let check = &mut ctx.check;
            ctx.tr.untimed("bench.verify", || {
                let width = g.width;
                let per = g.host_a.len().div_ceil(threads.max(1)).max(1);
                std::thread::scope(|scope| {
                    for (ha, hb) in g.host_a.chunks_mut(per).zip(g.host_b.chunks(per)) {
                        scope.spawn(move || {
                            for (a, &b) in ha.iter_mut().zip(hb) {
                                for _ in 0..rounds {
                                    *a = replay(width, *a, b);
                                }
                            }
                        });
                    }
                });
                check.compare(&got, &mut g.host_a.clone());
                drop(got);
            });
        }
        Ok(())
    }
}

impl Workload for Compute {
    const NAME: &'static str = "paper4_compute";

    fn setup(scale: Scale, seed: u64, ctx: &mut Ctx) -> Result<(Self, f64), BenchError> {
        let config = design_point(scale, 4, ctx.threads);
        let start = Instant::now();
        let mut machine = ctx.tr.span("machine.new", || SimdramMachine::new(config))?;
        let construct_s = start.elapsed().as_secs_f64();
        let lanes = machine.lanes();
        let mut rng = Rng::new(seed, 2);
        let mut groups = Vec::with_capacity(WIDTHS.len());
        for &width in &WIDTHS {
            let host_a = rng.values(lanes, width);
            let host_b = rng.values(lanes, width);
            let a = [machine.alloc(width, lanes)?, machine.alloc(width, lanes)?];
            let b = machine.alloc(width, lanes)?;
            machine.write(&a[0], &host_a)?;
            machine.write(&b, &host_b)?;
            groups.push(Group {
                width,
                a,
                b,
                host_a,
                host_b,
            });
        }
        let plans = [build_plan(&groups, 0)?, build_plan(&groups, 1)?];
        let mut compute = Compute {
            machine,
            groups,
            plans,
            parity: 0,
            rounds: match scale {
                Scale::Paper => PAPER_ROUNDS,
                Scale::Tiny => 2,
            },
            unverified: 0,
            next_round: 0,
        };
        // Warm-up: both ping-pong plans once, plus the verifying read-back.
        compute.rounds(2, ctx)?;
        Ok((compute, construct_s))
    }

    fn pass(&mut self, ctx: &mut Ctx) -> Result<Pass, BenchError> {
        self.rounds(self.rounds, ctx)
    }

    fn programs(&self) -> Vec<(Operation, usize)> {
        WIDTHS
            .iter()
            .flat_map(|&w| CHAIN.iter().map(move |&op| (op, w)))
            .collect()
    }

    fn startup(&self) -> Startup {
        Startup {
            config: self.machine.config().clone(),
            devices: 1,
        }
    }
}
