//! `fleet4_shard`: four sharded devices, each 4 banks × 4 subarrays of full
//! 65,536-column rows, all computing. Vectors are 2.5× the fleet's lanes, so every
//! device runs three waves. The two operands are placed under different shard
//! policies, so each binary op first reshards one of them over the link model. Each
//! round writes, reshards, runs one binary and one unary op, reads back and verifies.

use std::time::Instant;

use simdram_core::{LinkModel, ShardPolicy, ShardedMachine};
use simdram_dram::DramConfig;
use simdram_logic::Operation;

use super::stream::ok_ratio;
use super::{expected_into, fixed_config, tiny_dram, Buffers, Ctx, Pass, Scale, Startup, Workload};
use crate::rng::Rng;
use crate::BenchError;

/// Devices in the fleet.
const DEVICES: usize = 4;
/// Element width of every vector.
const WIDTH: usize = 16;
/// The binary and unary ops of a round.
const BINARY: Operation = Operation::Mul;
const UNARY: Operation = Operation::BitCount;
/// Rounds per pass at paper scale.
const PAPER_ROUNDS: usize = 1;

/// State of the fleet workload.
pub struct Fleet {
    fleet: ShardedMachine,
    rng: Rng,
    bufs: Buffers,
    len: usize,
    rounds: usize,
    next_round: u32,
}

/// Per-device busy time, link time, energy and command totals at one instant.
struct Snapshot {
    busy_ns: Vec<f64>,
    link_ns: f64,
    nj: f64,
    commands: usize,
    broadcasts: usize,
    windows: u64,
    crossing: usize,
}

impl Snapshot {
    fn take(fleet: &ShardedMachine) -> Self {
        let estimate = fleet.estimate();
        Snapshot {
            busy_ns: estimate
                .per_device
                .iter()
                .map(|e| e.busy_latency_ns)
                .collect(),
            link_ns: estimate.movement.latency_ns,
            nj: estimate.energy_nj(),
            commands: estimate.per_device.iter().map(|e| e.commands).sum(),
            broadcasts: estimate.broadcasts(),
            windows: (0..fleet.devices())
                .map(|d| fleet.device(d).dispatch_windows_issued())
                .sum(),
            crossing: estimate.movement.elements,
        }
    }
}

impl Fleet {
    fn round(&mut self, ctx: &mut Ctx, pass: &mut Pass) -> Result<(), BenchError> {
        ctx.tr.set_round(self.next_round);
        self.next_round += 1;
        let (len, per_subarray) = (self.len, self.fleet.device(0).lanes_per_subarray());
        let (
            rng,
            Buffers {
                a: a_vals,
                b: b_vals,
                want,
            },
        ) = (&mut self.rng, &mut self.bufs);
        ctx.tr.untimed("bench.gen", || {
            rng.fill(a_vals, len, WIDTH);
            rng.fill(b_vals, len, WIDTH);
        });
        let f = &mut self.fleet;
        let a = ctx.tr.span("fleet.write", || {
            f.alloc_and_write_with(WIDTH, a_vals, ShardPolicy::Interleaved)
        })?;
        ctx.probe_h2v(a_vals, WIDTH, per_subarray);
        let b = ctx.tr.span("fleet.write", || {
            f.alloc_and_write_with(WIDTH, b_vals, ShardPolicy::Contiguous)
        })?;
        ctx.probe_h2v(b_vals, WIDTH, per_subarray);
        ctx.add_bytes("fleet.write", 2 * len, WIDTH);
        let aligned = ctx
            .tr
            .span("fleet.reshard", || f.reshard(&b, ShardPolicy::Interleaved))?;
        let product = ctx
            .tr
            .span("fleet.binary", || f.binary(BINARY, &a, &aligned))?;
        let counted = ctx.tr.span("fleet.unary", || f.unary(UNARY, &product))?;
        let got = ctx.tr.span("fleet.read", || f.read(&counted))?;
        ctx.add_bytes("fleet.read", len, WIDTH);
        ctx.probe_v2h(&got, WIDTH, per_subarray);
        let (check, threads) = (&mut ctx.check, ctx.threads);
        ctx.tr.untimed("bench.verify", || {
            expected_into(want, len, threads, |i| {
                let p = BINARY.reference(WIDTH, a_vals[i], b_vals[i], false);
                UNARY.reference(WIDTH, p, 0, false)
            });
            check.compare(&got, want);
            drop(got);
        });
        ctx.tr.span("fleet.free", || {
            for v in [a, b, aligned, product, counted] {
                f.free(v);
            }
        });
        pass.bitops += (2 * len * WIDTH) as f64;
        pass.modeled.element_ops += 2 * len as u64;
        Ok(())
    }

    fn rounds(&mut self, rounds: usize, ctx: &mut Ctx) -> Result<Pass, BenchError> {
        let before = Snapshot::take(&self.fleet);
        let before_check = ctx.check;
        let mut pass = Pass::default();
        for _ in 0..rounds {
            self.round(ctx, &mut pass)?;
        }
        let after = Snapshot::take(&self.fleet);
        let busy: Vec<f64> = after
            .busy_ns
            .iter()
            .zip(&before.busy_ns)
            .map(|(a, b)| a - b)
            .collect();
        let max_busy = busy.iter().copied().fold(0.0, f64::max);
        let mean_busy = busy.iter().sum::<f64>() / busy.len() as f64;
        let link_ns = after.link_ns - before.link_ns;
        // Devices run concurrently, the link serializes: the fleet makespan.
        pass.modeled.ns = max_busy + link_ns;
        pass.modeled.nj = after.nj - before.nj;
        pass.modeled.commands = (after.commands - before.commands) as u64;
        pass.modeled.ok_ratio = ok_ratio(&before_check, &ctx.check);
        let counts = &mut pass.counts;
        counts.insert(
            "dram.broadcasts",
            (after.broadcasts - before.broadcasts) as f64,
        );
        counts.insert(
            "dram.dispatch_windows",
            (after.windows - before.windows) as f64,
        );
        counts.insert("fleet.movement_share", link_ns / pass.modeled.ns);
        counts.insert(
            "fleet.crossing_elements",
            (after.crossing - before.crossing) as f64,
        );
        counts.insert("fleet.device_imbalance", max_busy / mean_busy);
        Ok(pass)
    }
}

/// One fleet device: 4 banks × 4 subarrays of full 65,536-column rows (or the tiny
/// geometry), every subarray computing.
fn device_dram(scale: Scale) -> DramConfig {
    match scale {
        Scale::Paper => DramConfig::builder()
            .banks(4)
            .subarrays_per_bank(4)
            .build()
            .expect("fleet device geometry is valid"),
        Scale::Tiny => tiny_dram(2, 2),
    }
}

impl Workload for Fleet {
    const NAME: &'static str = "fleet4_shard";

    fn setup(scale: Scale, seed: u64, ctx: &mut Ctx) -> Result<(Self, f64), BenchError> {
        let dram = device_dram(scale);
        let (banks, subarrays) = (dram.banks, dram.subarrays_per_bank);
        let config = fixed_config(dram, banks, subarrays, ctx.threads);
        let start = Instant::now();
        let fleet = ctx.tr.span("machine.new", || {
            ShardedMachine::new(
                config,
                DEVICES,
                ShardPolicy::Interleaved,
                LinkModel::default(),
            )
        })?;
        let construct_s = start.elapsed().as_secs_f64();
        let len = fleet.wave_capacity() * DEVICES * 5 / 2;
        let mut state = Fleet {
            fleet,
            rng: Rng::new(seed, 4),
            bufs: Buffers::default(),
            len,
            rounds: match scale {
                Scale::Paper => PAPER_ROUNDS,
                Scale::Tiny => 2,
            },
            next_round: 0,
        };
        state.rounds(1, ctx)?;
        Ok((state, construct_s))
    }

    fn pass(&mut self, ctx: &mut Ctx) -> Result<Pass, BenchError> {
        self.rounds(self.rounds, ctx)
    }

    fn programs(&self) -> Vec<(Operation, usize)> {
        vec![(BINARY, WIDTH), (UNARY, WIDTH)]
    }

    fn startup(&self) -> Startup {
        Startup {
            config: self.fleet.device(0).config().clone(),
            devices: DEVICES,
        }
    }
}
