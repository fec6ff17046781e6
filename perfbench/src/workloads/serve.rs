//! `paper1_serve`: SIMDRAM:1 behind a `PlanServer`. Four weighted tenants send small
//! jobs (1–4 chunks, 8/16 bits), each a freshly built and compiled 1–3-op plan. Jobs
//! arrive in an open loop on the modeled clock at a fixed offered load below modeled
//! capacity; each goes through `write_input` → `submit` → `run_window` →
//! `take_result` → `release_input` and its output is verified.
//!
//! The benchmark keeps the arrival clock: `server.now_ns()` plus every idle gap it
//! skipped. A job's turnaround runs from when it was due, so a stall also charges the
//! jobs queued behind it, and `submit_lag` reports how late the generator ran.

use std::collections::HashMap;
use std::time::Instant;

use simdram_core::{PlanBuilder, PlanOutput, SimdVector, SimdramMachine};
use simdram_logic::{word_mask, Operation};
use simdram_serve::{JobId, PlanServer, ServeConfig, TenantId, TenantSpec};

use super::stream::ok_ratio;
use super::{design_point, expected_into, step_work, Ctx, Pass, Scale, Startup, Workload};
use crate::host::percentile;
use crate::rng::Rng;
use crate::BenchError;

/// Fairness weights of the four tenants.
const WEIGHTS: [u64; 4] = [1, 2, 3, 4];
/// Jobs per pass at paper scale: 42 blocks, enough that p99 has ten samples above it.
const PAPER_JOBS: usize = 1008;
/// Completed jobs per host-rate segment of a pass (three blocks).
const SEGMENT_JOBS: usize = 72;
/// Modeled arrival period at paper and tiny scale, in nanoseconds. Job `i` is due at
/// `(i + u) × period` with `u` uniform in `[0, 1)`: an open loop at a fixed rate
/// whose bursts stay bounded, because every queued job's input holds rows
/// machine-wide.
const PERIOD_NS: [f64; 2] = [98_000.0, 35_000.0];
/// Jobs fused per window at most: three of the widest jobs (96 rows each) plus the
/// inputs staged behind them fit a subarray's 384 allocatable rows.
const MAX_JOBS_PER_WINDOW: usize = 3;

/// The three plan shapes jobs take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `max(min(x + k, hi), lo)`: three ops.
    Brightness,
    /// `x > k`: one op, 1-bit output.
    Predicate,
    /// `relu(x - k)`: two ops.
    Relu,
}

/// One generated job.
#[derive(Debug, Clone, Copy)]
struct JobSpec {
    index: u32,
    due_ns: f64,
    tenant: usize,
    kind: Kind,
    width: usize,
    len: usize,
    k: u64,
}

/// Every (shape, width, chunks) combination. Each block of `SHAPES.len()` consecutive
/// jobs holds every combination once, in a seeded order, so the work mix of a pass
/// (and of every segment) is the same for every seed.
const SHAPES: [(Kind, usize, usize); 24] = {
    let kinds = [Kind::Brightness, Kind::Predicate, Kind::Relu];
    let mut shapes = [(Kind::Brightness, 8, 1); 24];
    let mut i = 0;
    while i < 24 {
        shapes[i] = (kinds[i / 8], if i % 8 < 4 { 8 } else { 16 }, i % 4 + 1);
        i += 1;
    }
    shapes
};

/// The job stream: `blocks` blocks, job `i` due at `(i + u) × period`. Each job spans
/// `chunks - 1/2` chunks of `chunk` lanes; tenants get equal shares of every block.
fn job_stream(blocks: usize, chunk: usize, period: f64, rng: &mut Rng) -> Vec<JobSpec> {
    let mut jobs = Vec::with_capacity(blocks * SHAPES.len());
    for _ in 0..blocks {
        let mut order: Vec<usize> = (0..SHAPES.len()).collect();
        rng.shuffle(&mut order);
        let mut tenants: Vec<usize> = (0..SHAPES.len()).map(|j| j % WEIGHTS.len()).collect();
        rng.shuffle(&mut tenants);
        for (&shape, tenant) in order.iter().zip(tenants) {
            let (kind, width, chunks) = SHAPES[shape];
            let index = jobs.len() as u32;
            jobs.push(JobSpec {
                index,
                due_ns: (f64::from(index) + rng.unit()) * period,
                tenant,
                kind,
                width,
                len: chunks * chunk - chunk / 2,
                k: rng.range(1, word_mask(width) / 4),
            });
        }
    }
    jobs
}

impl JobSpec {
    /// The host-side expected output for input `x`.
    fn expected(&self, x: u64) -> u64 {
        let w = self.width;
        let hi = word_mask(w) / 4 * 3;
        let lo = word_mask(w) / 8;
        let op = |op: Operation, a: u64, b: u64| op.reference(w, a, b, false);
        match self.kind {
            Kind::Brightness => op(
                Operation::Max,
                op(Operation::Min, op(Operation::Add, x, self.k), hi),
                lo,
            ),
            Kind::Predicate => op(Operation::Greater, x, self.k),
            Kind::Relu => op(Operation::Relu, op(Operation::Sub, x, self.k), 0),
        }
    }

    /// Builds and compiles the job's plan over the staged input `x`.
    fn plan(&self, x: &SimdVector) -> Result<(simdram_core::Plan, PlanOutput), BenchError> {
        let (w, n) = (self.width, self.len);
        let mut p = PlanBuilder::new();
        let x = p.input(x);
        let k = p.constant(w, n, self.k)?;
        let out = match self.kind {
            Kind::Brightness => {
                let hi = p.constant(w, n, word_mask(w) / 4 * 3)?;
                let lo = p.constant(w, n, word_mask(w) / 8)?;
                let bright = p.add(x, k)?;
                let capped = p.min(bright, hi)?;
                p.max(capped, lo)?
            }
            Kind::Predicate => p.greater(x, k)?,
            Kind::Relu => {
                let shifted = p.sub(x, k)?;
                p.unary(Operation::Relu, shifted)?
            }
        };
        let handle = p.materialize(out)?;
        Ok((p.compile()?, handle))
    }

    /// Fills `out` with the job's input values: a pure function of the seed and the
    /// job's index.
    fn input(&self, seed: u64, out: &mut Vec<u64>) {
        Rng::new(seed, 1_000_000 + u64::from(self.index)).fill(out, self.len, self.width);
    }
}

/// A submitted job waiting for its window.
struct InFlight {
    spec: JobSpec,
    input: SimdVector,
    values: Vec<u64>,
    output: PlanOutput,
}

/// State of the serving workload.
pub struct Serve {
    server: Option<PlanServer>,
    tenants: Vec<TenantId>,
    jobs: Vec<JobSpec>,
    warmup: Vec<JobSpec>,
    seed: u64,
    /// Reused host buffers for job inputs and expected outputs (see
    /// [`super::Buffers`]).
    buffers: Vec<Vec<u64>>,
    want: Vec<u64>,
}

/// A fresh server (and tenant registrations) around `machine`.
fn open_server(machine: SimdramMachine) -> (PlanServer, Vec<TenantId>) {
    let config = ServeConfig {
        max_jobs_per_window: MAX_JOBS_PER_WINDOW,
        ..ServeConfig::new()
    };
    let mut server = PlanServer::new(machine, config);
    let tenants = WEIGHTS
        .iter()
        .enumerate()
        .map(|(i, &w)| server.register_tenant(TenantSpec::new(format!("tenant{i}")).with_weight(w)))
        .collect();
    (server, tenants)
}

impl Serve {
    /// Serves `jobs` (sorted by due time) on a fresh server around the same machine.
    fn run_stream(&mut self, warmup: bool, ctx: &mut Ctx) -> Result<Pass, BenchError> {
        let machine = self
            .server
            .take()
            .expect("server is present between passes")
            .into_machine();
        let (mut server, tenants) = open_server(machine);
        self.tenants = tenants;
        let jobs = if warmup {
            self.warmup.clone()
        } else {
            self.jobs.clone()
        };
        let before_estimate = server.machine().estimate().clone();
        let before_stats = server.machine().stats().clone();
        let before_windows = server.machine().dispatch_windows_issued();
        let before_check = ctx.check;
        let mut pass = Pass::default();
        let mut inflight: HashMap<JobId, InFlight> = HashMap::new();
        let mut turnaround_us: Vec<f64> = Vec::with_capacity(jobs.len());
        let mut lag_us: Vec<f64> = Vec::with_capacity(jobs.len());
        let (mut eager, mut fused) = (0usize, 0usize);
        let mut skipped_ns = 0.0;
        let mut next = 0;
        let mut done = 0;
        let mut segment = (Instant::now(), ctx.tr.untimed_ns(), 0.0, SEGMENT_JOBS);
        while done < jobs.len() {
            let now = server.now_ns() + skipped_ns;
            while next < jobs.len() && jobs[next].due_ns <= now {
                let spec = jobs[next];
                next += 1;
                lag_us.push((now - spec.due_ns) / 1e3);
                ctx.tr.set_round(spec.index);
                let seed = self.seed;
                let mut values = self.buffers.pop().unwrap_or_default();
                ctx.tr
                    .untimed("bench.gen", || spec.input(seed, &mut values));
                let tenant = self.tenants[spec.tenant];
                let input = ctx.tr.span("serve.write_input", || {
                    server.write_input(tenant, spec.width, &values)
                })?;
                let (plan, output) = ctx.tr.span("plan.compile", || spec.plan(&input))?;
                match ctx.tr.span("serve.submit", || server.submit(tenant, plan)) {
                    Ok(job) => {
                        inflight.insert(
                            job,
                            InFlight {
                                spec,
                                input,
                                values,
                                output,
                            },
                        );
                    }
                    Err(_) => {
                        // A refusal is a failed job: this workload is sized never to
                        // refuse one.
                        ctx.check.record(false);
                        ctx.tr.span("serve.release_input", || {
                            server.release_input(tenant, &input)
                        })?;
                        done += 1;
                    }
                }
            }
            if server.pending_jobs() == 0 {
                if next == jobs.len() {
                    // Submitted jobs that left the queues without a result (e.g.
                    // dropped by a fault) have failed.
                    for _ in inflight.drain() {
                        ctx.check.record(false);
                    }
                    break;
                }
                // Idle: skip the modeled clock ahead to the next arrival.
                skipped_ns += jobs[next].due_ns - now;
                continue;
            }
            let record = ctx
                .tr
                .span("serve.run_window", || server.run_window())?
                .ok_or_else(|| BenchError("a window with queued jobs admitted nothing".into()))?;
            let finished = server.now_ns() + skipped_ns;
            for placement in &record.placements {
                let job = inflight.remove(&placement.job).ok_or_else(|| {
                    BenchError(format!("window ran unknown job {}", placement.job))
                })?;
                ctx.tr.set_round(job.spec.index);
                done += 1;
                turnaround_us.push((finished - job.spec.due_ns) / 1e3);
                match ctx
                    .tr
                    .span("serve.take_result", || server.take_result(placement.job))
                {
                    Ok(result) => {
                        let (bits, ops) = step_work(&result.report().step_reports);
                        pass.bitops += bits;
                        pass.modeled.element_ops += ops;
                        eager += result.report().eager_broadcasts;
                        fused += result.report().broadcasts;
                        let (check, threads, want) = (&mut ctx.check, ctx.threads, &mut self.want);
                        ctx.tr.untimed("bench.verify", || {
                            expected_into(want, job.values.len(), threads, |i| {
                                job.spec.expected(job.values[i])
                            });
                            check.compare(result.output(job.output), want);
                            drop(result);
                        });
                    }
                    Err(_) => ctx.check.record(false),
                }
                let tenant = self.tenants[job.spec.tenant];
                ctx.tr.span("serve.release_input", || {
                    server.release_input(tenant, &job.input)
                })?;
                self.buffers.push(job.values);
            }
            if done >= segment.3 || done == jobs.len() {
                let (start, untimed, bits_before, boundary) = segment;
                let excluded = (ctx.tr.untimed_ns() - untimed) as f64 / 1e9;
                pass.segments.push((
                    pass.bitops - bits_before,
                    start.elapsed().as_secs_f64() - excluded,
                ));
                segment = (
                    Instant::now(),
                    ctx.tr.untimed_ns(),
                    pass.bitops,
                    boundary + SEGMENT_JOBS,
                );
            }
        }
        let report = server.report();
        let machine = server.machine();
        let estimate = machine.estimate();
        let transpose_ns = machine.stats().transpose_latency_ns - before_stats.transpose_latency_ns;
        pass.modeled.ns = report.busy_ns;
        pass.modeled.nj = report.energy_nj;
        pass.modeled.commands = (estimate.commands - before_estimate.commands) as u64;
        pass.modeled.ok_ratio = ok_ratio(&before_check, &ctx.check);
        pass.modeled.turnaround_p50_us = percentile(&mut turnaround_us.clone(), 50.0);
        pass.modeled.turnaround_p99_us = percentile(&mut turnaround_us.clone(), 99.0);
        let counts = &mut pass.counts;
        counts.insert(
            "dram.broadcasts",
            (estimate.broadcasts - before_estimate.broadcasts) as f64,
        );
        counts.insert(
            "dram.dispatch_windows",
            (machine.dispatch_windows_issued() - before_windows) as f64,
        );
        counts.insert("estimate.transpose_share", transpose_ns / report.busy_ns);
        counts.insert("plan.broadcast_savings", eager as f64 / fused.max(1) as f64);
        counts.insert("serve.dispatch_savings", report.dispatch_savings());
        counts.insert("serve.jain_fairness", report.jain_fairness());
        counts.insert(
            "serve.max_queue_depth",
            report
                .tenants
                .iter()
                .map(|t| t.max_queue_depth)
                .max()
                .unwrap_or(0) as f64,
        );
        counts.insert(
            "serve.jobs_per_window",
            report.jobs_completed as f64 / report.windows.max(1) as f64,
        );
        counts.insert("serve.rejected", report.jobs_rejected as f64);
        counts.insert("serve.submit_lag_us.p99", percentile(&mut lag_us, 99.0));
        counts.insert("serve.turnaround_us.p50", pass.modeled.turnaround_p50_us);
        counts.insert("serve.turnaround_us.p99", pass.modeled.turnaround_p99_us);
        counts.insert("serve.turnaround.samples", turnaround_us.len() as f64);
        self.server = Some(server);
        Ok(pass)
    }
}

impl Workload for Serve {
    const NAME: &'static str = "paper1_serve";

    fn setup(scale: Scale, seed: u64, ctx: &mut Ctx) -> Result<(Self, f64), BenchError> {
        let config = design_point(scale, 1, ctx.threads);
        let start = Instant::now();
        let machine = ctx.tr.span("machine.new", || SimdramMachine::new(config))?;
        let construct_s = start.elapsed().as_secs_f64();
        let chunk = machine.lanes_per_subarray();
        let blocks = match scale {
            Scale::Paper => PAPER_JOBS / SHAPES.len(),
            Scale::Tiny => 2,
        };
        let mut rng = Rng::new(seed, 3);
        let period = PERIOD_NS[usize::from(scale == Scale::Tiny)];
        let jobs = job_stream(blocks, chunk, period, &mut rng);
        // Warm-up: one block of every shape at the same offered load.
        let warmup: Vec<JobSpec> = job_stream(1, chunk, period, &mut rng)
            .into_iter()
            .map(|j| JobSpec {
                index: j.index + jobs.len() as u32,
                ..j
            })
            .collect();
        let (server, tenants) = open_server(machine);
        let mut serve = Serve {
            server: Some(server),
            tenants,
            jobs,
            warmup,
            seed,
            buffers: Vec::new(),
            want: Vec::new(),
        };
        serve.run_stream(true, ctx)?;
        Ok((serve, construct_s))
    }

    fn pass(&mut self, ctx: &mut Ctx) -> Result<Pass, BenchError> {
        self.run_stream(false, ctx)
    }

    fn programs(&self) -> Vec<(Operation, usize)> {
        let ops = [
            Operation::Add,
            Operation::Min,
            Operation::Max,
            Operation::Greater,
            Operation::Sub,
            Operation::Relu,
        ];
        [8, 16]
            .iter()
            .flat_map(|&w| ops.iter().map(move |&op| (op, w)))
            .collect()
    }

    fn startup(&self) -> Startup {
        Startup {
            config: self
                .server
                .as_ref()
                .expect("server present")
                .machine()
                .config()
                .clone(),
            devices: 1,
        }
    }
}
