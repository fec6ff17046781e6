//! End-to-end and per-layer benchmark of the SIMDRAM workspace at the paper's
//! SIMDRAM:1/4/16 design points, driven only through the crates' public APIs.
//!
//! A run takes several untraced measurements, each in a fresh child process: one
//! cold set-up, then fixed passes of work for its share of the requested seconds.
//! The end-to-end metrics are medians over them, and their modeled outcomes must
//! agree bit for bit. `--trace 1` adds a traced phase on one more set-up: its spans
//! give the per-layer numbers, and its modeled outcome must match too (tracing must
//! measure, not perturb). See `README.md` for the workloads and the metric map.

#![forbid(unsafe_code)]

pub mod host;
pub mod json;
pub mod metrics;
pub mod rng;
pub mod trace;
pub mod workloads;

use std::fmt;
use std::time::Instant;

use simdram_uprog::{build_program, CodegenOptions, CompiledProgram, Target};

use crate::metrics::Metric;
use crate::workloads::{Compute, Ctx, Fleet, Modeled, Pass, Scale, Serve, Stream, Workload};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [Stream::NAME, Compute::NAME, Serve::NAME, Fleet::NAME];

/// A benchmark failure: a typed error from the program, a misconfiguration or a
/// failed determinism self-check.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchError(pub String);

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for BenchError {}

impl From<simdram_core::CoreError> for BenchError {
    fn from(err: simdram_core::CoreError) -> Self {
        BenchError(format!("simdram-core: {err}"))
    }
}

impl From<simdram_serve::ServeError> for BenchError {
    fn from(err: simdram_serve::ServeError) -> Self {
        BenchError(format!("simdram-serve: {err}"))
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input generator seed.
    pub seed: u64,
    /// Seconds of passes the whole run measures, split evenly over the measurements
    /// (each runs at least one pass); a traced run adds one more share.
    pub seconds: f64,
    /// Also run the traced phase and report per-layer metrics.
    pub trace: bool,
    /// Problem size.
    pub scale: Scale,
    /// Test hook: corrupt every expected value so verification must fail (honoured
    /// by [`measure_once`] and the traced phase).
    pub corrupt_expected: bool,
}

/// Untraced measurements per run, each one set-up plus one phase in a fresh child
/// process of this executable, so every set-up is cold and no measurement inherits
/// another's memory placement. `setup_s` and `peak_rss_mb` are medians over them;
/// `lane_bitops_per_s` pools their segments.
pub const MEASUREMENTS: usize = 3;

impl Options {
    /// The paper-scale defaults for `workload` and `seed`.
    pub fn new(workload: &str, seed: u64) -> Self {
        Options {
            workload: workload.to_string(),
            seed,
            seconds: 10.0,
            trace: false,
            scale: Scale::Paper,
            corrupt_expected: false,
        }
    }

    fn seconds_each(&self) -> f64 {
        self.seconds / MEASUREMENTS as f64
    }
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every result verified.
    pub correct: bool,
    /// Results checked (read-back vectors or served jobs).
    pub attempted: u64,
    /// Results that failed verification, were refused or ended in a typed error.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// The start-up record: effective configuration, geometry and host facts (JSON).
    pub startup: String,
    /// The traced phase's spans as JSON lines (traced runs only).
    pub spans: Option<String>,
}

/// One untraced measurement: one set-up and one phase, in one process.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Set-up time, benchmark-only work excluded.
    pub setup_s: f64,
    /// Machine (or fleet) construction time within the set-up.
    pub construct_s: f64,
    /// `VmHWM` of the measuring process after its phase, in MiB.
    pub peak_rss_mb: f64,
    /// Σ(elements × operand bits) per timed host second of every segment.
    pub rates: Vec<f64>,
    /// The first pass's modeled outcome.
    pub modeled: Modeled,
    /// Results checked.
    pub attempted: u64,
    /// Results failed.
    pub failed: u64,
}

/// Prefix of the line a child process reports its measurement on.
const MEASUREMENT_TAG: &str = "measurement";

impl Measurement {
    /// The measurement as one line of `key=value` fields. Floats use Rust's
    /// shortest round-trip form, so decoding restores every bit.
    pub fn encode(&self) -> String {
        let m = &self.modeled;
        let rates: Vec<String> = self.rates.iter().map(f64::to_string).collect();
        format!(
            "{MEASUREMENT_TAG} setup_s={} construct_s={} peak_rss_mb={} attempted={} failed={} \
             element_ops={} ns={} nj={} commands={} ok_ratio={} p50={} p99={} rates={}",
            self.setup_s,
            self.construct_s,
            self.peak_rss_mb,
            self.attempted,
            self.failed,
            m.element_ops,
            m.ns,
            m.nj,
            m.commands,
            m.ok_ratio,
            m.turnaround_p50_us,
            m.turnaround_p99_us,
            rates.join(",")
        )
    }

    /// Parses [`Measurement::encode`]'s line.
    ///
    /// # Errors
    ///
    /// A line that is not an encoded measurement.
    pub fn decode(line: &str) -> Result<Self, BenchError> {
        let bad = || BenchError(format!("malformed measurement line `{line}`"));
        let mut fields = line.split_whitespace();
        if fields.next() != Some(MEASUREMENT_TAG) {
            return Err(bad());
        }
        let map: std::collections::HashMap<&str, &str> =
            fields.filter_map(|f| f.split_once('=')).collect();
        let float = |k: &str| {
            map.get(k)
                .and_then(|v| v.parse::<f64>().ok())
                .ok_or_else(bad)
        };
        let int = |k: &str| {
            map.get(k)
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(bad)
        };
        let rates = map
            .get("rates")
            .ok_or_else(bad)?
            .split(',')
            .filter(|r| !r.is_empty())
            .map(|r| r.parse::<f64>().map_err(|_| bad()))
            .collect::<Result<Vec<f64>, BenchError>>()?;
        Ok(Measurement {
            setup_s: float("setup_s")?,
            construct_s: float("construct_s")?,
            peak_rss_mb: float("peak_rss_mb")?,
            rates,
            modeled: Modeled {
                element_ops: int("element_ops")?,
                ns: float("ns")?,
                nj: float("nj")?,
                commands: int("commands")?,
                ok_ratio: float("ok_ratio")?,
                turnaround_p50_us: float("p50")?,
                turnaround_p99_us: float("p99")?,
            },
            attempted: int("attempted")?,
            failed: int("failed")?,
        })
    }
}

fn unknown(workload: &str) -> BenchError {
    BenchError(format!(
        "unknown workload `{workload}` (expected one of {})",
        WORKLOADS.join(", ")
    ))
}

/// Runs one workload.
///
/// # Errors
///
/// An unknown workload, a typed error from the program, a configuration that is not
/// the fixed one, a failed child process, or modeled outcomes that differ between
/// measurements or between the untraced and traced runs.
pub fn run(opts: &Options) -> Result<Outcome, BenchError> {
    match opts.workload.as_str() {
        Stream::NAME => run_with::<Stream>(opts),
        Compute::NAME => run_with::<Compute>(opts),
        Serve::NAME => run_with::<Serve>(opts),
        Fleet::NAME => run_with::<Fleet>(opts),
        other => Err(unknown(other)),
    }
}

/// Takes one untraced measurement in this process (the child side of a run). Returns it with the start-up record.
///
/// # Errors
///
/// As [`run`].
pub fn measure_once(opts: &Options) -> Result<(Measurement, String), BenchError> {
    match opts.workload.as_str() {
        Stream::NAME => measure::<Stream>(opts),
        Compute::NAME => measure::<Compute>(opts),
        Serve::NAME => measure::<Serve>(opts),
        Fleet::NAME => measure::<Fleet>(opts),
        other => Err(unknown(other)),
    }
}

/// One measured phase: its passes, each pass's timed host seconds, and the phase's
/// timed wall clock (benchmark-only work excluded).
struct Phase {
    passes: Vec<Pass>,
    host_s: Vec<f64>,
    wall_timed_s: f64,
    first_span: usize,
}

impl Phase {
    /// Σ(elements × operand bits) per timed host second of each segment (a pass,
    /// unless the pass reports its own segments).
    fn rates(&self) -> Vec<f64> {
        let mut rates = Vec::new();
        for (pass, &host_s) in self.passes.iter().zip(&self.host_s) {
            if pass.segments.is_empty() {
                rates.push(pass.bitops / host_s);
            } else {
                rates.extend(pass.segments.iter().map(|&(bits, s)| bits / s));
            }
        }
        rates
    }
}

/// Runs passes until `seconds` have elapsed (at least one).
fn phase<W: Workload>(w: &mut W, ctx: &mut Ctx, seconds: f64) -> Result<Phase, BenchError> {
    let first_span = ctx.tr.mark();
    let start = Instant::now();
    let untimed_start = ctx.tr.untimed_ns();
    let mut passes = Vec::new();
    let mut host_s = Vec::new();
    loop {
        let pass_start = Instant::now();
        let untimed = ctx.tr.untimed_ns();
        passes.push(w.pass(ctx)?);
        let excluded = (ctx.tr.untimed_ns() - untimed) as f64 / 1e9;
        host_s.push(pass_start.elapsed().as_secs_f64() - excluded);
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let excluded = (ctx.tr.untimed_ns() - untimed_start) as f64 / 1e9;
    Ok(Phase {
        passes,
        host_s,
        wall_timed_s: start.elapsed().as_secs_f64() - excluded,
        first_span,
    })
}

/// Fails unless the effective configuration is the benchmark's fixed one.
fn check_config(startup: &workloads::Startup, threads: usize) -> Result<(), BenchError> {
    let c = &startup.config;
    let expected = workloads::fixed_config(
        c.dram.clone(),
        c.compute_banks,
        c.compute_subarrays_per_bank,
        threads,
    );
    let same = c.execution == expected.execution
        && c.functional == expected.functional
        && c.timing_backend == expected.timing_backend
        && c.faults == expected.faults
        && c.guard == expected.guard
        && c.mimd_windows == expected.mimd_windows
        && c.target == expected.target;
    if same {
        Ok(())
    } else {
        Err(BenchError(format!(
            "effective configuration differs from the fixed benchmark configuration: {c:?}"
        )))
    }
}

/// Times μProgram synthesis (`build_program`) and compilation
/// (`CompiledProgram::compile`) over the workload's (op, width) set, in ms.
fn uprog_probe<W: Workload>(w: &W, ctx: &mut Ctx) -> Result<(f64, f64), BenchError> {
    let config = w.startup().config;
    let costs = simdram_dram::CommandCosts::new(&config.dram);
    let (mut build_s, mut compile_s) = (0.0, 0.0);
    for (op, width) in w.programs() {
        let start = Instant::now();
        let program = ctx.tr.untimed("uprog.build", || {
            build_program(Target::Simdram, op, width, CodegenOptions::optimized())
        });
        build_s += start.elapsed().as_secs_f64();
        let start = Instant::now();
        ctx.tr
            .untimed("uprog.compile", || {
                CompiledProgram::compile(&program, &costs)
            })
            .map_err(|e| BenchError(format!("compiling {op} at {width} bits: {e}")))?;
        compile_s += start.elapsed().as_secs_f64();
    }
    Ok((build_s * 1e3, compile_s * 1e3))
}

/// Sets the workload up once. Returns the state, the set-up seconds (benchmark-only
/// warm-up work excluded) and the construction seconds.
fn set_up<W: Workload>(opts: &Options, ctx: &mut Ctx) -> Result<(W, f64, f64), BenchError> {
    let start = Instant::now();
    let untimed = ctx.tr.untimed_ns();
    let (w, construct_s) = W::setup(opts.scale, opts.seed, ctx)?;
    let excluded = (ctx.tr.untimed_ns() - untimed) as f64 / 1e9;
    let startup = w.startup();
    check_config(&startup, ctx.threads)?;
    Ok((w, start.elapsed().as_secs_f64() - excluded, construct_s))
}

fn measure<W: Workload>(opts: &Options) -> Result<(Measurement, String), BenchError> {
    let threads = host::threads();
    let mut ctx = Ctx::new(false, threads, opts.corrupt_expected);
    let (mut w, setup_s, construct_s) = set_up::<W>(opts, &mut ctx)?;
    let startup = metrics::startup_json(W::NAME, opts, &w.startup(), threads);
    let phase = phase(&mut w, &mut ctx, opts.seconds_each())?;
    drop(w);
    let measurement = Measurement {
        setup_s,
        construct_s,
        peak_rss_mb: host::peak_rss_mb(),
        rates: phase.rates(),
        modeled: phase.passes[0].modeled.clone(),
        attempted: ctx.check.attempted,
        failed: ctx.check.failed,
    };
    Ok((measurement, startup))
}

/// Takes one measurement in a child process of this executable and waits for it.
fn measure_in_child(opts: &Options) -> Result<(Measurement, String), BenchError> {
    let exe = std::env::current_exe()
        .map_err(|e| BenchError(format!("cannot locate the benchmark executable: {e}")))?;
    let scale = match opts.scale {
        Scale::Paper => "paper",
        Scale::Tiny => "tiny",
    };
    let output = std::process::Command::new(exe)
        .args([
            "--child",
            "1",
            "--workload",
            &opts.workload,
            "--scale",
            scale,
        ])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| BenchError(format!("cannot run a measurement process: {e}")))?;
    if !output.status.success() {
        return Err(BenchError(format!(
            "measurement process failed ({})",
            output.status
        )));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let measurement = Measurement::decode(lines.next().unwrap_or(""))?;
    let startup = lines.next().unwrap_or("{}").to_string();
    Ok((measurement, startup))
}

fn run_with<W: Workload>(opts: &Options) -> Result<Outcome, BenchError> {
    let threads = host::threads();
    let calib_gbps = host::calibrate_gbps();
    let mut measurements = Vec::with_capacity(MEASUREMENTS);
    let mut startup = String::new();
    for _ in 0..MEASUREMENTS {
        let (m, s) = measure_in_child(opts)?;
        if measurements.is_empty() {
            startup = s;
        }
        measurements.push(m);
    }
    let first = measurements[0].modeled.clone();
    if let Some(m) = measurements.iter().find(|m| !m.modeled.same_as(&first)) {
        return Err(BenchError(format!(
            "determinism self-check failed: two measurements of seed {} modeled different \
             outcomes:\n  {first:?}\n  {:?}",
            opts.seed, m.modeled
        )));
    }
    let startup = metrics::with_calibration(&startup, calib_gbps);
    let mut rates: Vec<f64> = measurements.iter().flat_map(|m| m.rates.clone()).collect();
    let lane_bitops_per_s = host::median(&mut rates);
    let mut setup_s: Vec<f64> = measurements.iter().map(|m| m.setup_s).collect();
    let mut construct_s: Vec<f64> = measurements.iter().map(|m| m.construct_s).collect();
    let attempted: u64 = measurements.iter().map(|m| m.attempted).sum();
    let failed: u64 = measurements.iter().map(|m| m.failed).sum();

    if !opts.trace {
        let mut rss: Vec<f64> = measurements.iter().map(|m| m.peak_rss_mb).collect();
        let metrics = metrics::end_to_end(
            host::median(&mut setup_s),
            lane_bitops_per_s,
            host::median(&mut rss),
            &first,
            attempted,
            failed,
        );
        return Ok(outcome(attempted, failed, metrics, startup, None));
    }

    let mut ctx = Ctx::new(true, threads, opts.corrupt_expected);
    let (mut w, _, construct) = set_up::<W>(opts, &mut ctx)?;
    construct_s.push(construct);
    let (build_ms, compile_ms) = uprog_probe(&w, &mut ctx)?;
    ctx.bytes.clear();
    let traced = phase(&mut w, &mut ctx, opts.seconds_each())?;
    drop(w);
    let traced_modeled = &traced.passes[0].modeled;
    if !first.same_as(traced_modeled) {
        return Err(BenchError(format!(
            "determinism self-check failed: the traced run's modeled outcome differs from \
             the untraced run's for seed {}:\n  untraced {first:?}\n  traced   {traced_modeled:?}",
            opts.seed
        )));
    }
    let layers = ctx.tr.layers(traced.first_span);
    let metrics = metrics::per_layer(&metrics::LayerInputs {
        layers: &layers,
        bytes: &ctx.bytes,
        passes: traced.passes.len() as f64,
        first: &traced.passes[0],
        machine_new_s: host::median(&mut construct_s),
        uprog_build_ms: build_ms,
        uprog_compile_ms: compile_ms,
        calib_gbps,
        threads,
        untraced_lane_bitops_per_s: lane_bitops_per_s,
        traced_lane_bitops_per_s: host::median(&mut traced.rates()),
        coverage: ctx.tr.top_level_timed_ns(traced.first_span) as f64 / 1e9 / traced.wall_timed_s,
    });
    let spans = ctx.tr.to_jsonl();
    Ok(outcome(
        attempted + ctx.check.attempted,
        failed + ctx.check.failed,
        metrics,
        startup,
        Some(spans),
    ))
}

fn outcome(
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    startup: String,
    spans: Option<String>,
) -> Outcome {
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        startup,
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurements_round_trip_through_their_line() {
        let m = Measurement {
            setup_s: 2.5,
            construct_s: 0.1 + 0.2,
            peak_rss_mb: 4219.34765625,
            rates: vec![1.0e9 / 3.0, 5.5e8],
            modeled: Modeled {
                element_ops: 123,
                ns: 1.0 / 7.0,
                nj: 9.75,
                commands: 42,
                ok_ratio: 1.0,
                turnaround_p50_us: 95.1,
                turnaround_p99_us: 340.4954,
            },
            attempted: 10,
            failed: 0,
        };
        assert_eq!(Measurement::decode(&m.encode()).unwrap(), m);
        assert!(Measurement::decode("nonsense").is_err());
    }
}
