//! The metric catalogue (names and units, in `BENCHMARK.json` order) and the
//! functions that fill it from a run.

use std::collections::BTreeMap;

use crate::json;
use crate::trace::LayerTime;
use crate::workloads::{Modeled, Pass, Startup};
use crate::Options;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// End-to-end metrics `(name, unit)`, reported by untraced runs. Modeled numbers use
/// the simulated clock and repeat exactly; the others use the host clock.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("lane_bitops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("modeled_gops", "GOPS"),
    ("modeled_gops_per_w", "GOPS/W"),
    ("ok_ratio", "ratio"),
];

/// Per-layer metrics `(name, unit)`, reported by traced runs. Span times and call
/// counts are per pass; a metric a workload has no layer for reads 0. Modeled-clock
/// times carry the unit `modeled_us` to keep them apart from host time.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("machine.new.s", "s"),
    ("machine.write.self_ms", "ms"),
    ("machine.write.calls", "count"),
    ("machine.write.mb_per_s", "MB/s"),
    ("machine.read.self_ms", "ms"),
    ("machine.read.calls", "count"),
    ("machine.read.mb_per_s", "MB/s"),
    ("machine.alloc_free.self_ms", "ms"),
    ("machine.run.self_ms", "ms"),
    ("machine.run.calls", "count"),
    ("transpose.h2v.mb_per_s", "MB/s"),
    ("transpose.v2h.mb_per_s", "MB/s"),
    ("transpose.share_of_io", "ratio"),
    ("uprog.build.ms", "ms"),
    ("uprog.compile.ms", "ms"),
    ("plan.compile.self_ms", "ms"),
    ("plan.compile.calls", "count"),
    ("plan.broadcast_savings", "ratio"),
    ("dram.commands", "count"),
    ("dram.broadcasts", "count"),
    ("dram.dispatch_windows", "count"),
    ("dram.host_ns_per_command", "ns"),
    ("estimate.transpose_share", "ratio"),
    ("serve.write_input.self_ms", "ms"),
    ("serve.submit.self_ms", "ms"),
    ("serve.run_window.self_ms", "ms"),
    ("serve.take_result.self_ms", "ms"),
    ("serve.release_input.self_ms", "ms"),
    ("serve.run_window.calls", "count"),
    ("serve.dispatch_savings", "ratio"),
    ("serve.jain_fairness", "ratio"),
    ("serve.max_queue_depth", "count"),
    ("serve.jobs_per_window", "count"),
    ("serve.rejected", "count"),
    ("serve.submit_lag_us.p99", "modeled_us"),
    ("serve.turnaround_us.p50", "modeled_us"),
    ("serve.turnaround_us.p99", "modeled_us"),
    ("serve.turnaround.samples", "count"),
    ("fleet.write.self_ms", "ms"),
    ("fleet.binary.self_ms", "ms"),
    ("fleet.unary.self_ms", "ms"),
    ("fleet.reshard.self_ms", "ms"),
    ("fleet.read.self_ms", "ms"),
    ("fleet.movement_share", "ratio"),
    ("fleet.crossing_elements", "count"),
    ("fleet.device_imbalance", "ratio"),
    ("host.calib_gbps", "GB/s"),
    ("host.threads", "count"),
    ("host.lane_bitops_per_calib_gb", "bitops/GB"),
    ("bench.verify.self_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Span names whose self time is the workload's compute (for host ns per command).
const COMPUTE_SPANS: [&str; 4] = [
    "machine.run",
    "serve.run_window",
    "fleet.binary",
    "fleet.unary",
];
/// Span names whose self time is host ↔ device I/O (the transposition share's base).
const IO_SPANS: [&str; 5] = [
    "machine.write",
    "machine.read",
    "fleet.write",
    "fleet.read",
    "fleet.reshard",
];

/// Fills `names` in catalogue order from `values`; absent names read 0.
fn catalogue(
    names: &[(&'static str, &'static str)],
    values: &BTreeMap<String, f64>,
) -> Vec<Metric> {
    names
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: values.get(name).copied().unwrap_or(0.0),
            unit,
        })
        .collect()
}

/// The end-to-end metrics of an untraced run. `ok_ratio` is taken over every result
/// the run checked (`attempted`, of which `failed` failed), in every pass of every
/// measurement.
pub fn end_to_end(
    setup_s: f64,
    lane_bitops_per_s: f64,
    peak_rss_mb: f64,
    modeled: &Modeled,
    attempted: u64,
    failed: u64,
) -> Vec<Metric> {
    let values = BTreeMap::from([
        ("setup_s".to_string(), setup_s),
        ("lane_bitops_per_s".to_string(), lane_bitops_per_s),
        ("peak_rss_mb".to_string(), peak_rss_mb),
        ("modeled_gops".to_string(), modeled.gops()),
        ("modeled_gops_per_w".to_string(), modeled.gops_per_w()),
        (
            "ok_ratio".to_string(),
            (attempted - failed) as f64 / attempted.max(1) as f64,
        ),
    ]);
    catalogue(&END_TO_END, &values)
}

/// What the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    /// Per-span-name totals over the traced phase.
    pub layers: &'a BTreeMap<&'static str, LayerTime>,
    /// Payload bytes per span name over the traced phase.
    pub bytes: &'a BTreeMap<&'static str, u64>,
    /// Passes in the traced phase.
    pub passes: f64,
    /// The traced phase's first pass (its exact counts).
    pub first: &'a Pass,
    /// Median machine (or fleet) construction time over every set-up of the run.
    pub machine_new_s: f64,
    /// μProgram synthesis time over the workload's (op, width) set.
    pub uprog_build_ms: f64,
    /// μProgram compile time over the same set.
    pub uprog_compile_ms: f64,
    /// Host copy bandwidth.
    pub calib_gbps: f64,
    /// Host worker threads.
    pub threads: usize,
    /// `lane_bitops_per_s` of the untraced phase.
    pub untraced_lane_bitops_per_s: f64,
    /// `lane_bitops_per_s` of the traced phase.
    pub traced_lane_bitops_per_s: f64,
    /// Top-level span time over the traced phase's timed wall time.
    pub coverage: f64,
}

/// The per-layer metrics of a traced run.
pub fn per_layer(input: &LayerInputs<'_>) -> Vec<Metric> {
    let self_ns = |name: &str| input.layers.get(name).map_or(0.0, |l| l.self_ns as f64);
    let per_pass_ms = |name: &str| self_ns(name) / 1e6 / input.passes;
    let calls = |name: &str| input.layers.get(name).map_or(0.0, |l| l.calls as f64) / input.passes;
    let mb_per_s = |name: &str| {
        let ns = self_ns(name);
        let bytes = input.bytes.get(name).copied().unwrap_or(0) as f64;
        if ns > 0.0 {
            bytes / 1e6 / (ns / 1e9)
        } else {
            0.0
        }
    };
    let mut values: BTreeMap<String, f64> = input
        .first
        .counts
        .iter()
        .map(|(&k, &v)| (k.to_string(), v))
        .collect();
    for name in [
        "machine.write",
        "machine.read",
        "machine.alloc_free",
        "machine.run",
        "plan.compile",
        "serve.write_input",
        "serve.submit",
        "serve.run_window",
        "serve.take_result",
        "serve.release_input",
        "fleet.write",
        "fleet.binary",
        "fleet.unary",
        "fleet.reshard",
        "fleet.read",
        "bench.verify",
    ] {
        values.insert(format!("{name}.self_ms"), per_pass_ms(name));
    }
    for name in [
        "machine.write",
        "machine.read",
        "machine.run",
        "plan.compile",
        "serve.run_window",
    ] {
        values.insert(format!("{name}.calls"), calls(name));
    }
    values.insert(
        "machine.write.mb_per_s".to_string(),
        mb_per_s("machine.write"),
    );
    values.insert(
        "machine.read.mb_per_s".to_string(),
        mb_per_s("machine.read"),
    );
    values.insert(
        "transpose.h2v.mb_per_s".to_string(),
        mb_per_s("transpose.h2v"),
    );
    values.insert(
        "transpose.v2h.mb_per_s".to_string(),
        mb_per_s("transpose.v2h"),
    );
    let io_ns: f64 = IO_SPANS.iter().map(|n| self_ns(n)).sum();
    let probe_ns = self_ns("transpose.h2v") + self_ns("transpose.v2h");
    values.insert(
        "transpose.share_of_io".to_string(),
        if io_ns > 0.0 { probe_ns / io_ns } else { 0.0 },
    );
    values.insert("machine.new.s".to_string(), input.machine_new_s);
    values.insert("uprog.build.ms".to_string(), input.uprog_build_ms);
    values.insert("uprog.compile.ms".to_string(), input.uprog_compile_ms);
    let commands = input.first.modeled.commands as f64;
    values.insert("dram.commands".to_string(), commands);
    let compute_ns: f64 = COMPUTE_SPANS.iter().map(|n| self_ns(n)).sum::<f64>() / input.passes;
    values.insert(
        "dram.host_ns_per_command".to_string(),
        if commands > 0.0 {
            compute_ns / commands
        } else {
            0.0
        },
    );
    values.insert("host.calib_gbps".to_string(), input.calib_gbps);
    values.insert("host.threads".to_string(), input.threads as f64);
    values.insert(
        "host.lane_bitops_per_calib_gb".to_string(),
        input.untraced_lane_bitops_per_s / input.calib_gbps,
    );
    values.insert("trace.coverage".to_string(), input.coverage);
    values.insert(
        "trace.overhead".to_string(),
        input.untraced_lane_bitops_per_s / input.traced_lane_bitops_per_s - 1.0,
    );
    catalogue(&PER_LAYER, &values)
}

/// The start-up record: effective configuration and geometry, read back from the
/// constructed machine, plus host facts and any `SIMDRAM_*` variables present.
pub fn startup_json(workload: &str, opts: &Options, startup: &Startup, threads: usize) -> String {
    let c = &startup.config;
    let d = startup.devices;
    let env: Vec<String> = crate::host::simdram_env()
        .iter()
        .map(|s| json::string(s))
        .collect();
    let record = json::object([
        ("workload", json::string(workload)),
        ("seed", opts.seed.to_string()),
        ("scale", json::string(&format!("{:?}", opts.scale))),
        ("host_threads", threads.to_string()),
        ("execution", json::string(&format!("{:?}", c.execution))),
        ("functional", json::string(&format!("{:?}", c.functional))),
        ("timing_backend", json::string(c.timing_backend.name())),
        ("faults", json::string(&format!("{:?}", c.faults))),
        ("guard", json::string(&format!("{:?}", c.guard))),
        ("mimd_windows", c.mimd_windows.to_string()),
        ("target", json::string(&format!("{:?}", c.target))),
        ("devices", d.to_string()),
        ("lanes", (c.total_lanes() * d).to_string()),
        (
            "compute_subarrays",
            (c.compute_banks * c.compute_subarrays_per_bank * d).to_string(),
        ),
        (
            "total_subarrays",
            (c.dram.total_subarrays() * d).to_string(),
        ),
        ("rows_per_subarray", c.dram.rows_per_subarray.to_string()),
        ("row_bytes", c.dram.row_bytes().to_string()),
        ("capacity_bytes", (c.dram.capacity_bytes() * d).to_string()),
        ("simdram_env", format!("[{}]", env.join(", "))),
        (
            "glibc_tunables",
            json::string(&std::env::var(crate::host::TUNABLES_VAR).unwrap_or_default()),
        ),
    ]);
    json::object([("startup", record)])
}

/// Adds the host calibration to a start-up record made by [`startup_json`].
pub fn with_calibration(startup: &str, calib_gbps: f64) -> String {
    match startup.strip_suffix("}}") {
        Some(head) => format!(
            "{head}, \"host_calib_gbps\": {}}}}}",
            json::number(calib_gbps)
        ),
        None => startup.to_string(),
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric with its unit.
pub fn result_json(outcome: &crate::Outcome) -> String {
    let metrics = json::object(outcome.metrics.iter().map(|m| {
        (
            m.name,
            json::object([
                ("value", json::number(m.value)),
                ("unit", json::string(m.unit)),
            ]),
        )
    }));
    json::object([
        ("correct", outcome.correct.to_string()),
        ("attempted", outcome.attempted.to_string()),
        ("failed", outcome.failed.to_string()),
        ("metrics", metrics),
    ])
}
