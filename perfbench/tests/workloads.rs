//! The benchmark's own tests. They run the benchmark executable itself (parent,
//! child processes and result line) at tiny scale: every workload emits every named
//! metric with its unit and verifies every result, and modeled metrics repeat
//! exactly. A corrupted expected value fails verification, and `BENCHMARK.json`
//! lists exactly the metrics the program emits.

use std::process::Command;

use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::workloads::Scale;
use perfbench::{measure_once, Options, WORKLOADS};

/// What one run of the executable printed and how it exited.
struct Run {
    code: Option<i32>,
    startup: String,
    result: String,
}

fn run_tiny(workload: &str, trace: bool) -> Run {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "tiny"])
        .output()
        .expect("the benchmark executable runs");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    let mut lines = stdout.lines().rev();
    let result = lines.next().unwrap_or_default().to_string();
    let startup = lines.next().unwrap_or_default().to_string();
    Run {
        code: output.status.code(),
        startup,
        result,
    }
}

impl Run {
    /// The raw text of `"<key>": <value>` in the result line, up to the next `,` or `}`.
    fn raw(&self, key: &str) -> &str {
        let pattern = format!("\"{key}\": ");
        let start = self
            .result
            .find(&pattern)
            .unwrap_or_else(|| panic!("{key} missing from {}", self.result))
            + pattern.len();
        let rest = &self.result[start..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        &rest[..end]
    }

    fn int(&self, key: &str) -> u64 {
        self.raw(key).parse().expect(key)
    }

    /// Every metric as `(name, raw value, unit)`, in the order the result line has
    /// them.
    fn metrics(&self) -> Vec<(String, String, String)> {
        let body = &self.result[self.result.find("\"metrics\": {").expect("metrics") + 12..];
        body.split("}, ")
            .map(|entry| {
                let entry = entry.trim_end_matches('}');
                let (name, fields) = entry.split_once(": {").expect("metric entry");
                let (value, unit) = fields.split_once(", \"unit\": ").expect("unit");
                (
                    name.trim_matches('"').to_string(),
                    value.trim_start_matches("\"value\": ").to_string(),
                    unit.trim_matches('"').to_string(),
                )
            })
            .collect()
    }

    fn metric(&self, name: &str) -> f64 {
        self.metrics()
            .into_iter()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("metric {name} missing"))
            .1
            .parse()
            .expect(name)
    }

    fn assert_catalogue(&self, workload: &str, catalogue: &[(&str, &str)]) {
        assert_eq!(self.code, Some(0), "{workload}: {}", self.result);
        assert_eq!(self.raw("correct"), "true", "{workload}");
        assert!(self.int("attempted") > 0, "{workload}");
        assert_eq!(self.int("failed"), 0, "{workload}");
        let emitted: Vec<(String, String)> = self
            .metrics()
            .into_iter()
            .map(|(name, value, unit)| {
                assert!(value.parse::<f64>().is_ok(), "{workload}: {name} = {value}");
                (name, unit)
            })
            .collect();
        let expected: Vec<(String, String)> = catalogue
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(emitted, expected, "{workload}");
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric_and_verifies() {
    for workload in WORKLOADS {
        let run = run_tiny(workload, false);
        run.assert_catalogue(workload, &END_TO_END);
        assert_eq!(run.metric("ok_ratio"), 1.0, "{workload}");
        for (name, _) in END_TO_END {
            assert!(run.metric(name) > 0.0, "{workload}: {name}");
        }
        assert!(run
            .startup
            .contains("\"functional\": \"Compiled { trace_every: 0 }\""));
        assert!(run.startup.contains("\"timing_backend\": \"analytic\""));
        assert!(run.startup.contains("\"host_calib_gbps\": "));
        let tunables = format!(
            "\"glibc_tunables\": \"{}\"",
            perfbench::host::MALLOC_TUNABLES
        );
        assert!(run.startup.contains(&tunables), "{}", run.startup);
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric_when_traced() {
    for workload in WORKLOADS {
        let run = run_tiny(workload, true);
        run.assert_catalogue(workload, &PER_LAYER);
        for name in ["dram.commands", "trace.coverage", "host.calib_gbps"] {
            assert!(run.metric(name) > 0.0, "{workload}: {name}");
        }
        let spans = concat!(env!("CARGO_MANIFEST_DIR"), "/traces/");
        let spans = std::fs::read_to_string(format!("{spans}{workload}-seed7.jsonl"))
            .expect("traced runs write their spans");
        assert!(spans.lines().count() > 0);
        if workload == "paper1_serve" {
            assert_eq!(run.metric("serve.turnaround.samples"), 48.0);
            assert_eq!(run.metric("serve.rejected"), 0.0);
        }
        if workload == "fleet4_shard" {
            assert!(run.metric("fleet.crossing_elements") > 0.0);
        }
    }
}

#[test]
fn modeled_metrics_repeat_exactly_for_a_seed() {
    for workload in WORKLOADS {
        let first = run_tiny(workload, false);
        let second = run_tiny(workload, false);
        for name in ["modeled_gops", "modeled_gops_per_w", "ok_ratio"] {
            let value = |run: &Run| {
                run.metrics()
                    .into_iter()
                    .find(|(n, _, _)| n == name)
                    .map(|(_, v, _)| v)
            };
            assert_eq!(value(&first), value(&second), "{workload}: {name}");
        }
    }
}

#[test]
fn a_corrupted_expected_value_fails_verification() {
    for workload in WORKLOADS {
        let opts = Options {
            seconds: 0.0,
            scale: Scale::Tiny,
            corrupt_expected: true,
            ..Options::new(workload, 7)
        };
        let (measurement, _) = measure_once(&opts).expect(workload);
        assert!(measurement.attempted > 0, "{workload}");
        assert_eq!(measurement.failed, measurement.attempted, "{workload}");
        assert!(measurement.modeled.ok_ratio < 1.0, "{workload}");
    }
}

#[test]
fn unknown_workloads_and_bad_arguments_are_rejected() {
    let status = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("the benchmark executable runs")
            .status
            .code()
    };
    assert_eq!(status(&["--workload", "no_such_workload"]), Some(2));
    assert_eq!(
        status(&["--workload", "paper1_serve", "--trace", "2"]),
        Some(2)
    );
    assert!(measure_once(&Options::new("no_such_workload", 1)).is_err());
}

#[test]
fn benchmark_json_lists_exactly_the_emitted_metrics_and_workloads() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text: String = std::fs::read_to_string(path)
        .expect("BENCHMARK.json sits at the repository root")
        .split_whitespace()
        .collect();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let listed = text.matches("{\"name\":").count();
    assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len());
    for workload in WORKLOADS {
        assert!(text.contains(&format!("{{\"name\":\"{workload}\",\"why\":")));
    }
}
