//! Smoke test of the benchmark at its `--check` scale.
//!
//! Needs `repro_all` built into the same target directory as the
//! benchmark (the benchmark prints the command when it is missing), e.g.
//!
//! ```text
//! export CARGO_TARGET_DIR=.bench_build
//! cargo build --release -p kfi-bench --bin repro_all
//! cargo test --release --manifest-path kfi_benchmark/Cargo.toml
//! ```

use kfi_benchmark::json::Json;
use kfi_benchmark::workload::{campaign, setup, Workload, DEFAULT_SEED};
use kfi_core::{matrix_to_csv, run_matrix, MatrixConfig};
use std::collections::BTreeMap;
use std::process::Command;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` metric list.
fn listed(b: &Json, key: &str) -> Vec<(String, String)> {
    let list = b.get(key).and_then(Json::as_array).expect("metric list");
    list.iter()
        .map(|m| {
            let field = |f| m.get(f).and_then(Json::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn check_scale_prints_every_listed_metric() {
    let out = Command::new(env!("CARGO_BIN_EXE_kfi_benchmark"))
        .args(["--check", "--seed", &DEFAULT_SEED.to_string()])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "kfi_benchmark --check failed:\n{}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );

    // workload -> metric -> (value, unit), from `workload metric value unit` lines.
    let mut printed: BTreeMap<String, BTreeMap<String, (f64, String)>> = BTreeMap::new();
    for line in stdout.lines().filter(|l| !l.starts_with('#')) {
        let f: Vec<&str> = line.split_whitespace().collect();
        let value: f64 = f[2].parse().unwrap_or_else(|_| panic!("non-numeric value: {line}"));
        printed.entry(f[0].into()).or_default().insert(f[1].into(), (value, f[3].into()));
    }

    let b = benchmark_json();
    let workloads: Vec<&str> = b
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workload list")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names, "BENCHMARK.json workloads differ from the benchmark's");

    for w in &workloads {
        let got = printed.get(*w).unwrap_or_else(|| panic!("{w} printed nothing"));
        for (name, unit) in listed(&b, "end_to_end").into_iter().chain(listed(&b, "per_layer")) {
            let (value, printed_unit) =
                got.get(&name).unwrap_or_else(|| panic!("{w} did not print {name}"));
            assert_eq!(printed_unit, &unit, "{w} {name} unit");
            assert!(value.is_finite(), "{w} {name} = {value}");
        }
        let coverage = got["trace.coverage"].0;
        assert!(coverage >= 0.95, "{w}: spans cover only {coverage} of the traced wall time");
    }
}

#[test]
fn assembled_matrix_csv_equals_run_matrix() {
    let w = Workload::TrafficMatrix;
    let seed = DEFAULT_SEED;
    let prepared = setup(w, seed, true).expect("traffic setup");
    // Only the dist workload journals.
    let unused = std::path::Path::new("unused.journal");
    let ours = campaign(w, &prepared, seed, true, unused).expect("traffic campaign").csv();
    let cfg = MatrixConfig {
        seed,
        threads: kfi_benchmark::workload::HOST_WORKERS,
        max_per_function: w.cap(true),
        ..MatrixConfig::default()
    };
    let reference = matrix_to_csv(&run_matrix(&cfg).expect("run_matrix"));
    assert!(ours == reference, "the benchmark's traffic grid drifted from kfi_core::run_matrix");
}
