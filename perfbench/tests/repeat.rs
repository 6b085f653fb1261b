//! The benchmark's own checks: exact per-layer counts repeat run to run,
//! the output checks accept every workload and reject a broken record,
//! and `BENCHMARK.json` names exactly the metrics the binary prints.
//!
//! Grids here are the benchmark's specs shrunk (fewer cores, records and
//! instructions, a shorter attack window) so the suite stays fast in a
//! debug build; the shape of every grid is unchanged.

use std::path::PathBuf;

use perfbench::layers::{check_record, digest, grid_counts, parse_records};
use perfbench::run::{run_grid, setup_pass};
use perfbench::spans::Tracer;
use perfbench::workloads::{spec_json, WORKLOADS};
use perfbench::{END_TO_END, PER_LAYER};
use srs_sim::json::Json;
use srs_sim::ExperimentSpec;

fn small_spec(workload: &str, seed: u64) -> String {
    let mut spec = ExperimentSpec::parse(&spec_json(workload, seed).expect("known workload"))
        .expect("benchmark specs parse");
    spec.patch.cores = Some(spec.patch.cores.unwrap_or(2).min(2));
    spec.patch.trace_records_per_core = Some(4_000);
    if spec.attacks.is_empty() {
        spec.patch.target_instructions = Some(6_000);
    } else {
        spec.patch.max_sim_ns = Some(600_000);
    }
    spec.to_json_string()
}

fn out_path(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create out/");
    dir.join(format!("test-{name}.jsonl"))
}

/// One grid run's result bytes.
fn grid_bytes(spec: &str, name: &str) -> Vec<u8> {
    let path = out_path(name);
    let run = run_grid(spec, &path, None, None).expect("grid runs");
    assert_eq!(run.failed, 0);
    std::fs::read(&path).expect("results written")
}

#[test]
fn counts_repeat_exactly_for_the_same_seed() {
    for workload in WORKLOADS {
        let spec = small_spec(workload.name, 7);
        let first = grid_bytes(&spec, &format!("{}-a", workload.name));
        let second = grid_bytes(&spec, &format!("{}-b", workload.name));
        assert_eq!(digest(&first), digest(&second), "{}: results differ", workload.name);

        let setup_a = setup_pass(&spec, &mut Tracer::new()).expect("set-up");
        let setup_b = setup_pass(&spec, &mut Tracer::new()).expect("set-up");
        assert_eq!(setup_a.records, setup_b.records);
        assert_eq!(setup_a.distinct_traces, setup_b.distinct_traces);
        assert_eq!(setup_a.units, setup_b.units);

        let parse = |bytes: &[u8]| parse_records(&String::from_utf8_lossy(bytes)).expect("parse");
        let counts_a = grid_counts(&parse(&first), &setup_a.units);
        let counts_b = grid_counts(&parse(&second), &setup_b.units);
        assert_eq!(counts_a, counts_b, "{}: counts differ", workload.name);
        assert!(counts_a["system.sim_ms"] > 0.0);
    }
}

#[test]
fn output_checks_accept_every_workload() {
    for workload in WORKLOADS {
        let spec = small_spec(workload.name, 11);
        let faults_on = ExperimentSpec::parse(&spec).expect("spec").faults.is_some();
        let bytes = grid_bytes(&spec, &format!("{}-checks", workload.name));
        let records = parse_records(&String::from_utf8_lossy(&bytes)).expect("parse");
        assert!(!records.is_empty());
        for (i, record) in records.iter().enumerate() {
            let errors = check_record(record, i, faults_on);
            assert!(errors.is_empty(), "{} cell {i}: {errors:?}", workload.name);
        }
    }
}

#[test]
fn output_checks_reject_a_protected_cell_that_crossed() {
    let spec = small_spec("attack_faults", 3);
    let bytes = grid_bytes(&spec, "attack-reject");
    let text = String::from_utf8_lossy(&bytes);
    let line = text
        .lines()
        .find(|l| l.contains("\"defense\": \"srs\"") || l.contains("\"defense\":\"srs\""))
        .expect("an srs cell");
    let broken = line.replacen("\"trh_crossed\": false", "\"trh_crossed\": true", 1);
    assert_ne!(broken, line, "record carries trh_crossed");
    let record = Json::parse(&broken).expect("still JSON");
    let index =
        record.get("scenario").and_then(|s| s.get("index")).and_then(Json::as_u64).expect("index")
            as usize;
    assert!(!check_record(&record, index, true).is_empty());
}

#[test]
fn benchmark_json_names_the_printed_metrics() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        json.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect("field").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let owned = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table.iter().map(|(n, u)| ((*n).to_string(), (*u).to_string())).collect()
    };
    assert_eq!(listed("end_to_end"), owned(&END_TO_END));
    assert_eq!(listed("per_layer"), owned(&PER_LAYER));
    let workloads: Vec<(String, String)> = json
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            let field = |f: &str| w.get(f).and_then(Json::as_str).expect("field").to_string();
            (field("name"), field("why"))
        })
        .collect();
    let ours: Vec<(String, String)> =
        WORKLOADS.iter().map(|w| (w.name.to_string(), w.why.to_string())).collect();
    assert_eq!(workloads, ours);
}
