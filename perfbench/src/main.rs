//! `perfbench` — run one benchmark workload and print its metrics.
//!
//! ```sh
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig14_paper --seed 49374 --seconds 36 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: set-up passes in this
//! process, then repeated untraced grid runs, each in a fresh child
//! process (so its peak RSS is its own), until `--seconds` are used;
//! each child samples a fixed reference kernel between execution units,
//! and `wall_s` is the grid's time scaled to a quiet host's speed.
//! `--trace 1` makes one untraced reference run, then a traced set-up,
//! grid and solo pass, and prints the per-layer metrics. The last stdout
//! line is one JSON object; a failed output check exits 1 after it.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use perfbench::calib::{self, Probe, QUIET_SAMPLE_S};
use perfbench::layers::{check_record, digest, grid_counts, parse_records, per_defense};
use perfbench::run::{run_grid, setup_pass, solo_pass, Setup, UnitTime};
use perfbench::spans::Tracer;
use perfbench::stats::{median, quantile};
use perfbench::workloads::{spec_json, DEFAULT_SEED, WORKLOADS};
use perfbench::{END_TO_END, PER_LAYER};
use srs_sim::json::Json;

/// Fewest set-up passes per `--trace 0` run; `setup_s` is their median.
const SETUP_PASSES: usize = 3;
/// Fewest host seconds of set-up passes made before each grid run.
const SETUP_SLICE_S: f64 = 0.05;
/// Fewest grid runs per `--trace 0` run, however long they take.
const MIN_REPS: usize = 3;

const USAGE: &str = "usage: perfbench --workload <name> [--seed <n>] [--seconds <n>] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed =
        Args { workload: String::new(), seed: DEFAULT_SEED, seconds: 36, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("bad {flag} '{value}'"));
        match flag.as_str() {
            "--workload" => parsed.workload.clone_from(value),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?,
            "--trace" => parsed.trace = number()? != 0,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !WORKLOADS.iter().any(|w| w.name == parsed.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {names:?}"));
    }
    Ok(parsed)
}

/// Outputs go under this package's own `out/` directory.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("grid-child") => grid_child(&args[1..]),
        _ => parse_args(&args).and_then(|a| bench(&a)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Child-process role: run the grid once, untraced, sampling the
/// reference kernel between units, and report its wall time, its units
/// and this process's peak RSS as one JSON line.
fn grid_child(args: &[String]) -> Result<bool, String> {
    let [spec_path, out_path] = args else { return Err("grid-child <spec> <out>".into()) };
    let spec = std::fs::read_to_string(spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    let mut probe = Probe::new();
    let run = run_grid(&spec, Path::new(out_path), None, Some(&mut probe))?;
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let hwm_kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?
        // The probe's buffer is resident for the whole run; it is the
        // benchmark's, not the grid's.
        .saturating_sub(calib::RESIDENT_BYTES / 1024);
    let units: Vec<String> = run
        .units
        .iter()
        .map(|u| format!("[{}, {}, {}]", u.first_cell, u.wall_s, u.probe_s))
        .collect();
    println!(
        "{{\"wall_s\": {}, \"hwm_kib\": {hwm_kib}, \"completed\": {}, \"failed\": {}, \"units\": [{}]}}",
        run.wall_s,
        run.completed,
        run.failed,
        units.join(", ")
    );
    Ok(true)
}

/// One untraced grid run, made in a child process.
struct Rep {
    wall_s: f64,
    rss_mib: f64,
    completed: usize,
    failed: usize,
    units: Vec<UnitTime>,
    results: Vec<u8>,
}

/// The grid's host time at a quiet host's speed. Other tenants of a
/// shared host slow the grid by up to 2.5x, in bursts shorter than a
/// unit but in a mix that changes over minutes, so a plain median over a
/// run's grids moves with how busy the host was. Each unit's time is
/// divided by the reference kernel's sample time taken around it (the
/// kernel slows with the grid), the median over the run's grids is taken
/// per unit, and the sum is scaled by the kernel's quiet sample time.
/// Time outside units (parse, plan, sink set-up and flush: milliseconds)
/// is added as its plain median.
fn quiet_wall_s(reps: &[Rep]) -> f64 {
    let mut per_unit: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for rep in reps {
        for u in &rep.units {
            per_unit.entry(u.first_cell).or_default().push(u.wall_s / u.probe_s);
        }
    }
    let outside: Vec<f64> =
        reps.iter().map(|r| r.wall_s - r.units.iter().map(|u| u.wall_s).sum::<f64>()).collect();
    per_unit.values().map(|v| median(v)).sum::<f64>() * QUIET_SAMPLE_S + median(&outside)
}

/// The command that starts a grid child. Address-space randomization
/// moves the heap from run to run, which moved peak RSS by up to 15% on
/// the small attack grid, so the child runs without it where `setarch`
/// can turn it off. The child is pinned to one CPU where `taskset` can
/// pin it, so the reference kernel it samples between units runs on the
/// core its grid worker runs on.
fn child_command() -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let cpu = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let list = s.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?.trim();
            list.split([',', '-']).next().map(str::to_owned)
        })
        .unwrap_or_else(|| "0".into());
    let wrappers: [&[&str]; 2] =
        [&["taskset", "-c", &cpu], &["setarch", std::env::consts::ARCH, "-R"]];
    let mut argv: Vec<String> = Vec::new();
    for wrapper in wrappers {
        let usable = Command::new(wrapper[0])
            .args(&wrapper[1..])
            .arg("true")
            .output()
            .is_ok_and(|o| o.status.success());
        if usable {
            argv.extend(wrapper.iter().map(|&a| a.to_owned()));
        }
    }
    let mut command = match argv.first() {
        Some(program) => {
            let mut command = Command::new(program);
            command.args(&argv[1..]).arg(exe);
            command
        }
        None => Command::new(exe),
    };
    command.arg("grid-child");
    Ok(command)
}

fn child_rep(spec_path: &Path, out: &Path) -> Result<Rep, String> {
    let output = child_command()?
        .arg(spec_path)
        .arg(out)
        .output()
        .map_err(|e| format!("cannot start the grid child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "grid child failed ({}): {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let json = Json::parse(line).map_err(|e| format!("grid child printed '{line}': {e}"))?;
    let field = |key: &str| json.get(key).and_then(Json::as_f64).ok_or(format!("child: no {key}"));
    let units = json
        .get("units")
        .and_then(Json::as_array)
        .ok_or("child: no units")?
        .iter()
        .map(|unit| {
            let number = |i: usize| unit.as_array()?.get(i)?.as_f64();
            Some(UnitTime {
                first_cell: number(0)? as usize,
                wall_s: number(1)?,
                probe_s: number(2)?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("child: malformed units")?;
    Ok(Rep {
        wall_s: field("wall_s")?,
        rss_mib: field("hwm_kib")? / 1024.0,
        completed: field("completed")? as usize,
        failed: field("failed")? as usize,
        units,
        results: std::fs::read(out).map_err(|e| format!("{}: {e}", out.display()))?,
    })
}

/// Check one grid's result stream. Returns its records and, per failing
/// cell, what failed.
fn check_grid(
    results: &[u8],
    cells: usize,
    faults_on: bool,
) -> (Vec<Json>, BTreeMap<usize, Vec<String>>) {
    let mut failures: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    let records = match parse_records(&String::from_utf8_lossy(results)) {
        Ok(records) => records,
        Err(e) => {
            failures.extend((0..cells).map(|c| (c, vec![e.clone()])));
            return (Vec::new(), failures);
        }
    };
    for cell in records.len()..cells {
        failures.entry(cell).or_default().push("no result record".into());
    }
    for (position, record) in records.iter().enumerate() {
        let errors = check_record(record, position, faults_on);
        if !errors.is_empty() {
            failures.entry(position).or_default().extend(errors);
        }
    }
    (records, failures)
}

fn print_summary(workload: &str, seed: u64, records: &[Json], setup: &Setup, hash: u64) {
    println!(
        "{workload} seed {seed}: {} cells in {} units, {} distinct traces, results digest {hash:016x}",
        records.len(),
        setup.units.len(),
        setup.distinct_traces
    );
    println!(
        "  {:>10} {:>6} {:>10} {:>12} {:>10}",
        "defense", "cells", "mean norm", "TRH crossed", "bit flips"
    );
    for (defense, cells, norm, crossed, flips) in per_defense(records) {
        println!("  {defense:>10} {cells:>6} {norm:>10.4} {crossed:>12} {flips:>10}");
    }
}

fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &[(&str, &str, f64)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn report_failures(failures: &BTreeMap<usize, Vec<String>>) {
    for (cell, errors) in failures {
        eprintln!("check failed: cell {cell}: {}", errors.join("; "));
    }
}

fn bench(args: &Args) -> Result<bool, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let spec = spec_json(&args.workload, args.seed).ok_or("unknown workload")?;
    let spec_path = dir.join(format!("{}.spec.json", args.workload));
    std::fs::write(&spec_path, &spec).map_err(|e| format!("{}: {e}", spec_path.display()))?;
    let results_path = dir.join(format!("{}.results.jsonl", args.workload));
    if args.trace {
        traced(args, &spec, &spec_path, &results_path)
    } else {
        untraced(args, &spec, &spec_path, &results_path)
    }
}

/// Set-up passes for at least `SETUP_SLICE_S` (at least one). Each
/// pass's time is scaled to a quiet host's speed as `wall_s` is, by the
/// reference kernel sampled just before and after it, and pushed to
/// `times`. Returns the last pass.
fn setup_slice(spec: &str, probe: &mut Probe, times: &mut Vec<f64>) -> Result<Setup, String> {
    let start = Instant::now();
    loop {
        let before = probe.sample_s();
        let pass = setup_pass(spec, &mut Tracer::new())?;
        let after = probe.sample_s();
        times.push(pass.wall_s / ((before + after) / 2.0) * QUIET_SAMPLE_S);
        if start.elapsed().as_secs_f64() >= SETUP_SLICE_S {
            return Ok(pass);
        }
    }
}

fn untraced(
    args: &Args,
    spec: &str,
    spec_path: &Path,
    results_path: &Path,
) -> Result<bool, String> {
    // Set-up passes alternate with grid runs, so that `setup_s`, like
    // `wall_s`, samples the host across the whole window.
    let mut probe = Probe::new();
    let mut setup_times = Vec::new();
    let mut setup;
    let window = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut rounds: Vec<f64> = Vec::new();
    loop {
        let round = Instant::now();
        setup = setup_slice(spec, &mut probe, &mut setup_times)?;
        reps.push(child_rep(spec_path, results_path)?);
        rounds.push(round.elapsed().as_secs_f64());
        let next = Duration::from_secs_f64(median(&rounds));
        if reps.len() >= MIN_REPS && start.elapsed() + next > window {
            break;
        }
    }
    while setup_times.len() < SETUP_PASSES {
        setup = setup_slice(spec, &mut probe, &mut setup_times)?;
    }
    let cells: usize = setup.units.iter().map(Vec::len).sum();

    let first = &reps[0];
    let hash = digest(&first.results);
    let (records, mut failures) = check_grid(&first.results, cells, setup.faults_on);
    let mut failed = failures.len() * reps.len();
    for (n, rep) in reps.iter().enumerate() {
        if rep.completed != cells || rep.failed != 0 || digest(&rep.results) != hash {
            failures.entry(usize::MAX).or_default().push(format!(
                "grid run {n}: {} of {cells} cells completed, {} failed, digest {:016x}",
                rep.completed,
                rep.failed,
                digest(&rep.results)
            ));
            failed += cells;
        }
    }
    let attempted = cells * reps.len();
    failed = failed.min(attempted);

    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let rss: Vec<f64> = reps.iter().map(|r| r.rss_mib).collect();
    let wall_s = quiet_wall_s(&reps);
    let sim_ms = grid_counts(&records, &setup.units).get("system.sim_ms").copied().unwrap_or(0.0);
    print_summary(&args.workload, args.seed, &records, &setup, hash);
    println!(
        "  {} grid runs: wall q1 {:.4} median {:.4} q3 {:.4} (min {:.4}, max {:.4}); \
         at quiet speed {wall_s:.4} s; {} set-up passes: median {:.4} s",
        reps.len(),
        quantile(&walls, 0.25),
        median(&walls),
        quantile(&walls, 0.75),
        quantile(&walls, 0.0),
        quantile(&walls, 1.0),
        setup_times.len(),
        median(&setup_times)
    );
    let values = [
        wall_s,
        sim_ms / wall_s,
        median(&setup_times),
        median(&rss),
        (attempted - failed) as f64 / attempted as f64,
    ];
    let metrics: Vec<(&str, &str, f64)> =
        END_TO_END.iter().zip(values).map(|(&(name, unit), v)| (name, unit, v)).collect();
    let correct = failures.is_empty() && values.iter().all(|v| v.is_finite());
    report_failures(&failures);
    print_result(correct, attempted, failed, &metrics);
    Ok(correct)
}

fn traced(args: &Args, spec: &str, spec_path: &Path, results_path: &Path) -> Result<bool, String> {
    // The traced grid runs first, in a process as fresh as the untraced
    // reference's child, so the two walls compare like with like.
    let mut tracer = Tracer::new();
    let traced_path = results_path.with_extension("traced.jsonl");
    tracer.enter("grid");
    let grid = run_grid(spec, &traced_path, Some(&mut tracer), None)?;
    tracer.exit();
    let traced_results = std::fs::read(&traced_path).map_err(|e| e.to_string())?;
    let reference = child_rep(spec_path, results_path)?;
    let hash = digest(&reference.results);

    tracer.enter("setup");
    let setup = setup_pass(spec, &mut tracer)?;
    tracer.exit();
    let cells: usize = setup.units.iter().map(Vec::len).sum();

    let (records, mut failures) = check_grid(&reference.results, cells, setup.faults_on);
    let traced_hash = digest(&traced_results);
    if traced_hash != hash || grid.completed != cells || reference.completed != cells {
        failures.entry(usize::MAX).or_default().push(format!(
            "traced grid digest {traced_hash:016x} differs from untraced {hash:016x}"
        ));
    }
    tracer.enter("solo");
    let solo = solo_pass(spec, &records, &mut tracer)?;
    tracer.exit();
    for cell in &solo.mismatches {
        failures.entry(*cell).or_default().push("solo run differs from the grid's record".into());
    }
    let spans_path = results_path.with_extension("spans.jsonl");
    tracer.write_jsonl(&spans_path).map_err(|e| format!("{}: {e}", spans_path.display()))?;

    let mut values = grid_counts(&records, &setup.units);
    let setup_self = tracer.self_times_s(tracer.last("setup"));
    let grid_self = tracer.self_times_s(tracer.last("grid"));
    let get = |m: &BTreeMap<&str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let attr = &solo.attr;
    let traced_values = [
        ("workloads.records", setup.records as f64),
        ("workloads.distinct_traces", setup.distinct_traces as f64),
        ("workloads.generate_s", get(&setup_self, "workloads.generate")),
        ("spec.plan_s", get(&setup_self, "spec.parse") + get(&setup_self, "spec.plan")),
        ("share.run_s", get(&grid_self, "campaign.run")),
        ("system.new_s", get(&setup_self, "system.new")),
        ("system.run_baseline_s", solo.baseline_s),
        ("system.run_defended_s", solo.defended_s),
        (
            "system.host_ns_per_act",
            (solo.baseline_s + solo.defended_s) * 1e9 / solo.activations.max(1) as f64,
        ),
        ("system.attr.controller_s", attr.controller_schedule_ns as f64 / 1e9),
        ("system.attr.tracker_s", attr.tracker_ns as f64 / 1e9),
        ("system.attr.defense_s", attr.defense_ns as f64 / 1e9),
        ("system.attr.rit_s", attr.rit_ns as f64 / 1e9),
        ("system.attr.security_s", attr.security_ns as f64 / 1e9),
        ("system.attr.other_s", attr.other_ns as f64 / 1e9),
        ("faults.extra_s", solo.faults_extra_s),
        ("sink.records", records.len() as f64),
        ("sink.bytes", reference.results.len() as f64),
        ("sink.write_s", get(&grid_self, "sink.write") + get(&grid_self, "sink.finish")),
        ("trace.overhead", grid.wall_s / reference.wall_s),
    ];
    values.extend(traced_values);

    print_summary(&args.workload, args.seed, &records, &setup, hash);
    println!(
        "  traced grid {:.4} s vs untraced {:.4} s; solo pass {:.4} s; spans in {}",
        grid.wall_s,
        reference.wall_s,
        tracer.last("solo").map_or(0.0, |i| tracer.duration_s(i)),
        spans_path.display()
    );
    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for (name, unit) in PER_LAYER {
        let value = values.get(name).copied().ok_or(format!("metric {name} was not measured"))?;
        metrics.push((name, unit, value));
    }
    let correct = failures.is_empty() && metrics.iter().all(|m| m.2.is_finite());
    let attempted = 2 * cells;
    let failed = failures.keys().filter(|&&c| c != usize::MAX).count()
        + if failures.contains_key(&usize::MAX) { cells } else { 0 };
    report_failures(&failures);
    print_result(correct, attempted, failed.min(attempted), &metrics);
    Ok(correct)
}
