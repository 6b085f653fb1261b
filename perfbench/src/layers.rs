//! Exact per-layer counts and output checks, read only from public
//! outputs: the result records the campaign sink wrote and the grid's
//! execution units.

use std::collections::BTreeMap;

use srs_sim::json::Json;
use srs_sim::validate_result_record;

/// Parse a results JSONL stream into records, in file order.
///
/// # Errors
///
/// Returns the line number and parse error of the first malformed line.
pub fn parse_records(text: &str) -> Result<Vec<Json>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(n, line)| Json::parse(line).map_err(|e| format!("results line {}: {e}", n + 1)))
        .collect()
}

/// FNV-1a over the bytes of the result stream: equal digests mean
/// byte-identical results.
#[must_use]
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn u64_at(json: &Json, path: &[&str]) -> u64 {
    path.iter().try_fold(json, |node, key| node.get(key)).and_then(Json::as_u64).unwrap_or(0)
}

fn f64_at(json: &Json, path: &[&str]) -> f64 {
    path.iter().try_fold(json, |node, key| node.get(key)).and_then(Json::as_f64).unwrap_or(0.0)
}

fn str_at<'a>(json: &'a Json, path: &[&str]) -> &'a str {
    path.iter().try_fold(json, |node, key| node.get(key)).and_then(Json::as_str).unwrap_or("")
}

fn present<'a>(json: &'a Json, path: &[&str]) -> Option<&'a Json> {
    path.iter().try_fold(json, |node, key| node.get(key)).filter(|node| !node.is_null())
}

/// Whether an attacked cell's security report records a TRH crossing.
fn trh_crossed(r: &Json) -> bool {
    present(r, &["result", "detail", "security", "trh_crossed"])
        .and_then(Json::as_bool)
        .unwrap_or(false)
}

/// The exact (`[count]`) and simulated-time (`[sim]`) per-layer metrics of
/// one grid: `records` in cell order and the grid's execution `units`.
#[must_use]
pub fn grid_counts(records: &[Json], units: &[Vec<usize>]) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let add = |m: &mut BTreeMap<&'static str, f64>, key: &'static str, v: f64| {
        *m.entry(key).or_insert(0.0) += v;
    };
    let detail = |r: &Json, path: &[&str]| -> u64 {
        let mut full = vec!["result", "detail"];
        full.extend_from_slice(path);
        u64_at(r, &full)
    };

    m.insert("spec.cells", records.len() as f64);
    m.insert("spec.units", units.len() as f64);
    m.insert("share.trunks", units.iter().filter(|u| u.len() > 1).count() as f64);
    let (mut forked, mut relabelled) = (0u64, 0u64);
    for &cell in units.iter().filter(|u| u.len() > 1).flatten() {
        let Some(r) = records.get(cell) else { continue };
        // A branch forks iff its mitigation acted; otherwise the trunk's
        // result is relabelled as the branch's.
        if detail(r, &["swaps"]) > 0 || detail(r, &["rows_pinned"]) > 0 {
            forked += 1;
        } else {
            relabelled += 1;
        }
    }
    m.insert("share.branches_forked", forked as f64);
    m.insert("share.branches_relabelled", relabelled as f64);

    let (mut latency_ns, mut demand) = (0u64, 0u64);
    let (mut norm_sum, mut norm_min, mut defended) = (0.0f64, f64::INFINITY, 0u64);
    let mut max_acts = 0u64;
    for r in records {
        add(&mut m, "system.sim_ms", detail(r, &["elapsed_ns"]) as f64 / 1e6);
        add(&mut m, "cpu.instructions", detail(r, &["instructions"]) as f64);
        add(&mut m, "cpu.ipc_total_mean", f64_at(r, &["result", "detail", "total_ipc"]));
        let c = |key: &str| detail(r, &["controller", key]);
        add(&mut m, "dram.reads", c("reads") as f64);
        add(&mut m, "dram.writes", c("writes") as f64);
        add(&mut m, "dram.activations", c("activations") as f64);
        add(&mut m, "dram.row_hits", c("row_hits") as f64);
        add(&mut m, "dram.refreshes", c("refreshes") as f64);
        add(&mut m, "dram.maintenance_acts", c("maintenance_activations") as f64);
        add(&mut m, "dram.maintenance_busy_ms", c("maintenance_busy_ns") as f64 / 1e6);
        latency_ns += c("total_demand_latency_ns");
        demand += c("reads") + c("writes");
        max_acts = max_acts.max(detail(r, &["max_row_activations_in_window"]));
        let op = |kind: &str| detail(r, &["controller", "maintenance_ops", kind]) as f64;
        add(&mut m, "core.swaps", detail(r, &["swaps"]) as f64);
        add(&mut m, "core.unswap_swaps", op("unswap-swap"));
        add(&mut m, "core.place_backs", op("place-back"));
        add(&mut m, "core.counter_accesses", op("counter-access"));
        add(&mut m, "core.rows_pinned", detail(r, &["rows_pinned"]) as f64);
        add(&mut m, "core.pinned_hits", detail(r, &["pinned_hits"]) as f64);
        add(&mut m, "core.saturation_events", detail(r, &["security", "saturation_events"]) as f64);
        add(&mut m, "attack.attacker_reads", detail(r, &["security", "attacker_reads"]) as f64);
        add(&mut m, "security.crossed", f64::from(u8::from(trh_crossed(r))));
        let i = |key: &str| detail(r, &["integrity", key]) as f64;
        add(&mut m, "faults.bit_flips", i("bit_flips_injected"));
        add(&mut m, "faults.corrupted_reads", i("corrupted_reads"));
        add(&mut m, "faults.due_reads", i("detected_uncorrectable"));
        add(&mut m, "faults.corrected_reads", i("corrected_reads"));
        add(&mut m, "faults.scrub_saves", i("scrub_saves"));
        if str_at(r, &["scenario", "defense"]) != "baseline" {
            let norm = f64_at(r, &["result", "normalized_performance"]);
            norm_sum += norm;
            norm_min = norm_min.min(norm);
            defended += 1;
        }
    }
    if let Some(ipc) = m.get_mut("cpu.ipc_total_mean") {
        *ipc /= records.len().max(1) as f64;
    }
    m.insert("dram.demand_latency_ns_mean", latency_ns as f64 / demand.max(1) as f64);
    m.insert("trackers.max_row_acts_in_window", max_acts as f64);
    m.insert("model.norm_perf.mean", if defended > 0 { norm_sum / defended as f64 } else { 1.0 });
    m.insert("model.norm_perf.min", if defended > 0 { norm_min } else { 1.0 });
    m
}

/// Per-defense summary rows: (defense, cells, mean normalized
/// performance, cells that crossed TRH, bit flips), in first-seen order.
#[must_use]
pub fn per_defense(records: &[Json]) -> Vec<(String, u64, f64, u64, u64)> {
    let mut rows: Vec<(String, u64, f64, u64, u64)> = Vec::new();
    for r in records {
        let defense = str_at(r, &["scenario", "defense"]);
        let row = match rows.iter().position(|row| row.0 == defense) {
            Some(i) => &mut rows[i],
            None => {
                rows.push((defense.to_string(), 0, 0.0, 0, 0));
                rows.last_mut().expect("row just pushed")
            }
        };
        row.1 += 1;
        row.2 += f64_at(r, &["result", "normalized_performance"]);
        row.3 += u64::from(trh_crossed(r));
        row.4 += u64_at(r, &["result", "detail", "integrity", "bit_flips_injected"]);
    }
    for row in &mut rows {
        row.2 /= row.1.max(1) as f64;
    }
    rows
}

/// The output checks of one result record. `faults_on` says whether the
/// spec enabled the fault model. Returns every violated check.
///
/// * the record passes [`validate_result_record`];
/// * the record's cell index is `expected_index`;
/// * with faults on, every attacked cell carries an integrity report, and
///   every `baseline` cell injects at least one bit flip;
/// * every `srs` and `scale-srs` cell has no TRH crossing, no bit flips
///   and no corrupted reads.
///
/// `rrs` is reported, not gated: the paper's point is that Juggernaut
/// breaks it.
#[must_use]
pub fn check_record(r: &Json, expected_index: usize, faults_on: bool) -> Vec<String> {
    let mut errors = Vec::new();
    if let Err(e) = validate_result_record(r) {
        errors.push(format!("schema: {e}"));
    }
    let index = u64_at(r, &["scenario", "index"]);
    if index != expected_index as u64 {
        errors.push(format!("record at position {expected_index} is cell {index}"));
    }
    let defense = str_at(r, &["scenario", "defense"]);
    let attacked = present(r, &["scenario", "attack"]).is_some();
    if faults_on && attacked && present(r, &["result", "detail", "integrity"]).is_none() {
        errors.push("attacked cell with faults on has no integrity report".into());
    }
    let flips = u64_at(r, &["result", "detail", "integrity", "bit_flips_injected"]);
    if faults_on && attacked && defense == "baseline" && flips == 0 {
        errors.push("unprotected baseline under attack injected no bit flips".into());
    }
    if defense == "srs" || defense == "scale-srs" {
        if trh_crossed(r) {
            errors.push(format!("{defense} let a row cross TRH"));
        }
        let corrupted = u64_at(r, &["result", "detail", "integrity", "corrupted_reads"]);
        if flips > 0 || corrupted > 0 {
            errors.push(format!("{defense} had {flips} bit flips and {corrupted} corrupted reads"));
        }
    }
    errors
}
