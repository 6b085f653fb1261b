//! Every simulated cell synthesizes only the prefix of its workload trace
//! that its cores retire (`srs_sim::cell_trace`): synthesis stops at the
//! record where a core reaches `core.target_instructions`, capped at
//! `trace_records_per_core`. That is an optimization, not an
//! approximation — a system built on the shortened trace must produce a
//! `SimResult` bit-identical to one built on the full-length trace, under
//! both engines, through the shared-prefix grid executor, when the cap
//! binds first (the cores wrap around the trace) and under attack.

use scale_srs::attack::engine::{AttackPattern, AttackSpec};
use scale_srs::core::DefenseKind;
use scale_srs::sim::spec::{ConfigPatch, Preset};
use scale_srs::sim::{
    cell_trace, normalize_against, run_workload, Experiment, SimResult, System, SystemConfig,
    ToJson,
};
use scale_srs::workloads::{all_workloads, NamedWorkload, Trace};

/// Instructions each core retires: a few thousand records of each
/// profile, far short of the cap.
const TARGET: u64 = 12_000;
/// Trace length: the paper preset's 2M records would dominate the test's
/// run time at no gain — what matters is that the target binds first.
const RECORDS: usize = 100_000;

const DEFENSES: [DefenseKind; 4] = [
    DefenseKind::Baseline,
    DefenseKind::Rrs { immediate_unswap: true },
    DefenseKind::Srs,
    DefenseKind::ScaleSrs,
];

/// One registry name per synthetic generator profile.
fn profiles() -> Vec<NamedWorkload> {
    let names = ["gups", "gcc", "mcf", "libquantum", "blackscholes"];
    let workloads: Vec<NamedWorkload> =
        all_workloads().into_iter().filter(|w| names.contains(&w.name)).collect();
    assert_eq!(workloads.len(), names.len());
    for (i, a) in workloads.iter().enumerate() {
        for b in &workloads[i + 1..] {
            let (mut sa, sb) = (a.spec(), b.spec());
            sa.name.clone_from(&sb.name);
            assert_ne!(sa, sb, "{} and {} share a generator profile", a.name, b.name);
        }
    }
    workloads
}

/// The paper's geometry (Table III: 8 cores, 128K rows per bank) with a
/// short instruction target.
fn paper_config(defense: DefenseKind) -> SystemConfig {
    let mut config = SystemConfig::paper_default(defense, 1200);
    config.core.target_instructions = TARGET;
    config.trace_records_per_core = RECORDS;
    config
}

fn full_trace(config: &SystemConfig, workload: &NamedWorkload) -> Trace {
    workload.spec().generate(config.trace_records_per_core, config.seed)
}

fn assert_bit_identical(cell: &str, short: &SimResult, full: &SimResult) {
    assert_eq!(short, full, "{cell}: shortened-trace result diverged");
    assert_eq!(short.to_json().to_compact(), full.to_json().to_compact(), "{cell}: JSON diverged");
}

#[test]
fn shortened_traces_are_bit_identical_under_both_engines_and_the_shared_grid() {
    let workloads = profiles();
    let mut full_results: Vec<(String, DefenseKind, SimResult)> = Vec::new();
    let mut swapped = false;
    for workload in &workloads {
        let config = paper_config(DefenseKind::Baseline);
        let full = full_trace(&config, workload);
        let short = cell_trace(&config, workload);
        assert!(
            short.len() < full.len() / 4,
            "{}: the target must bind long before the cap ({} of {} records)",
            workload.name,
            short.len(),
            full.len()
        );
        assert_eq!(short.records[..], full.records[..short.len()]);
        for defense in DEFENSES {
            let config = paper_config(defense);
            let cell = format!("{}/{defense}", workload.name);
            let event = System::new(config.clone(), short.clone()).run();
            let reference = System::new(config.clone(), full.clone()).run();
            assert_bit_identical(&format!("{cell} (time-skip)"), &event, &reference);
            assert!(event.instructions >= config.cores as u64 * TARGET, "{cell}: cores finish");
            let fixed = System::new(config.clone(), short.clone()).run_fixed_step();
            let fixed_reference = System::new(config, full.clone()).run_fixed_step();
            assert_bit_identical(&format!("{cell} (fixed-step)"), &fixed, &fixed_reference);
            assert_bit_identical(&format!("{cell} (engines)"), &fixed, &event);
            swapped |= reference.swaps > 0;
            full_results.push((workload.name.to_string(), defense, reference));
        }
    }
    assert!(swapped, "the grid must exercise at least one swapping defense");

    // The shared-prefix executor builds every trunk from `cell_trace`: each
    // cell's record and normalization must equal the full-trace runs.
    let experiment = Experiment::new()
        .with_preset(Preset::Paper)
        .with_patch(ConfigPatch {
            target_instructions: Some(TARGET),
            trace_records_per_core: Some(RECORDS),
            ..ConfigPatch::default()
        })
        .with_defenses(DEFENSES.to_vec())
        .with_thresholds(vec![1200])
        .with_workloads(workloads)
        .with_threads(2);
    assert!(experiment.share_prefixes());
    let grid = experiment.run();
    assert_eq!(grid.len(), full_results.len());
    let full_of = |workload: &str, defense: DefenseKind| {
        full_results
            .iter()
            .find(|(w, d, _)| w == workload && *d == defense)
            .map(|(_, _, r)| r)
            .expect("every grid cell has a full-trace reference")
    };
    for cell in &grid {
        let workload = cell.scenario.workload.name;
        let name = format!("{workload}/{} (shared grid)", cell.scenario.defense);
        let reference = full_of(workload, cell.scenario.defense);
        assert_bit_identical(&name, &cell.result.detail, reference);
        let baseline = full_of(workload, DefenseKind::Baseline);
        let expected =
            normalize_against(reference.clone(), baseline.total_ipc(), cell.scenario.t_rh);
        assert_eq!(cell.result, expected, "{name}: normalization diverged");
    }
}

#[test]
fn a_cap_below_the_target_keeps_the_whole_trace_and_wraps() {
    // 200 records hold well under 12,000 instructions of any profile:
    // the cap binds, the cores lap the trace, and nothing is shortened.
    for workload in profiles() {
        for defense in [DefenseKind::Baseline, DefenseKind::ScaleSrs] {
            let mut config = paper_config(defense);
            config.trace_records_per_core = 200;
            let full = full_trace(&config, &workload);
            assert!(full.total_instructions() < TARGET, "{}: the cap must bind", workload.name);
            assert_eq!(cell_trace(&config, &workload), full);
            let cell = format!("{}/{defense} (wrapping)", workload.name);
            let reference = System::new(config.clone(), full.clone()).run();
            assert_bit_identical(&cell, &run_workload(&config, &workload), &reference);
            let fixed = System::new(config, full).run_fixed_step();
            assert_bit_identical(&cell, &fixed, &reference);
        }
    }
}

#[test]
fn attacked_cells_are_bit_identical_on_the_shortened_victim_trace() {
    // The victim core retires a bounded target while the closed-loop
    // attacker runs on to the simulated-time cap or the first TRH
    // crossing, so the victim's trace is shortened; the security and
    // integrity verdicts must not move.
    let workload = all_workloads().into_iter().find(|w| w.name == "gcc").expect("gcc");
    for defense in
        [DefenseKind::Baseline, DefenseKind::Rrs { immediate_unswap: true }, DefenseKind::Srs]
    {
        let mut config = paper_config(defense);
        config.core.target_instructions = 3_000;
        config.cores = 1;
        config.max_sim_ns = 400_000;
        config.faults.enabled = true;
        config.attack = Some(AttackSpec::new(
            "prefix-double",
            AttackPattern::DoubleSided { bank: 0, victim: 64 },
        ));
        let full = full_trace(&config, &workload);
        let short = cell_trace(&config, &workload);
        assert!(short.len() < full.len(), "the victim's target must bind first");
        let cell = format!("attacked/{defense}");
        let reference = System::new(config.clone(), full.clone()).run();
        assert!(reference.security.as_ref().is_some_and(|s| s.attacker_reads > 0));
        assert!(reference.integrity.is_some(), "{cell}: faults on must report integrity");
        assert!(reference.instructions >= 3_000, "{cell}: the victim must reach its target");
        let event = System::new(config.clone(), short.clone()).run();
        assert_bit_identical(&format!("{cell} (time-skip)"), &event, &reference);
        assert_bit_identical(
            &format!("{cell} (run_workload)"),
            &run_workload(&config, &workload),
            &reference,
        );
        let fixed = System::new(config.clone(), short).run_fixed_step();
        let fixed_reference = System::new(config, full).run_fixed_step();
        assert_bit_identical(&format!("{cell} (fixed-step)"), &fixed, &fixed_reference);
    }
}
