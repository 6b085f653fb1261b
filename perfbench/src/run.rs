//! The timed passes over a workload's spec. Each pass reaches the
//! simulator only through public calls, the same ones `srs-cli run`
//! makes: `ExperimentSpec::parse`/`to_experiment`, `Campaign::run` with a
//! `CheckpointSink`, `WorkloadSpec::generate`, and `System::new`/`run`/
//! `run_attributed`.

use std::path::Path;
use std::time::Instant;

use srs_core::DefenseKind;
use srs_sim::campaign::{Campaign, CampaignSink, CellFailure, CheckpointSink};
use srs_sim::json::{Json, ToJson};
use srs_sim::{
    execution_units, AttributionReport, ExperimentSpec, Scenario, ScenarioResult, SystemConfig,
    UnitStats,
};

use srs_workloads::{MemOp, TraceRecord};

use crate::calib::Probe;
use crate::layers::digest;
use crate::spans::Tracer;

/// Run `f` inside span `name` when tracing, else just run it.
fn timed<T>(tracer: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Parse and plan a spec, or return the spec error as text.
fn plan(
    spec_text: &str,
    tracer: &mut Option<&mut Tracer>,
) -> Result<(ExperimentSpec, srs_sim::Experiment), String> {
    let spec = timed(tracer, "spec.parse", || ExperimentSpec::parse(spec_text))
        .map_err(|e| format!("spec: {e}"))?;
    let experiment =
        timed(tracer, "spec.plan", || spec.to_experiment()).map_err(|e| format!("spec: {e}"))?;
    Ok((spec, experiment))
}

/// One execution unit of a grid run.
#[derive(Debug, Clone, Copy)]
pub struct UnitTime {
    /// The unit's first grid cell, which names it.
    pub first_cell: usize,
    /// Host seconds the worker spent on the unit.
    pub wall_s: f64,
    /// Mean of the reference-kernel samples taken just before and just
    /// after the unit ([`Probe`]); 0 when the run took none.
    pub probe_s: f64,
}

/// What one grid run did.
#[derive(Debug, Clone)]
pub struct GridRun {
    /// Host seconds from spec parse to the sink's final flush, less the
    /// time spent in reference-kernel samples.
    pub wall_s: f64,
    /// Cells the campaign completed.
    pub completed: usize,
    /// Cells the campaign gave up on.
    pub failed: usize,
    /// The execution units in the order they finished (untraced runs only).
    pub units: Vec<UnitTime>,
}

/// Forwards every campaign event to the checkpoint sink, keeps each
/// execution unit's wall time and, given a probe, samples the reference
/// kernel between units.
struct UnitTimes<'a> {
    inner: &'a mut CheckpointSink,
    units: Vec<UnitTime>,
    probe: Option<&'a mut Probe>,
    /// The latest probe sample, in seconds.
    last_probe_s: f64,
    /// Seconds spent in probe samples.
    probe_total_s: f64,
}

impl UnitTimes<'_> {
    fn sample(&mut self) -> f64 {
        let Some(probe) = self.probe.as_deref_mut() else { return 0.0 };
        let s = probe.sample_s();
        self.probe_total_s += s;
        s
    }
}

impl CampaignSink for UnitTimes<'_> {
    fn on_result(&mut self, result: &ScenarioResult) {
        self.inner.on_result(result);
    }

    fn on_cell_failed(&mut self, failure: &CellFailure) {
        self.inner.on_cell_failed(failure);
    }

    fn on_unit_stats(&mut self, stats: &UnitStats) {
        self.inner.on_unit_stats(stats);
        let before = self.last_probe_s;
        self.last_probe_s = self.sample();
        self.units.push(UnitTime {
            first_cell: stats.cells.first().copied().unwrap_or(usize::MAX),
            wall_s: stats.wall_ns as f64 / 1e9,
            probe_s: (before + self.last_probe_s) / 2.0,
        });
    }
}

/// Forwards every campaign event to the checkpoint sink, with a
/// `sink.write` span around each result it commits.
struct TracedSink<'a> {
    inner: &'a mut CheckpointSink,
    tracer: &'a mut Tracer,
}

impl CampaignSink for TracedSink<'_> {
    fn on_result(&mut self, result: &ScenarioResult) {
        self.tracer.enter("sink.write");
        self.inner.on_result(result);
        self.tracer.exit();
    }

    fn on_cell_failed(&mut self, failure: &CellFailure) {
        self.inner.on_cell_failed(failure);
    }

    fn on_unit_stats(&mut self, stats: &UnitStats) {
        self.inner.on_unit_stats(stats);
    }
}

/// Run the whole grid the way `srs-cli run` does by default (shared
/// prefixes, crash-safe JSONL sink at `out`), timing it from spec parse to
/// the sink's final flush. Untraced, it keeps each unit's time and, with
/// a `probe`, samples the reference kernel before the first unit and
/// after each unit, on the thread that drains campaign events while the
/// worker goes on with the next unit (on the same CPU when the process is
/// pinned to one).
///
/// # Errors
///
/// Returns spec or sink errors as text.
pub fn run_grid(
    spec_text: &str,
    out: &Path,
    mut tracer: Option<&mut Tracer>,
    probe: Option<&mut Probe>,
) -> Result<GridRun, String> {
    let start = Instant::now();
    let (spec, experiment) = plan(spec_text, &mut tracer)?;
    let cells = experiment.job_count();
    let mut checkpoint = CheckpointSink::create(out, &spec.name, cells, (0..cells).collect())
        .map_err(|e| e.to_string())?;
    let campaign = Campaign::new(experiment);
    let (report, units, probe_total_s) = match tracer.as_deref_mut() {
        None => {
            let mut sink = UnitTimes {
                inner: &mut checkpoint,
                units: Vec::new(),
                probe,
                last_probe_s: 0.0,
                probe_total_s: 0.0,
            };
            sink.last_probe_s = sink.sample();
            let report = campaign.run(&mut sink);
            (report, sink.units, sink.probe_total_s)
        }
        Some(t) => {
            t.enter("campaign.run");
            let report = campaign.run(&mut TracedSink { inner: &mut checkpoint, tracer: t });
            t.exit();
            (report, Vec::new(), 0.0)
        }
    };
    timed(&mut tracer, "sink.finish", || checkpoint.finish()).map_err(|e| e.to_string())?;
    Ok(GridRun {
        wall_s: start.elapsed().as_secs_f64() - probe_total_s,
        completed: report.completed,
        failed: report.failed.len(),
        units,
    })
}

/// What one set-up pass built.
#[derive(Debug, Clone)]
pub struct Setup {
    /// Host seconds inside the pass's public calls (parse, plan, trace
    /// synthesis and `System::new`), excluding the benchmark's own
    /// bookkeeping and the drop of each built system.
    pub wall_s: f64,
    /// Trace records synthesized over all cells.
    pub records: u64,
    /// Cells whose synthesized traces differ (by content digest).
    pub distinct_traces: usize,
    /// The grid's execution units.
    pub units: Vec<Vec<usize>>,
    /// Whether the spec enables the DRAM fault model.
    pub faults_on: bool,
}

fn trace_digest(records: &[TraceRecord]) -> u64 {
    let mut bytes = Vec::with_capacity(records.len() * 13);
    for r in records {
        bytes.extend_from_slice(&r.nonmem_insts.to_le_bytes());
        bytes.extend_from_slice(&r.addr.to_le_bytes());
        bytes.push(u8::from(r.op == MemOp::Write));
    }
    digest(&bytes)
}

/// Parse and plan the spec, then build every cell's inputs (its trace and
/// its `System`) without running an engine step. Spans go to `tracer`;
/// the pass's time is the sum of its top-level spans.
///
/// # Errors
///
/// Returns the spec error as text.
pub fn setup_pass(spec_text: &str, tracer: &mut Tracer) -> Result<Setup, String> {
    let first = tracer.spans().len();
    let parent = tracer.open_span();
    let (spec, experiment) = plan(spec_text, &mut Some(&mut *tracer))?;
    let units = tracer.span("spec.plan", || execution_units(&experiment));
    let mut digests = Vec::new();
    let mut records = 0u64;
    for scenario in experiment.scenarios() {
        let config = experiment.config_for(&scenario);
        let trace = tracer.span("workloads.generate", || {
            scenario.workload.spec().generate(config.trace_records_per_core, config.seed)
        });
        records += trace.records.len() as u64;
        let d = trace_digest(&trace.records);
        if !digests.contains(&d) {
            digests.push(d);
        }
        let system = tracer.span("system.new", || srs_sim::System::new(config, trace));
        std::hint::black_box(&system);
    }
    let wall_ns: u64 = tracer.spans()[first..]
        .iter()
        .filter(|s| s.parent == parent)
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    Ok(Setup {
        wall_s: wall_ns as f64 / 1e9,
        records,
        distinct_traces: digests.len(),
        units,
        faults_on: spec.faults.is_some_and(|f| f.enabled),
    })
}

/// Host times of the solo pass: every distinct baseline and every defended
/// cell simulated on its own, outside the shared-prefix executor.
#[derive(Debug, Clone, Default)]
pub struct Solo {
    /// Seconds in `System::run` of the distinct baselines.
    pub baseline_s: f64,
    /// Seconds in `System::run_attributed` of the defended cells,
    /// stopwatch laps included.
    pub defended_s: f64,
    /// The defended cells' in-engine breakdown, summed.
    pub attr: AttributionReport,
    /// Activations simulated by all solo runs.
    pub activations: u64,
    /// With faults on: the same runs with faults on minus faults off, in
    /// seconds (0 when the spec has no fault model).
    pub faults_extra_s: f64,
    /// Cells whose solo result differs from the grid's record.
    pub mismatches: Vec<usize>,
}

fn detail_of(records: &[Json], cell: usize) -> Option<String> {
    Some(records.get(cell)?.get("result")?.get("detail")?.to_compact())
}

/// Run one solo simulation: generate, build, then `System::run` for a
/// baseline or `System::run_attributed` for a defended cell.
fn solo_run(
    tracer: &mut Tracer,
    scenario: &Scenario,
    config: SystemConfig,
    span: &'static str,
) -> (srs_sim::SimResult, Option<AttributionReport>) {
    let trace = tracer.span("workloads.generate", || {
        scenario.workload.spec().generate(config.trace_records_per_core, config.seed)
    });
    let baseline = config.defense == DefenseKind::Baseline;
    let system = tracer.span("system.new", || srs_sim::System::new(config, trace));
    tracer.span(span, || {
        if baseline {
            (system.run(), None)
        } else {
            let (result, report) = system.run_attributed();
            (result, Some(report))
        }
    })
}

/// Simulate every distinct baseline and every defended cell of the grid on
/// its own, check each result against the grid's record of that cell, and
/// take the engine's per-subsystem breakdown. With faults on, repeat the
/// runs with faults off to price the fault model.
///
/// # Errors
///
/// Returns the spec error as text.
pub fn solo_pass(spec_text: &str, records: &[Json], tracer: &mut Tracer) -> Result<Solo, String> {
    let (spec, experiment) = plan(spec_text, &mut Some(&mut *tracer))?;
    let faults_on = spec.faults.is_some_and(|f| f.enabled);
    let scenarios = experiment.scenarios();
    // Distinct baselines, as the engine dedups them across the defense
    // axis; a `baseline` cell's record is its baseline's result.
    let mut runs: Vec<(usize, SystemConfig, Vec<usize>)> = Vec::new();
    for (cell, scenario) in scenarios.iter().enumerate() {
        let mut config = experiment.config_for(scenario);
        let is_baseline = config.defense == DefenseKind::Baseline;
        config.defense = DefenseKind::Baseline;
        let same = |(i, c, _): &(usize, SystemConfig, Vec<usize>)| {
            *c == config && scenarios[*i].workload.name == scenario.workload.name
        };
        match runs.iter_mut().find(|run| same(run)) {
            Some(run) if is_baseline => run.2.push(cell),
            Some(_) => {}
            None => runs.push((cell, config, if is_baseline { vec![cell] } else { vec![] })),
        }
    }
    for (cell, scenario) in scenarios.iter().enumerate() {
        let config = experiment.config_for(scenario);
        if config.defense != DefenseKind::Baseline {
            runs.push((cell, config, vec![cell]));
        }
    }

    let mut solo = Solo::default();
    let mut on_s = 0.0;
    for (cell, config, checks) in &runs {
        let start = Instant::now();
        let span = if config.defense == DefenseKind::Baseline {
            "system.run_baseline"
        } else {
            "system.run_defended"
        };
        let (result, report) = solo_run(tracer, &scenarios[*cell], config.clone(), span);
        on_s += start.elapsed().as_secs_f64();
        let run_s = tracer.last(span).map_or(0.0, |i| tracer.duration_s(i));
        match report {
            Some(report) => {
                solo.defended_s += run_s;
                solo.attr = solo.attr.merged(&report);
            }
            None => solo.baseline_s += run_s,
        }
        solo.activations += result.controller.activations;
        let got = result.to_json().to_compact();
        for &c in checks {
            if detail_of(records, c).as_deref() != Some(got.as_str()) {
                solo.mismatches.push(c);
            }
        }
    }
    if faults_on {
        let mut off_s = 0.0;
        for (cell, config, _) in &runs {
            let mut config = config.clone();
            config.faults.enabled = false;
            let start = Instant::now();
            let _ = solo_run(tracer, &scenarios[*cell], config, "faults.off_run");
            off_s += start.elapsed().as_secs_f64();
        }
        solo.faults_extra_s = on_s - off_s;
    }
    Ok(solo)
}
