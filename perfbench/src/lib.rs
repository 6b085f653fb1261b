//! End-to-end and per-layer benchmark of the scale-srs simulator on
//! paper-preset grids. See `README.md` beside this crate for the
//! workloads, the metrics and how steady they are.

pub mod calib;
pub mod layers;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;

/// End-to-end metrics (`--trace 0`), in print order: name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("sim_ms_per_s", "ms/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("cell_ok_frac", "ratio"),
];

/// Per-layer metrics (`--trace 1`), in print order: name and unit. Counts
/// and simulated quantities come from the result records; `_s` metrics,
/// `system.host_ns_per_act` and `trace.overhead` are host time from the
/// traced run.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("workloads.records", "count"),
    ("workloads.distinct_traces", "count"),
    ("workloads.generate_s", "s"),
    ("spec.cells", "count"),
    ("spec.units", "count"),
    ("spec.plan_s", "s"),
    ("share.trunks", "count"),
    ("share.branches_forked", "count"),
    ("share.branches_relabelled", "count"),
    ("share.run_s", "s"),
    ("system.sim_ms", "ms"),
    ("system.new_s", "s"),
    ("system.run_baseline_s", "s"),
    ("system.run_defended_s", "s"),
    ("system.host_ns_per_act", "ns"),
    ("system.attr.controller_s", "s"),
    ("system.attr.tracker_s", "s"),
    ("system.attr.defense_s", "s"),
    ("system.attr.rit_s", "s"),
    ("system.attr.security_s", "s"),
    ("system.attr.other_s", "s"),
    ("cpu.instructions", "count"),
    ("cpu.ipc_total_mean", "ipc"),
    ("dram.reads", "count"),
    ("dram.writes", "count"),
    ("dram.activations", "count"),
    ("dram.row_hits", "count"),
    ("dram.refreshes", "count"),
    ("dram.maintenance_acts", "count"),
    ("dram.demand_latency_ns_mean", "ns"),
    ("dram.maintenance_busy_ms", "ms"),
    ("trackers.max_row_acts_in_window", "count"),
    ("core.swaps", "count"),
    ("core.unswap_swaps", "count"),
    ("core.place_backs", "count"),
    ("core.counter_accesses", "count"),
    ("core.rows_pinned", "count"),
    ("core.pinned_hits", "count"),
    ("core.saturation_events", "count"),
    ("model.norm_perf.mean", "ratio"),
    ("model.norm_perf.min", "ratio"),
    ("attack.attacker_reads", "count"),
    ("security.crossed", "count"),
    ("faults.bit_flips", "count"),
    ("faults.corrupted_reads", "count"),
    ("faults.due_reads", "count"),
    ("faults.corrected_reads", "count"),
    ("faults.scrub_saves", "count"),
    ("faults.extra_s", "s"),
    ("sink.records", "count"),
    ("sink.bytes", "B"),
    ("sink.write_s", "s"),
    ("trace.overhead", "ratio"),
];
