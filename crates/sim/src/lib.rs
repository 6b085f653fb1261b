//! # srs-sim
//!
//! The full-system memory simulator of the Scale-SRS reproduction — the
//! equivalent of the USIMM-based harness the paper uses for its performance
//! evaluation. It wires trace-driven cores ([`srs_cpu`]), an aggressor
//! tracker ([`srs_trackers`]), a row-swap defense ([`srs_core`]) and the
//! DDR4 memory controller ([`srs_dram`]) together, and provides the
//! experiment runner that produces the normalized-performance numbers of
//! Figures 4, 12, 14, 15 and 16.
//!
//! ## Example
//!
//! ```
//! use srs_core::DefenseKind;
//! use srs_sim::{System, SystemConfig};
//! use srs_workloads::hammer_trace;
//!
//! let mut config = SystemConfig::scaled_for_speed(DefenseKind::Srs, 1200);
//! config.cores = 1;
//! config.core.target_instructions = 2_000;
//! config.max_sim_ns = 2_000_000;
//! let trace = hammer_trace("hammer", 0x8000, 1_000, 1 << 24, 1).into_trace();
//! let result = System::new(config, trace).run();
//! assert!(result.swaps > 0, "hammering must trigger row swaps");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The simulator core sits under long-running campaigns: hot paths must not
// panic on capacity or lookup surprises — every unwrap/expect needs a
// stated invariant.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod attribution;
pub mod campaign;
pub mod config;
pub mod error;
pub mod faults;
pub mod json;
pub mod metrics;
pub mod runner;
pub mod scenario;
pub mod search;
pub mod security;
mod share;
pub mod sink;
pub mod spec;
pub mod system;
pub mod telemetry;

pub use attribution::{AttributionReport, SubsystemTimers};
pub use campaign::{
    execution_units, merge_results, plan_shards, Campaign, CampaignError, CampaignManifest,
    CampaignReport, CampaignSink, CellFailure, CheckpointSink, MergeStats, ResumeState,
    ShardManifest,
};
pub use config::SystemConfig;
pub use error::SimError;
pub use faults::{FaultInjector, FaultsConfig, IntegrityReport};
pub use json::{Json, JsonError, ToJson};
pub use metrics::{mean_normalized, NormalizedResult, SimResult};
pub use runner::{
    cell_trace, normalize_against, parallel_for_each_ordered, parallel_map_ordered, run_normalized,
    run_parallel, run_workload, run_workload_attributed, suite_averages, FaultInjection, JobEvent,
    RetryPolicy, SuiteRow,
};
pub use scenario::{
    default_threads, results_for, results_where, Experiment, Scenario, ScenarioResult, UnitStats,
};
pub use search::{
    best_record, replay_best, run_search, score_from_report, score_solo, validate_search_record,
    warm_system, BestFound, ReplayOutcome, SearchError, SearchOutcome,
};
pub use security::{SecurityReport, SecurityTracker};
pub use sink::{
    validate_result_record, Fanout, JsonlWriter, MemoryCollector, ProgressSink, ResultSink,
};
pub use spec::{ConfigPatch, ExperimentSpec, Preset, SearchSpec, SpecError};
pub use system::System;
pub use telemetry::{
    EventKind, Log2Histogram, Telemetry, TelemetryConfig, TelemetryReport, TelemetrySidecarSink,
    TraceEvent,
};
