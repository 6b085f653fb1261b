//! Experiment and system configuration for the full-system simulator.

use serde::{Deserialize, Serialize};
use srs_attack::AttackSpec;
use srs_core::{DefenseKind, MitigationConfig};
use srs_cpu::CoreConfig;
use srs_dram::{DramConfig, DramTiming};
use srs_trackers::TrackerKind;

use crate::faults::FaultsConfig;
use crate::json::{obj, Json, ToJson};
use crate::spec::{
    attack_spec_from_json, f64_field, page_policy_name, parse_defense, parse_page_policy,
    parse_tracker, require, str_field, u32_field, u64_field, usize_field, SpecError,
};
use crate::telemetry::TelemetryConfig;

/// Configuration of one simulation run.
///
/// The defaults reproduce Table III, but `scale_for_speed` provides the
/// scaled-down variant the benchmark harness uses so that a full sweep over
/// 78 workloads and several defenses finishes in minutes instead of the
/// paper's 15 CPU-hours: fewer instructions per core and a shorter refresh
/// window (so that window-boundary behaviour such as lazy place-back is
/// still exercised).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// DRAM geometry and timing.
    pub dram: DramConfig,
    /// Core model configuration (shared by all cores).
    pub core: CoreConfig,
    /// Number of cores (Table III uses 8).
    pub cores: usize,
    /// Row Hammer threshold to defend against.
    pub t_rh: u64,
    /// The defense to instantiate.
    pub defense: DefenseKind,
    /// Swap rate override; `None` uses the defense's default (6 for RRS/SRS,
    /// 3 for Scale-SRS).
    pub swap_rate: Option<u64>,
    /// The aggressor tracker to use.
    pub tracker: TrackerKind,
    /// Length of the workload trace each core replays in a loop until it
    /// retires [`CoreConfig::target_instructions`]. Synthesis stops at the
    /// prefix the cores retire ([`crate::runner::cell_trace`]), so this is
    /// a cap: only cells whose cores lap the trace generate all of it.
    pub trace_records_per_core: usize,
    /// Seed for workload generation and defense randomness.
    pub seed: u64,
    /// Hard cap on simulated time, in nanoseconds.
    pub max_sim_ns: u64,
    /// Latency of an access served from the LLC (pinned rows), in ns.
    pub llc_hit_latency_ns: u64,
    /// Adversarial scenario: when set, the system adds the specified
    /// closed-loop attacker cores next to the victim trace cores and
    /// collects security metrics ([`crate::security::SecurityReport`]).
    pub attack: Option<AttackSpec>,
    /// Simulated-time telemetry configuration. Disarmed by default; arming
    /// it never changes simulation results (the report rides on
    /// [`crate::metrics::SimResult`] outside its JSON encoding — see
    /// [`crate::telemetry`]).
    pub telemetry: TelemetryConfig,
    /// Fault-injection configuration: DRAM bit flips from over-threshold
    /// disturbance, decoded under an ECC model. Disabled by default, and
    /// only active on runs that carry an attack scenario — see
    /// [`crate::faults`].
    pub faults: FaultsConfig,
}

impl SystemConfig {
    /// The paper's full-size configuration for a given defense and `TRH`.
    #[must_use]
    pub fn paper_default(defense: DefenseKind, t_rh: u64) -> Self {
        Self {
            dram: DramConfig::default(),
            core: CoreConfig::default(),
            cores: 8,
            t_rh,
            defense,
            swap_rate: None,
            tracker: TrackerKind::MisraGries,
            trace_records_per_core: 2_000_000,
            seed: 0xC0DE,
            max_sim_ns: 500_000_000,
            llc_hit_latency_ns: 20,
            attack: None,
            telemetry: TelemetryConfig::default(),
            faults: FaultsConfig::default(),
        }
    }

    /// A scaled-down configuration suitable for tests and for the default
    /// (quick) benchmark mode: 4 cores, a 2 ms refresh window and a few tens
    /// of thousands of memory operations per core.
    #[must_use]
    pub fn scaled_for_speed(defense: DefenseKind, t_rh: u64) -> Self {
        let mut config = Self::paper_default(defense, t_rh);
        config.cores = 4;
        config.core.target_instructions = 120_000;
        config.trace_records_per_core = 30_000;
        config.dram.refresh_window_ns = 2_000_000;
        config.max_sim_ns = 40_000_000;
        config
    }

    /// The effective swap rate of this configuration.
    #[must_use]
    pub fn effective_swap_rate(&self) -> u64 {
        self.swap_rate.unwrap_or_else(|| self.defense.default_swap_rate()).max(1)
    }

    /// The mitigation configuration implied by this system configuration.
    #[must_use]
    pub fn mitigation_config(&self) -> MitigationConfig {
        let mut m = MitigationConfig::for_system(&self.dram, self.t_rh, self.effective_swap_rate());
        m.rng_seed = self.seed ^ 0x517e;
        m.refresh_window_ns = self.dram.refresh_window_ns;
        m
    }
}

impl ToJson for SystemConfig {
    fn to_json(&self) -> Json {
        obj(vec![
            ("dram", dram_to_json(&self.dram)),
            ("core", core_to_json(&self.core)),
            ("cores", self.cores.into()),
            ("t_rh", self.t_rh.into()),
            ("defense", Json::from(self.defense.to_string())),
            ("swap_rate", self.swap_rate.into()),
            ("tracker", Json::from(self.tracker.to_string())),
            ("trace_records_per_core", self.trace_records_per_core.into()),
            ("seed", self.seed.into()),
            ("max_sim_ns", self.max_sim_ns.into()),
            ("llc_hit_latency_ns", self.llc_hit_latency_ns.into()),
            ("attack", self.attack.as_ref().map_or(Json::Null, ToJson::to_json)),
            ("telemetry", self.telemetry.to_json()),
            ("faults", self.faults.to_json()),
        ])
    }
}

impl SystemConfig {
    /// Decode a full configuration from the object form [`ToJson`] emits.
    pub fn from_json(json: &Json) -> Result<Self, SpecError> {
        let attack = match json.get("attack") {
            None | Some(Json::Null) => None,
            Some(value) => Some(attack_spec_from_json(value)?),
        };
        let swap_rate = match json.get("swap_rate") {
            None | Some(Json::Null) => None,
            Some(value) => Some(u64_field("swap_rate", value)?),
        };
        // Tolerant like `attack`: configurations encoded before telemetry
        // existed decode to the disarmed default.
        let telemetry = match json.get("telemetry") {
            None | Some(Json::Null) => TelemetryConfig::default(),
            Some(value) => TelemetryConfig::from_json(value)
                .map_err(|message| SpecError::Field { field: "telemetry".to_string(), message })?,
        };
        // Tolerant like `telemetry`: configurations encoded before the
        // fault model existed decode to the disabled default.
        let faults = match json.get("faults") {
            None | Some(Json::Null) => FaultsConfig::default(),
            Some(value) => FaultsConfig::from_json(value)
                .map_err(|message| SpecError::Field { field: "faults".to_string(), message })?,
        };
        Ok(Self {
            dram: dram_from_json(require(json, "dram")?)?,
            core: core_from_json(require(json, "core")?)?,
            cores: usize_field("cores", require(json, "cores")?)?,
            t_rh: u64_field("t_rh", require(json, "t_rh")?)?,
            defense: parse_defense(str_field("defense", require(json, "defense")?)?)?,
            swap_rate,
            tracker: parse_tracker(str_field("tracker", require(json, "tracker")?)?)?,
            trace_records_per_core: usize_field(
                "trace_records_per_core",
                require(json, "trace_records_per_core")?,
            )?,
            seed: u64_field("seed", require(json, "seed")?)?,
            max_sim_ns: u64_field("max_sim_ns", require(json, "max_sim_ns")?)?,
            llc_hit_latency_ns: u64_field(
                "llc_hit_latency_ns",
                require(json, "llc_hit_latency_ns")?,
            )?,
            attack,
            telemetry,
            faults,
        })
    }
}

fn dram_to_json(dram: &DramConfig) -> Json {
    let t = &dram.timing;
    let timing = obj(vec![
        ("t_rcd", t.t_rcd.into()),
        ("t_rp", t.t_rp.into()),
        ("t_cas", t.t_cas.into()),
        ("t_rc", t.t_rc.into()),
        ("t_rfc", t.t_rfc.into()),
        ("t_refi", t.t_refi.into()),
        ("t_burst", t.t_burst.into()),
        ("t_wr", t.t_wr.into()),
    ]);
    obj(vec![
        ("channels", dram.channels.into()),
        ("ranks_per_channel", dram.ranks_per_channel.into()),
        ("banks_per_rank", dram.banks_per_rank.into()),
        ("rows_per_bank", dram.rows_per_bank.into()),
        ("row_size_bytes", dram.row_size_bytes.into()),
        ("line_size_bytes", dram.line_size_bytes.into()),
        ("timing", timing),
        ("page_policy", Json::from(page_policy_name(dram.page_policy))),
        ("refresh_window_ns", dram.refresh_window_ns.into()),
        ("queue_capacity", dram.queue_capacity.into()),
    ])
}

fn dram_from_json(json: &Json) -> Result<DramConfig, SpecError> {
    let timing_json = require(json, "timing")?;
    let t = |name: &str| -> Result<u64, SpecError> {
        u64_field(&format!("timing.{name}"), require(timing_json, name)?)
    };
    let timing = DramTiming {
        t_rcd: t("t_rcd")?,
        t_rp: t("t_rp")?,
        t_cas: t("t_cas")?,
        t_rc: t("t_rc")?,
        t_rfc: t("t_rfc")?,
        t_refi: t("t_refi")?,
        t_burst: t("t_burst")?,
        t_wr: t("t_wr")?,
    };
    Ok(DramConfig {
        channels: usize_field("channels", require(json, "channels")?)?,
        ranks_per_channel: usize_field("ranks_per_channel", require(json, "ranks_per_channel")?)?,
        banks_per_rank: usize_field("banks_per_rank", require(json, "banks_per_rank")?)?,
        rows_per_bank: u64_field("rows_per_bank", require(json, "rows_per_bank")?)?,
        row_size_bytes: u64_field("row_size_bytes", require(json, "row_size_bytes")?)?,
        line_size_bytes: u64_field("line_size_bytes", require(json, "line_size_bytes")?)?,
        timing,
        page_policy: parse_page_policy(str_field("page_policy", require(json, "page_policy")?)?)?,
        refresh_window_ns: u64_field("refresh_window_ns", require(json, "refresh_window_ns")?)?,
        queue_capacity: usize_field("queue_capacity", require(json, "queue_capacity")?)?,
    })
}

fn core_to_json(core: &CoreConfig) -> Json {
    obj(vec![
        ("clock_ghz", core.clock_ghz.into()),
        ("rob_size", u64::from(core.rob_size).into()),
        ("fetch_width", u64::from(core.fetch_width).into()),
        ("retire_width", u64::from(core.retire_width).into()),
        ("max_outstanding_misses", core.max_outstanding_misses.into()),
        ("target_instructions", core.target_instructions.into()),
    ])
}

fn core_from_json(json: &Json) -> Result<CoreConfig, SpecError> {
    Ok(CoreConfig {
        clock_ghz: f64_field("clock_ghz", require(json, "clock_ghz")?)?,
        rob_size: u32_field("rob_size", require(json, "rob_size")?)?,
        fetch_width: u32_field("fetch_width", require(json, "fetch_width")?)?,
        retire_width: u32_field("retire_width", require(json, "retire_width")?)?,
        max_outstanding_misses: usize_field(
            "max_outstanding_misses",
            require(json, "max_outstanding_misses")?,
        )?,
        target_instructions: u64_field(
            "target_instructions",
            require(json, "target_instructions")?,
        )?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table_iii() {
        let c = SystemConfig::paper_default(DefenseKind::ScaleSrs, 1200);
        assert_eq!(c.cores, 8);
        assert_eq!(c.dram.banks_per_rank, 16);
        assert_eq!(c.effective_swap_rate(), 3);
        assert_eq!(c.mitigation_config().swap_threshold(), 400);
    }

    #[test]
    fn swap_rate_override_wins() {
        let mut c = SystemConfig::paper_default(DefenseKind::Rrs { immediate_unswap: true }, 4800);
        assert_eq!(c.effective_swap_rate(), 6);
        c.swap_rate = Some(8);
        assert_eq!(c.effective_swap_rate(), 8);
    }

    #[test]
    fn system_config_round_trips_through_json() {
        use srs_attack::engine::shipped_patterns;
        let mut config =
            SystemConfig::paper_default(DefenseKind::Rrs { immediate_unswap: false }, 2400);
        config.swap_rate = Some(8);
        config.tracker = TrackerKind::Hydra;
        config.attack = shipped_patterns().into_iter().find(|a| a.name == "juggernaut");
        let decoded = SystemConfig::from_json(&config.to_json()).unwrap();
        assert_eq!(decoded, config);
        // Text round trip too: encode → parse → decode.
        let text = config.to_json().to_pretty();
        let decoded = SystemConfig::from_json(&crate::json::Json::parse(&text).unwrap()).unwrap();
        assert_eq!(decoded, config);
    }

    #[test]
    fn oversized_core_widths_are_rejected_not_truncated() {
        let config = SystemConfig::paper_default(DefenseKind::Srs, 1200);
        // u32::MAX + 193: a silent `as u32` truncation would read back 192.
        let text =
            config.to_json().to_pretty().replace("\"rob_size\": 192", "\"rob_size\": 4294967488");
        let json = crate::json::Json::parse(&text).unwrap();
        let err = SystemConfig::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("rob_size"), "{err}");
    }

    #[test]
    fn scaled_config_is_smaller() {
        let full = SystemConfig::paper_default(DefenseKind::Srs, 2400);
        let quick = SystemConfig::scaled_for_speed(DefenseKind::Srs, 2400);
        assert!(quick.core.target_instructions < full.core.target_instructions);
        assert!(quick.dram.refresh_window_ns < full.dram.refresh_window_ns);
    }
}
