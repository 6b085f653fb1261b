//! The benchmark's workloads: fixed experiment specs at the paper's
//! Table III geometry whose only free input is the seed.
//!
//! Every workload runs its grid on one worker thread (`"threads": 1`):
//! with two workers the peak RSS and the finish time depend on which
//! execution units happen to overlap, which makes both metrics noisy.

/// Seed used when `--seed` is not given (the `paper` preset's own seed,
/// `0xC0DE`).
pub const DEFAULT_SEED: u64 = 0xC0DE;

/// A seed never used while the benchmark was tuned; a claimed gain must
/// also hold on it.
pub const HELD_OUT_SEED: u64 = 20_230_225;

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Why the workload exists (one line).
    pub why: &'static str,
}

/// All workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "fig14_paper",
        why: "RRS vs Scale-SRS at TRH 1200: shared-prefix trunks, swap/unswap traffic, pinning, \
              2M-record trace synthesis",
    },
    Workload {
        name: "fig12_srs_paper",
        why: "SRS at TRH 1200/2400/4800: 3-branch trunks, swap and counter-row traffic, tracker-heavy gups; \
              no aliases",
    },
    Workload {
        name: "attack_faults",
        why: "six attackers vs four defenses with faults and ECC on: solo cells, security \
              tracker, fault model, swap storms",
    },
];

/// The experiment spec (JSON text) of workload `name` under `seed`, or
/// `None` for an unknown name. The seed enters the grid only through
/// `patch.seed`, which seeds trace synthesis and every defense RNG.
#[must_use]
pub fn spec_json(name: &str, seed: u64) -> Option<String> {
    let body = match name {
        // A subset of specs/fig14_scale_srs_perf.json that keeps one alias
        // pair (gcc and hmmer share a generator profile).
        "fig14_paper" => format!(
            r#""preset": "paper",
  "patch": {{ "seed": {seed}, "target_instructions": 250000 }},
  "defenses": ["rrs", "scale-srs"],
  "thresholds": [1200],
  "workloads": ["gups", "gcc", "hmmer", "libquantum", "mcf", "blackscholes"]"#
        ),
        // One name per generator profile: every trunk forks three TRH
        // branches.
        "fig12_srs_paper" => format!(
            r#""preset": "paper",
  "patch": {{ "seed": {seed}, "target_instructions": 250000 }},
  "defenses": ["srs"],
  "thresholds": [1200, 2400, 4800],
  "workloads": ["gups", "gcc", "mcf", "libquantum", "blackscholes"]"#
        ),
        // The attack patch of specs/attack_eval.json at paper geometry,
        // with the DRAM fault model and SECDED on.
        "attack_faults" => format!(
            r#""preset": "paper",
  "patch": {{
    "seed": {seed},
    "cores": 1,
    "target_instructions": 9223372036854775807,
    "trace_records_per_core": 2000,
    "refresh_window_ns": 8000000,
    "max_sim_ns": 16000000
  }},
  "defenses": ["baseline", "rrs", "srs", "scale-srs"],
  "thresholds": [1200],
  "attacks": ["single-sided", "double-sided", "4-sided", "juggernaut",
              "juggernaut-multibank", "blacksmith"],
  "workloads": ["povray"],
  "faults": {{ "enabled": true, "ecc": "secded", "scrub_interval_ns": 300000 }}"#
        ),
        _ => return None,
    };
    Some(format!("{{\n  \"name\": \"{name}\",\n  {body},\n  \"threads\": 1\n}}\n"))
}
