//! The workloads: which specs each one runs and why.
//!
//! Every input is derived from the `--seed` argument; the program only
//! ever sees the generated specs.

use icvbe_campaign::spec::{CampaignSpec, WaferMap};
use icvbe_instrument::faults::FaultSpec;

/// Worker threads of the wafer workloads (the benchmark host has 2 cores).
pub const WAFER_THREADS: usize = 2;

/// Diameter of the circular wafer map of the wafer workloads.
pub const WAFER_DIAMETER: usize = 41;

/// Worker threads of the served campaign slices.
pub const SERVE_THREADS: usize = 1;

/// Tenants of the service workload, each a closed loop of one job at a time.
pub const SERVE_TENANTS: usize = 2;

/// Distinct job specs the tenants cycle through.
pub const SERVE_SPECS: usize = 32;

/// Edge of the full (square) wafer map of one served job.
pub const SERVE_JOB_EDGE: usize = 4;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper-default spec on a large wafer, no faults, every corner run.
    WaferClean,
    /// The same wafer with heavy measurement faults and adaptive corners.
    WaferFaultedAdaptive,
    /// Small jobs through an in-process daemon over loopback.
    ServeSmallJobs,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::WaferClean,
        Workload::WaferFaultedAdaptive,
        Workload::ServeSmallJobs,
    ];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::WaferClean => "wafer_clean",
            Workload::WaferFaultedAdaptive => "wafer_faulted_adaptive",
            Workload::ServeSmallJobs => "serve_small_jobs",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The wafer workloads' spec. The campaign seed is the benchmark seed, so
/// a run can be reproduced with `repro campaign --seed`. Only the fault
/// mix and the corner schedule are set; every solver setting keeps its
/// default.
#[must_use]
pub fn wafer_spec(workload: Workload, seed: u64) -> CampaignSpec {
    let mut spec = CampaignSpec::paper_default(WaferMap::circular(WAFER_DIAMETER), seed);
    if workload == Workload::WaferFaultedAdaptive {
        spec.faults = FaultSpec::heavy();
        spec.adaptive = true;
    }
    spec
}

/// Job `k` of the service workload's spec cycle: a small paper-default
/// wafer with its own seed.
#[must_use]
pub fn job_spec(seed: u64, k: usize) -> CampaignSpec {
    let job_seed = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(k as u64 + 1);
    CampaignSpec::paper_default(WaferMap::full(SERVE_JOB_EDGE, SERVE_JOB_EDGE), job_seed)
}

/// A one-die spec used to warm a fresh daemon up.
#[must_use]
pub fn warmup_spec(seed: u64) -> CampaignSpec {
    CampaignSpec::paper_default(WaferMap::full(1, 1), seed)
}
