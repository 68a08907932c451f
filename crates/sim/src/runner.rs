//! Workload × defense runners.

use crate::config::SimConfig;
use crate::metrics::RunMetrics;
use crate::outcome::CellError;
use crate::system::System;
use std::fmt;
use twice_common::RowId;
use twice_mitigations::DefenseKind;
use twice_workloads::attack::{HammerAttack, HammerShape};
use twice_workloads::fft::FftSource;
use twice_workloads::mica::MicaSource;
use twice_workloads::mix::{mix_blend, mix_high, spec_rate, tenant_blend};
use twice_workloads::pagerank::PageRankSource;
use twice_workloads::radix::RadixSource;
use twice_workloads::spec::app;
use twice_workloads::synth::{S1Random, S2CbtAdversarial, S3SingleRowHammer};
use twice_workloads::{AccessSource, TraceItem};

/// The workloads of §7.2.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadKind {
    /// 16-copy SPECrate of one application.
    SpecRate(&'static str),
    /// The memory-intensive 16-app mix.
    MixHigh,
    /// The blended 16-app mix.
    MixBlend,
    /// SPLASH-2X FFT.
    Fft,
    /// SPLASH-2X RADIX.
    Radix,
    /// MICA key-value store.
    Mica,
    /// GAP PageRank.
    PageRank,
    /// Synthetic: uniform random.
    S1,
    /// Synthetic: CBT-adversarial.
    S2,
    /// Synthetic: single-row hammer.
    S3,
    /// A configurable hammer attack on bank 0.
    Attack(HammerShape),
    /// A 16-tenant blend: `attackers` hammer sources (shapes rotating
    /// over single-, double-, many-sided, and decoy) mixed with
    /// MAPKI-weighted SPEC tenants — the chaos grid's device-fault row.
    TenantBlend {
        /// How many of the 16 tenants are attackers (capped at 8).
        attackers: u16,
    },
}

impl fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadKind::SpecRate(name) => write!(f, "{name}"),
            WorkloadKind::MixHigh => write!(f, "mix-high"),
            WorkloadKind::MixBlend => write!(f, "mix-blend"),
            WorkloadKind::Fft => write!(f, "FFT"),
            WorkloadKind::Radix => write!(f, "RADIX"),
            WorkloadKind::Mica => write!(f, "MICA"),
            WorkloadKind::PageRank => write!(f, "PageRank"),
            WorkloadKind::S1 => write!(f, "S1"),
            WorkloadKind::S2 => write!(f, "S2"),
            WorkloadKind::S3 => write!(f, "S3"),
            WorkloadKind::Attack(shape) => write!(f, "attack({shape:?})"),
            WorkloadKind::TenantBlend { attackers } => write!(f, "tenant-blend(a{attackers})"),
        }
    }
}

impl WorkloadKind {
    /// The Figure 7(a) workload list (SPECrate average is computed from
    /// the individual SpecRate runs by the experiment module).
    pub fn figure7a() -> Vec<WorkloadKind> {
        vec![
            WorkloadKind::MixHigh,
            WorkloadKind::MixBlend,
            WorkloadKind::Fft,
            WorkloadKind::Mica,
            WorkloadKind::PageRank,
            WorkloadKind::Radix,
        ]
    }

    /// The Figure 7(b) synthetic list.
    pub fn figure7b() -> Vec<WorkloadKind> {
        vec![WorkloadKind::S1, WorkloadKind::S2, WorkloadKind::S3]
    }

    /// Resolves a CLI workload name: the named kinds (`s1`, `mix-high`,
    /// `pagerank`, …) plus every SPEC CPU2006 application model
    /// (`mcf`, `libquantum`, …) as a 16-copy SPECrate run.
    pub fn parse(name: &str) -> Option<WorkloadKind> {
        Some(match name {
            "s1" => WorkloadKind::S1,
            "s2" => WorkloadKind::S2,
            "s3" => WorkloadKind::S3,
            "mix-high" => WorkloadKind::MixHigh,
            "mix-blend" => WorkloadKind::MixBlend,
            "fft" => WorkloadKind::Fft,
            "radix" => WorkloadKind::Radix,
            "mica" => WorkloadKind::Mica,
            "pagerank" => WorkloadKind::PageRank,
            other => WorkloadKind::SpecRate(app(other)?.name),
        })
    }
}

/// Builds the (unbounded, snapshot-capable) generator for `kind`.
///
/// The boxed source keeps its [`AccessSource`] snapshot hooks, so a
/// checkpointed run can save and restore the generator cursor alongside
/// the system state (see [`crate::checkpoint::ResumableRun`]).
///
/// # Errors
///
/// [`CellError::UnknownApp`] if a `SpecRate` name has no model.
pub fn try_build_source(
    cfg: &SimConfig,
    kind: &WorkloadKind,
) -> Result<Box<dyn AccessSource + Send>, CellError> {
    let topo = &cfg.topology;
    let seed = cfg.seed;
    Ok(match kind {
        WorkloadKind::SpecRate(name) => {
            let model = app(name).ok_or_else(|| CellError::UnknownApp((*name).to_string()))?;
            Box::new(spec_rate(topo, &model, seed))
        }
        WorkloadKind::MixHigh => Box::new(mix_high(topo, seed)),
        WorkloadKind::MixBlend => Box::new(mix_blend(topo, seed)),
        WorkloadKind::Fft => Box::new(FftSource::new(topo, 1 << 22, 16)),
        WorkloadKind::Radix => Box::new(RadixSource::new(topo, 1 << 22, 256, 16, seed)),
        WorkloadKind::Mica => Box::new(MicaSource::standard(topo, seed)),
        WorkloadKind::PageRank => Box::new(PageRankSource::standard(topo, seed)),
        WorkloadKind::S1 => Box::new(S1Random::new(topo, seed)),
        WorkloadKind::S2 => Box::new(S2CbtAdversarial::standard(topo, seed)),
        WorkloadKind::S3 => Box::new(S3SingleRowHammer::new(topo, seed)),
        WorkloadKind::Attack(shape) => Box::new(HammerAttack::new(topo, 0, shape.clone())),
        WorkloadKind::TenantBlend { attackers } => Box::new(tenant_blend(topo, seed, *attackers)),
    })
}

/// Builds the generator for `kind`, panicking on unknown SPEC names.
pub fn build_source(cfg: &SimConfig, kind: &WorkloadKind) -> Box<dyn AccessSource + Send> {
    try_build_source(cfg, kind).unwrap_or_else(|e| panic!("{e}"))
}

/// Builds the bounded trace for `kind` with `requests` accesses.
///
/// # Panics
///
/// Panics if a `SpecRate` name is unknown.
pub fn build_trace(
    cfg: &SimConfig,
    kind: &WorkloadKind,
    requests: u64,
) -> Box<dyn Iterator<Item = TraceItem>> {
    Box::new(build_source(cfg, kind).take_requests(requests))
}

/// Runs `workload` under `defense` for `requests` accesses and collects
/// the metrics, reporting failures as typed per-cell errors instead of
/// unwinding.
///
/// # Errors
///
/// [`CellError::InvalidConfig`], [`CellError::UnknownApp`], or
/// [`CellError::RetryExhausted`].
pub fn try_run(
    cfg: &SimConfig,
    workload: WorkloadKind,
    defense: DefenseKind,
    requests: u64,
) -> Result<RunMetrics, CellError> {
    cfg.validate()
        .map_err(|e| CellError::InvalidConfig(e.to_string()))?;
    let source = try_build_source(cfg, &workload)?;
    let mut system = System::new(cfg, defense);
    system
        .run(source.take_requests(requests))
        .map_err(|e| CellError::RetryExhausted(e.to_string()))?;
    Ok(system.metrics(workload.to_string()))
}

/// One independent cell of an experiment grid: workload × defense ×
/// request budget.
pub type RunSpec = (WorkloadKind, DefenseKind, u64);

/// Runs every spec against `cfg` across a pool of `jobs` workers (see
/// [`crate::parallel::parallel_map`]), returning results in spec order.
///
/// Each run is fully self-contained — own generator, own [`System`] —
/// and seeded by `cfg` alone, so results are identical for every `jobs`
/// value; the pool only changes wall-clock time.
pub fn try_run_batch(
    cfg: &SimConfig,
    specs: &[RunSpec],
    jobs: usize,
) -> Vec<Result<RunMetrics, CellError>> {
    crate::parallel::parallel_map(jobs, specs, |_, (workload, defense, requests)| {
        try_run(cfg, workload.clone(), *defense, *requests)
    })
}

/// Runs `workload` under `defense` for `requests` accesses and collects
/// the metrics.
pub fn run(
    cfg: &SimConfig,
    workload: WorkloadKind,
    defense: DefenseKind,
    requests: u64,
) -> RunMetrics {
    try_run(cfg, workload, defense, requests)
        .unwrap_or_else(|e| panic!("{e}; use try_run for fallible cells"))
}

/// Convenience: a double-sided attack around `victim`.
pub fn double_sided(victim: u32) -> WorkloadKind {
    WorkloadKind::Attack(HammerShape::DoubleSided {
        victim: RowId(victim),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use twice::TableOrganization;

    #[test]
    fn every_workload_builds_and_runs_briefly() {
        let cfg = SimConfig::fast_test();
        let workloads = [
            WorkloadKind::SpecRate("mcf"),
            WorkloadKind::MixHigh,
            WorkloadKind::MixBlend,
            WorkloadKind::Fft,
            WorkloadKind::Radix,
            WorkloadKind::Mica,
            WorkloadKind::PageRank,
            WorkloadKind::S1,
            WorkloadKind::S2,
            WorkloadKind::S3,
            double_sided(100),
            WorkloadKind::TenantBlend { attackers: 4 },
        ];
        for w in workloads {
            let label = w.to_string();
            let m = run(&cfg, w, DefenseKind::None, 500);
            assert_eq!(m.requests, 500, "{label}");
            assert!(m.normal_acts > 0, "{label}");
        }
    }

    #[test]
    fn s3_under_twice_detects_and_stays_cheap() {
        let cfg = SimConfig::fast_test(); // thRH = 256
        let m = run(
            &cfg,
            WorkloadKind::S3,
            DefenseKind::Twice(TableOrganization::FullyAssociative),
            20_000,
        );
        assert!(m.detections > 0, "the hammer must be detected");
        assert_eq!(m.bit_flips, 0);
        // Up to 2 additional ACTs per thRH normal ACTs.
        let bound = (m.normal_acts / cfg.params.th_rh + 1) * 2;
        assert!(m.additional_acts <= bound + 2);
        assert!(m.nacks > 0, "ARRs must have nacked some commands");
    }

    #[test]
    fn parse_covers_named_kinds_and_spec_apps() {
        assert_eq!(WorkloadKind::parse("s3"), Some(WorkloadKind::S3));
        assert_eq!(WorkloadKind::parse("mix-high"), Some(WorkloadKind::MixHigh));
        assert_eq!(
            WorkloadKind::parse("pagerank"),
            Some(WorkloadKind::PageRank)
        );
        assert_eq!(
            WorkloadKind::parse("mcf"),
            Some(WorkloadKind::SpecRate("mcf"))
        );
        assert_eq!(WorkloadKind::parse("nope"), None);
    }

    #[test]
    fn unknown_spec_app_panics() {
        let cfg = SimConfig::fast_test();
        let result =
            std::panic::catch_unwind(|| build_trace(&cfg, &WorkloadKind::SpecRate("nope"), 1));
        assert!(result.is_err());
    }
}
