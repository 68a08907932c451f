//! The multi-channel simulated memory system.

use crate::config::SimConfig;
use crate::metrics::RunMetrics;
use twice_common::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use twice_common::Time;
use twice_dram::energy::DramEnergyModel;
use twice_memctrl::controller::{ChannelController, DefenseLocation};
use twice_memctrl::resilience::ControllerError;
use twice_mitigations::{make_defense_chaos, DefenseKind, Para};
use twice_workloads::TraceItem;

/// The full system: one [`ChannelController`] per channel, each with its
/// own defense instance (defense state is per-bank, so per-channel
/// instantiation is behavior-preserving).
pub struct System {
    controllers: Vec<ChannelController>,
    defense_label: String,
    requests: u64,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("channels", &self.controllers.len())
            .field("defense", &self.defense_label)
            .field("requests", &self.requests)
            .finish()
    }
}

impl System {
    /// Builds the system of `cfg` protected by `kind`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation.
    pub fn new(cfg: &SimConfig, kind: DefenseKind) -> System {
        cfg.validate().expect("invalid simulation configuration");
        let location = if kind.is_rcd_resident() {
            DefenseLocation::Rcd
        } else {
            DefenseLocation::MemoryController
        };
        let controllers = (0..cfg.topology.channels)
            .map(|ch| {
                let defense = make_defense_chaos(
                    kind,
                    &cfg.params,
                    cfg.banks_per_channel(),
                    cfg.seed ^ (u64::from(ch) << 40),
                    &cfg.fault_plan,
                    cfg.twice_scrubbing,
                );
                let mut ctrl = ChannelController::new(cfg.controller_config(ch), defense, location);
                if location == DefenseLocation::Rcd {
                    if let Some(p) = cfg.para_fallback {
                        ctrl = ctrl.with_fallback_defense(Box::new(Para::new(
                            p,
                            cfg.seed ^ 0xFA11 ^ (u64::from(ch) << 24),
                        )));
                    }
                }
                ctrl
            })
            .collect();
        System {
            controllers,
            defense_label: kind.to_string(),
            requests: 0,
        }
    }

    /// Feeds one trace item: routes it to its channel, servicing that
    /// channel's queue until it has capacity.
    ///
    /// # Errors
    ///
    /// [`ControllerError::RetryExhausted`] if the channel's nack-retry
    /// budget runs out while making room.
    pub fn feed(&mut self, (req, access): TraceItem) -> Result<(), ControllerError> {
        let c = access.channel.index();
        assert!(c < self.controllers.len(), "trace channel out of range");
        self.controllers[c].feed(req, access)?;
        self.requests += 1;
        Ok(())
    }

    /// Services every queued request to completion (idempotent: draining
    /// an already-empty system is a no-op).
    ///
    /// # Errors
    ///
    /// [`ControllerError::RetryExhausted`] as for [`System::feed`].
    pub fn drain(&mut self) -> Result<(), ControllerError> {
        for ctrl in &mut self.controllers {
            ctrl.drain()?;
        }
        Ok(())
    }

    /// Feeds `trace` through the system to completion: items are routed
    /// to their channel, controllers service requests as their queues
    /// fill, and all queues are drained at the end.
    ///
    /// # Errors
    ///
    /// [`ControllerError::RetryExhausted`] if a channel's nack-retry
    /// budget runs out — only possible under fault injection, so
    /// fault-free callers can `expect` this.
    pub fn run(
        &mut self,
        trace: impl IntoIterator<Item = TraceItem>,
    ) -> Result<(), ControllerError> {
        for item in trace {
            self.feed(item)?;
        }
        self.drain()
    }

    /// Requests fed so far.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// The latest simulated instant across all channels.
    pub fn sim_time(&self) -> Time {
        self.controllers
            .iter()
            .map(|c| c.now())
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// A 64-bit digest of the complete mutable system state: the
    /// checksum its snapshot blob ends with.
    pub fn digest(&self) -> u64 {
        twice_common::snapshot::digest_of(self)
    }

    /// The per-channel controllers.
    pub fn controllers(&self) -> &[ChannelController] {
        &self.controllers
    }

    /// Highest disturbance any row in the whole system ever reached
    /// (monotone watermark; survives refreshes). The red-team fitness
    /// probe: how far an attack pushed a victim even if a defense later
    /// cleaned up.
    pub fn peak_disturbance(&self) -> u64 {
        self.controllers
            .iter()
            .map(|c| c.peak_disturbance())
            .max()
            .unwrap_or(0)
    }

    /// Merged pressure reading across every defense in the system.
    pub fn defense_pressure(&self) -> twice_common::DefensePressure {
        self.controllers
            .iter()
            .map(|c| c.defense_pressure())
            .fold(twice_common::DefensePressure::default(), |acc, p| {
                acc.merge(p)
            })
    }

    /// Total bit flips recorded by the fault model across all channels —
    /// each one a victim that crossed `N_th` without a timely mitigation.
    pub fn bit_flip_count(&self) -> usize {
        self.controllers.iter().map(|c| c.bit_flip_count()).sum()
    }

    /// Cumulative mitigation activity across all channels: additional
    /// ACTs the defenses caused plus detections raised. Zero means no
    /// defense ever acted — the red-team "stealth" predicate.
    pub fn mitigation_activity(&self) -> u64 {
        self.controllers
            .iter()
            .map(|c| c.additional_acts() + c.detections().len() as u64)
            .sum()
    }

    /// Collects the run's metrics under `workload_label`.
    pub fn metrics(&self, workload_label: impl Into<String>) -> RunMetrics {
        let energy_model = DramEnergyModel::ddr4();
        let mut latency = twice_memctrl::latency::LatencyHistogram::new();
        for c in &self.controllers {
            latency.merge(c.latency());
        }
        RunMetrics {
            workload: workload_label.into(),
            defense: self.defense_label.clone(),
            requests: self.requests,
            normal_acts: self.controllers.iter().map(|c| c.normal_acts()).sum(),
            additional_acts: self.controllers.iter().map(|c| c.additional_acts()).sum(),
            detections: self
                .controllers
                .iter()
                .map(|c| c.detections().len() as u64)
                .sum(),
            bit_flips: self.controllers.iter().map(|c| c.bit_flip_count()).sum(),
            nacks: self.controllers.iter().map(|c| c.nacks()).sum(),
            energy_pj: self
                .controllers
                .iter()
                .map(|c| c.energy_pj(&energy_model))
                .sum(),
            sim_time: self
                .controllers
                .iter()
                .map(|c| c.now())
                .max()
                .unwrap_or(Time::ZERO),
            latency_mean: latency.mean(),
            latency_p99: latency.quantile(0.99),
            latency_max: latency.max(),
        }
    }
}

impl Snapshot for System {
    fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_str(&self.defense_label);
        w.put_u64(self.requests);
        w.put_usize(self.controllers.len());
        for c in &self.controllers {
            c.save_state(w);
        }
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let label = r.take_str()?;
        if label != self.defense_label {
            return Err(SnapshotError::StateMismatch(format!(
                "snapshot was taken under defense {label}, this system runs {}",
                self.defense_label
            )));
        }
        self.requests = r.take_u64()?;
        let channels = r.take_usize()?;
        if channels != self.controllers.len() {
            return Err(SnapshotError::StateMismatch(format!(
                "snapshot has {channels} channels, this system has {}",
                self.controllers.len()
            )));
        }
        for c in &mut self.controllers {
            c.load_state(r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twice_workloads::synth::S1Random;
    use twice_workloads::AccessSource;

    #[test]
    fn runs_a_random_trace_unprotected() {
        let cfg = SimConfig::fast_test();
        let mut sys = System::new(&cfg, DefenseKind::None);
        let trace = S1Random::new(&cfg.topology, cfg.seed).take_requests(2_000);
        sys.run(trace).expect("fault-free run");
        let m = sys.metrics("s1");
        assert_eq!(m.requests, 2_000);
        assert!(m.normal_acts > 0);
        assert_eq!(m.additional_acts, 0);
        assert_eq!(m.defense, "none");
    }

    #[test]
    fn act_rate_respects_trc() {
        // A single bank cannot take ACTs faster than one per tRC.
        let cfg = SimConfig::fast_test();
        let mut sys = System::new(&cfg, DefenseKind::None);
        let trace = S1Random::new(&cfg.topology, 1).take_requests(5_000);
        sys.run(trace).expect("fault-free run");
        let m = sys.metrics("s1");
        let banks = u64::from(cfg.topology.total_banks());
        let min_interval = cfg.params.timings.t_rc.as_ps() / banks;
        assert!(
            m.mean_act_interval().as_ps() >= min_interval,
            "mean interval {} beats physics",
            m.mean_act_interval()
        );
    }

    #[test]
    fn snapshot_round_trip_resumes_identically() {
        let cfg = SimConfig::fast_test();
        let trace: Vec<_> = S1Random::new(&cfg.topology, cfg.seed)
            .take_requests(2_000)
            .collect();
        let mut a = System::new(&cfg, DefenseKind::None);
        for item in &trace[..1_000] {
            a.feed(*item).expect("fault-free feed");
        }
        let blob = twice_common::snapshot::snapshot_bytes(&a);
        let mut b = System::new(&cfg, DefenseKind::None);
        twice_common::snapshot::restore_from(&mut b, &blob).expect("restore");
        assert_eq!(a.digest(), b.digest(), "restored digest must match");
        for item in &trace[1_000..] {
            a.feed(*item).expect("fault-free feed");
            b.feed(*item).expect("fault-free feed");
        }
        a.drain().expect("drain");
        b.drain().expect("drain");
        assert_eq!(a.digest(), b.digest(), "suffix replay must converge");
        assert_eq!(a.metrics("s1"), b.metrics("s1"));
    }

    #[test]
    fn snapshot_rejects_wrong_defense() {
        let cfg = SimConfig::fast_test();
        let a = System::new(&cfg, DefenseKind::None);
        let blob = twice_common::snapshot::snapshot_bytes(&a);
        let mut b = System::new(&cfg, DefenseKind::Oracle);
        let err = twice_common::snapshot::restore_from(&mut b, &blob).unwrap_err();
        assert!(
            matches!(err, SnapshotError::StateMismatch(_)),
            "wrong defense must be rejected, got {err:?}"
        );
    }

    #[test]
    fn multi_channel_routing() {
        let mut cfg = SimConfig::fast_test();
        cfg.topology.channels = 2;
        let mut sys = System::new(&cfg, DefenseKind::None);
        let trace = S1Random::new(&cfg.topology, 3).take_requests(2_000);
        sys.run(trace).expect("fault-free run");
        for ctrl in sys.controllers() {
            assert!(ctrl.served() > 500, "both channels must see traffic");
        }
    }
}
