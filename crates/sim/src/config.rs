//! Simulated-system configuration.

use twice::TwiceParams;
use twice_common::fault::FaultPlan;
use twice_common::{ConfigError, Topology};
use twice_memctrl::controller::ControllerConfig;
use twice_memctrl::controller::RefreshMode;
use twice_memctrl::pagepolicy::PagePolicy;
use twice_memctrl::resilience::RetryPolicy;
use twice_memctrl::scheduler::SchedulerKind;

/// Everything needed to build a [`crate::system::System`].
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Memory topology (channels/ranks/banks/rows).
    pub topology: Topology,
    /// TWiCe parameters (also carries the DDR timing set used by the
    /// whole memory system).
    pub params: TwiceParams,
    /// Disturbance threshold for the *fault model* (may be set lower than
    /// `params.n_th` in protection tests to stress the defense; equal by
    /// default).
    pub fault_n_th: u64,
    /// Remapped (spared) rows per bank.
    pub faults_per_bank: u32,
    /// Overdrive fault model: extra bit flips per this much disturbance
    /// beyond `fault_n_th` (None = classic single-flip model).
    pub overshoot_interval: Option<u64>,
    /// Half-Double coupling: every `k`-th ACT also disturbs distance-2
    /// rows (None = classic distance-1 model).
    pub far_coupling: Option<u64>,
    /// ARR blast radius (1 = the paper's design; 2 = widened "TWiCe+").
    pub arr_radius: u32,
    /// Auto-refresh mode (per-bank or all-bank).
    pub refresh_mode: RefreshMode,
    /// Scheduler for every channel. PAR-BS is the only one and the
    /// controller always runs it; Table 4 prints this field, and
    /// layerbench's copy of the controller builds its scheduler from it.
    pub scheduler: SchedulerKind,
    /// Page policy for every channel (minimalist-open, the only one).
    pub page_policy: PagePolicy,
    /// Request-queue capacity per channel.
    pub queue_capacity: usize,
    /// Master seed (defenses, remap tables, workloads derive from it).
    pub seed: u64,
    /// Chaos fault plan applied to every channel (engine SEUs, RCD bus
    /// faults, MC refresh/jitter faults). [`FaultPlan::none`] by default.
    pub fault_plan: FaultPlan,
    /// Nack-retry bounds for every channel controller.
    pub retry: RetryPolicy,
    /// Whether TWiCe engines get the parity/scrub hardening (`false`
    /// models the paper's original, fault-oblivious design).
    pub twice_scrubbing: bool,
    /// Probability for the MC-side PARA fallback installed on every
    /// channel whose primary defense is RCD-resident: while that defense
    /// reports corruption, PARA covers the channel. `None` = no fallback.
    pub para_fallback: Option<f64>,
}

impl SimConfig {
    /// The Table 4 system: 2 channels × 2 ranks × 16 banks of DDR4-2400,
    /// PAR-BS, minimalist-open, 64-entry queues.
    pub fn paper_default() -> SimConfig {
        SimConfig {
            topology: Topology::paper_default(),
            params: TwiceParams::paper_default(),
            fault_n_th: 139_000,
            faults_per_bank: 0,
            overshoot_interval: None,
            far_coupling: None,
            arr_radius: 1,
            refresh_mode: RefreshMode::PerBank,
            scheduler: SchedulerKind::ParBs,
            page_policy: PagePolicy::paper_default(),
            queue_capacity: 64,
            seed: 0x71CE,
            fault_plan: FaultPlan::none(),
            retry: RetryPolicy::paper_default(),
            twice_scrubbing: true,
            para_fallback: None,
        }
    }

    /// A scaled-down system for unit tests: one channel, small banks,
    /// compressed refresh window, low thresholds — attacks complete in
    /// tens of thousands of requests instead of millions.
    pub fn fast_test() -> SimConfig {
        let params = TwiceParams::fast_test(); // thRH=256, window 64us
        SimConfig {
            topology: Topology {
                channels: 1,
                ranks_per_channel: 1,
                banks_per_rank: 2,
                rows_per_bank: params.rows_per_bank,
                cols_per_row: 128,
                row_bytes: 8_192,
                devices_per_rank: 8,
            },
            fault_n_th: params.n_th,
            params,
            faults_per_bank: 0,
            overshoot_interval: None,
            far_coupling: None,
            arr_radius: 1,
            refresh_mode: RefreshMode::PerBank,
            scheduler: SchedulerKind::ParBs,
            page_policy: PagePolicy::paper_default(),
            queue_capacity: 64,
            seed: 42,
            fault_plan: FaultPlan::none(),
            retry: RetryPolicy::paper_default(),
            twice_scrubbing: true,
            para_fallback: None,
        }
    }

    /// Banks per channel (defense instances are per channel).
    pub fn banks_per_channel(&self) -> u32 {
        self.topology.banks_per_channel()
    }

    /// The per-channel controller configuration.
    pub fn controller_config(&self, channel: u8) -> ControllerConfig {
        ControllerConfig {
            timings: self.params.timings.clone(),
            ranks: self.topology.ranks_per_channel,
            banks_per_rank: self.topology.banks_per_rank,
            rows_per_bank: self.topology.rows_per_bank,
            n_th: self.fault_n_th,
            faults_per_bank: self.faults_per_bank,
            overshoot_interval: self.overshoot_interval,
            far_coupling: self.far_coupling,
            arr_radius: self.arr_radius,
            refresh_mode: self.refresh_mode,
            page_policy: self.page_policy,
            queue_capacity: self.queue_capacity,
            remap_seed: self.seed ^ (u64::from(channel) << 48),
            retry: self.retry,
            fault_plan: {
                // Give each channel a decorrelated copy of the plan.
                let mut plan = self.fault_plan.clone();
                plan.seed ^= u64::from(channel) << 32;
                plan
            },
        }
    }

    /// Validates the composite configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violation among topology, timing, and TWiCe
    /// parameter validation, or a mismatch between the topology's rows
    /// per bank and `params.rows_per_bank`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.topology.validate()?;
        self.params.validate()?;
        if self.topology.rows_per_bank != self.params.rows_per_bank {
            return Err(ConfigError::new(format!(
                "topology rows_per_bank ({}) != params.rows_per_bank ({})",
                self.topology.rows_per_bank, self.params.rows_per_bank
            )));
        }
        if self.fault_n_th == 0 {
            return Err(ConfigError::new("fault_n_th must be non-zero"));
        }
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_validates() {
        SimConfig::paper_default().validate().unwrap();
    }

    #[test]
    fn fast_test_validates() {
        SimConfig::fast_test().validate().unwrap();
    }

    #[test]
    fn mismatched_rows_rejected() {
        let mut cfg = SimConfig::fast_test();
        cfg.topology.rows_per_bank += 1;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn controller_configs_differ_per_channel_seed() {
        let cfg = SimConfig::paper_default();
        let a = cfg.controller_config(0);
        let b = cfg.controller_config(1);
        assert_ne!(a.remap_seed, b.remap_seed);
        assert_eq!(a.banks_per_rank, 16);
    }
}
