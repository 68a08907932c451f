//! Multi-programmed workloads: SPECrate and the two mixes of §7.2.
//!
//! * **SPECrate** — 16 copies of one application, each in its own
//!   address partition (the paper's per-application bars; Figure 7a
//!   reports their average).
//! * **mix-high** — 16 applications drawn from the nine `spec-high`
//!   (memory-intensive) models.
//! * **mix-blend** — 16 applications drawn uniformly from all 29.
//! * **tenant blend** (an extension) — 16 tenants, up to 8 of them
//!   hammer attackers: the traffic of the chaos campaign's device-fault
//!   row.
//!
//! Copies are interleaved with weights proportional to MAPKI, modeling
//! each core's memory intensity.

use crate::attack::{HammerAttack, HammerShape};
use crate::spec::{spec_cpu2006, spec_high, AppModel, SpecAppSource};
use crate::trace::WeightedInterleave;
use twice_common::rng::SplitMix64;
use twice_common::{RowId, Topology};

/// Builds a 16-copy SPECrate workload of `model`.
pub fn spec_rate(topo: &Topology, model: &AppModel, seed: u64) -> WeightedInterleave {
    let sources = (0..16u16)
        .map(|i| {
            (
                Box::new(SpecAppSource::new(topo, model.clone(), i, 16, seed)) as Box<_>,
                1,
            )
        })
        .collect();
    WeightedInterleave::new(sources)
}

fn mix_of(topo: &Topology, pool: &[AppModel], seed: u64) -> WeightedInterleave {
    assert!(!pool.is_empty(), "application pool must be non-empty");
    let mut rng = SplitMix64::new(seed);
    let sources = (0..16u16)
        .map(|i| {
            let model = pool[rng.next_below(pool.len() as u64) as usize].clone();
            // Weight by memory intensity, floored so light apps still run.
            let weight = (model.mapki.round() as u32).max(1);
            (
                Box::new(SpecAppSource::new(topo, model, i, 16, seed ^ 0x5eed)) as Box<_>,
                weight,
            )
        })
        .collect();
    WeightedInterleave::new(sources)
}

/// The `mix-high` workload: 16 applications from the `spec-high` set.
pub fn mix_high(topo: &Topology, seed: u64) -> WeightedInterleave {
    mix_of(topo, &spec_high(), seed)
}

/// The `mix-blend` workload: 16 applications from the whole suite.
pub fn mix_blend(topo: &Topology, seed: u64) -> WeightedInterleave {
    mix_of(topo, &spec_cpu2006(), seed)
}

/// A 16-tenant blend: `attackers` of the tenants (capped at 8 so the
/// blend keeps benign traffic) are hammer sources with seeded shapes —
/// single-, double-, many-sided, and decoy patterns rotate per attacker
/// — and the rest are MAPKI-weighted SPEC applications.
///
/// Attackers get weight 10: hammering only pays at high activation
/// rates, so a system under attack sees a realistic skew without
/// starving its benign tenants.
pub fn tenant_blend(topo: &Topology, seed: u64, attackers: u16) -> WeightedInterleave {
    let n_attack = attackers.min(8);
    let pool = spec_cpu2006();
    let mut rng = SplitMix64::new(seed ^ 0xA77A_C4E5);
    let rows = topo.rows_per_bank;
    assert!(rows >= 16, "tenant_blend needs at least 16 rows per bank");
    let row = move |rng: &mut SplitMix64| RowId(rng.next_below(u64::from(rows - 2)) as u32 + 1);
    let sources = (0..16u16)
        .map(|i| {
            if i < n_attack {
                let bank = rng.next_below(u64::from(topo.banks_per_rank)) as u16;
                let shape = match i % 4 {
                    0 => HammerShape::SingleSided {
                        aggressor: row(&mut rng),
                    },
                    1 => HammerShape::DoubleSided {
                        victim: row(&mut rng),
                    },
                    2 => HammerShape::ManySided {
                        aggressors: (0..6).map(|_| row(&mut rng)).collect(),
                    },
                    _ => HammerShape::Decoy {
                        aggressor: row(&mut rng),
                        decoys: (0..5).map(|_| row(&mut rng)).collect(),
                    },
                };
                (
                    Box::new(HammerAttack::new(topo, bank, shape)) as Box<_>,
                    10u32,
                )
            } else {
                let model = pool[rng.next_below(pool.len() as u64) as usize].clone();
                let weight = (model.mapki.round() as u32).max(1);
                (
                    Box::new(SpecAppSource::new(topo, model, i, 16, seed ^ 0xF1EE7)) as Box<_>,
                    weight,
                )
            }
        })
        .collect();
    WeightedInterleave::new(sources)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::app;
    use crate::trace::AccessSource;

    #[test]
    fn spec_rate_uses_all_16_sources() {
        let topo = Topology::paper_default();
        let mix = spec_rate(&topo, &app("mcf").unwrap(), 1);
        let sources: std::collections::HashSet<u16> =
            mix.take_requests(1000).map(|(req, _)| req.source).collect();
        assert_eq!(sources.len(), 16);
    }

    #[test]
    fn mixes_produce_traffic_from_many_cores() {
        let topo = Topology::paper_default();
        for mix in [mix_high(&topo, 2), mix_blend(&topo, 3)] {
            let sources: std::collections::HashSet<u16> =
                mix.take_requests(5000).map(|(req, _)| req.source).collect();
            assert!(sources.len() >= 8, "only {} sources active", sources.len());
        }
    }

    #[test]
    fn tenant_blend_mixes_attackers_with_benign_traffic() {
        let topo = Topology::paper_default();
        let blend = tenant_blend(&topo, 9, 4);
        let sources: std::collections::HashSet<u16> = blend
            .take_requests(5000)
            .map(|(req, _)| req.source)
            .collect();
        assert!(sources.len() >= 8, "only {} sources active", sources.len());
    }

    #[test]
    fn tenant_blend_attacker_count_is_capped() {
        let topo = Topology::paper_default();
        // 16 attackers requested; the blend must still build (capped at 8)
        // and keep benign tenants in the rotation.
        let blend = tenant_blend(&topo, 9, 16);
        assert!(blend.take_requests(1000).count() == 1000);
    }

    #[test]
    fn tenant_blend_is_deterministic_in_seed() {
        let topo = Topology::paper_default();
        let a: Vec<_> = tenant_blend(&topo, 11, 3)
            .take_requests(300)
            .map(|(r, _)| r.addr)
            .collect();
        let b: Vec<_> = tenant_blend(&topo, 11, 3)
            .take_requests(300)
            .map(|(r, _)| r.addr)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn mix_is_deterministic_in_seed() {
        let topo = Topology::paper_default();
        let a: Vec<_> = mix_high(&topo, 7)
            .take_requests(200)
            .map(|(r, _)| r.addr)
            .collect();
        let b: Vec<_> = mix_high(&topo, 7)
            .take_requests(200)
            .map(|(r, _)| r.addr)
            .collect();
        assert_eq!(a, b);
    }
}
