//! PARA: Probabilistic Adjacent Row Activation ([Kim et al., ISCA'14]).
//!
//! On every row activation, with a small probability `p`, one adjacent
//! row (chosen uniformly per side) is refreshed. Stateless, so its
//! expected overhead is exactly `p` additional ACTs per ACT — 0.1% for
//! PARA-0.001 and 0.2% for PARA-0.002, the two configurations in
//! Figure 7 — regardless of the access pattern. The protection is
//! probabilistic: there is a non-zero chance a victim is never refreshed
//! (§3.4), and no detection capability exists.
//!
//! PARA is proposed for the memory controller, which (the paper's
//! critique) only knows *logical* adjacency; the refresh targets here are
//! logical `row ± 1`.

use twice_common::rng::SplitMix64;
use twice_common::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use twice_common::{BankId, DefenseResponse, RowHammerDefense, RowId, Time};

/// The PARA defense.
#[derive(Debug, Clone)]
pub struct Para {
    p: f64,
    rng: SplitMix64,
    name: String,
}

impl Para {
    /// Creates PARA with trigger probability `p`, seeded deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn new(p: f64, seed: u64) -> Para {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        Para {
            p,
            rng: SplitMix64::new(seed),
            name: format!("PARA-{p}"),
        }
    }

    /// The configured trigger probability.
    #[inline]
    pub fn probability(&self) -> f64 {
        self.p
    }
}

impl RowHammerDefense for Para {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_activate(&mut self, _bank: BankId, row: RowId, _now: Time) -> DefenseResponse {
        if !self.rng.chance(self.p) {
            return DefenseResponse::none();
        }
        // Pick one side uniformly; fall back to the other at the edge.
        let candidate = if self.rng.chance(0.5) {
            row.below().or_else(|| row.above())
        } else {
            row.above().or_else(|| row.below())
        };
        match candidate {
            Some(victim) => DefenseResponse {
                refresh_rows: vec![victim],
                ..DefenseResponse::default()
            },
            None => DefenseResponse::none(),
        }
    }

    fn reset(&mut self) {
        // Stateless apart from the RNG; nothing to clear.
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.rng.state());
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.rng.set_state(r.take_u64()?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigger_rate_approximates_p() {
        let mut para = Para::new(0.001, 7);
        let n = 1_000_000u64;
        let mut extra = 0u64;
        for i in 0..n {
            let r = para.on_activate(BankId(0), RowId((i % 100) as u32 + 1), Time::ZERO);
            extra += r.refresh_rows.len() as u64;
        }
        let rate = extra as f64 / n as f64;
        assert!(
            (rate - 0.001).abs() < 0.0003,
            "observed overhead {rate}, expected ~0.001"
        );
    }

    #[test]
    fn refresh_targets_are_logical_neighbors() {
        let mut para = Para::new(1.0, 3);
        for _ in 0..100 {
            let r = para.on_activate(BankId(0), RowId(50), Time::ZERO);
            assert_eq!(r.refresh_rows.len(), 1);
            let v = r.refresh_rows[0];
            assert!(v == RowId(49) || v == RowId(51));
        }
    }

    #[test]
    fn both_sides_get_refreshed_over_time() {
        let mut para = Para::new(1.0, 9);
        let mut below = 0;
        let mut above = 0;
        for _ in 0..1000 {
            let r = para.on_activate(BankId(0), RowId(50), Time::ZERO);
            if r.refresh_rows[0] == RowId(49) {
                below += 1;
            } else {
                above += 1;
            }
        }
        assert!(below > 300 && above > 300, "sides must be balanced");
    }

    #[test]
    fn edge_row_refreshes_the_existing_side() {
        let mut para = Para::new(1.0, 5);
        for _ in 0..50 {
            let r = para.on_activate(BankId(0), RowId(0), Time::ZERO);
            assert_eq!(r.refresh_rows, vec![RowId(1)]);
        }
    }

    #[test]
    fn never_detects() {
        let mut para = Para::new(1.0, 1);
        for _ in 0..1000 {
            let r = para.on_activate(BankId(0), RowId(5), Time::ZERO);
            assert!(r.detection.is_none(), "PARA is attack-oblivious");
        }
    }

    #[test]
    fn name_encodes_probability() {
        assert_eq!(Para::new(0.002, 1).name(), "PARA-0.002");
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_probability_panics() {
        Para::new(1.5, 1);
    }
}
