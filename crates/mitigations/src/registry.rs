//! A factory over every defense in the workspace (including TWiCe), so
//! experiments can sweep defenses from a declarative list.

use crate::cbt::Cbt;
use crate::cra::Cra;
use crate::graphene::Graphene;
use crate::naive::PerRowOracle;
use crate::none::NoProtection;
use crate::para::Para;
use crate::prohit::Prohit;
use crate::trr::Trr;
use std::fmt;
use twice::{TableOrganization, TwiceEngine, TwiceParams};
use twice_common::fault::FaultPlan;
use twice_common::RowHammerDefense;

/// A defense selector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DefenseKind {
    /// No protection.
    None,
    /// TWiCe with the given table organization.
    Twice(TableOrganization),
    /// PARA with trigger probability `p`.
    Para {
        /// Trigger probability.
        p: f64,
    },
    /// PRoHIT with refresh probability `p`.
    Prohit {
        /// Refresh probability.
        p: f64,
    },
    /// CBT with `counters` counters per bank (threshold 32K, 11 levels).
    Cbt {
        /// Counters per bank.
        counters: usize,
    },
    /// CRA with `cache_entries` cached counters per bank.
    Cra {
        /// Counter-cache entries per bank.
        cache_entries: usize,
    },
    /// The exact per-row oracle.
    Oracle,
    /// An in-DRAM TRR model with `entries` tracker slots (extension).
    Trr {
        /// Tracker slots per bank.
        entries: usize,
    },
    /// Graphene (MICRO'20 follow-up): exact Misra–Gries tracking sized
    /// for the refresh window (extension).
    Graphene,
}

impl DefenseKind {
    /// Every CLI defense name [`DefenseKind::parse`] accepts, in parse
    /// order. Error messages list these so a typo comes back with the
    /// full menu.
    pub const NAMES: [&'static str; 13] = [
        "twice",
        "twice-fa",
        "twice-pa",
        "twice-split",
        "para",
        "para2",
        "prohit",
        "cbt",
        "cra",
        "trr",
        "graphene",
        "oracle",
        "none",
    ];

    /// Parses a CLI defense name. This is the single source of truth for
    /// every subcommand (`attack`, `profile`, `redteam`, `trace`, ...);
    /// unknown names should be reported with [`DefenseKind::NAMES`] and
    /// exit code 2.
    pub fn parse(name: &str) -> Option<DefenseKind> {
        Some(match name {
            "twice" | "twice-fa" => DefenseKind::Twice(TableOrganization::FullyAssociative),
            "twice-pa" => DefenseKind::Twice(TableOrganization::PseudoAssociative),
            "twice-split" => DefenseKind::Twice(TableOrganization::Split),
            "para" => DefenseKind::Para { p: 0.001 },
            "para2" => DefenseKind::Para { p: 0.002 },
            "prohit" => DefenseKind::Prohit { p: 0.001 },
            "cbt" => DefenseKind::Cbt { counters: 256 },
            "cra" => DefenseKind::Cra { cache_entries: 512 },
            "trr" => DefenseKind::Trr { entries: 16 },
            "graphene" => DefenseKind::Graphene,
            "oracle" => DefenseKind::Oracle,
            "none" => DefenseKind::None,
            _ => return None,
        })
    }

    /// The canonical CLI name for this kind (round-trips through
    /// [`DefenseKind::parse`] for every parseable configuration).
    pub fn cli_name(&self) -> Option<&'static str> {
        for name in DefenseKind::NAMES {
            if name == "twice" {
                continue; // alias of twice-fa
            }
            if DefenseKind::parse(name) == Some(*self) {
                return Some(name);
            }
        }
        None
    }

    /// The distinct defenses the security-regression gate replays the
    /// corpus against: every parseable kind, deduplicated. `none` is
    /// included deliberately — an adversarial trace that does *not* flip
    /// bits on unprotected DRAM is not adversarial.
    pub fn verify_lineup() -> Vec<DefenseKind> {
        let mut out = Vec::new();
        for name in DefenseKind::NAMES {
            let kind = DefenseKind::parse(name).expect("NAMES entries parse");
            if !out.contains(&kind) {
                out.push(kind);
            }
        }
        out
    }

    /// The four defenses of Figure 7, in its display order.
    pub fn figure7_lineup() -> Vec<DefenseKind> {
        vec![
            DefenseKind::Para { p: 0.001 },
            DefenseKind::Para { p: 0.002 },
            DefenseKind::Cbt { counters: 256 },
            DefenseKind::Twice(TableOrganization::FullyAssociative),
        ]
    }

    /// Whether this defense belongs in the RCD (TWiCe, oracle) rather
    /// than the memory controller.
    pub fn is_rcd_resident(&self) -> bool {
        matches!(
            self,
            DefenseKind::Twice(_)
                | DefenseKind::Oracle
                | DefenseKind::None
                | DefenseKind::Trr { .. }
                | DefenseKind::Graphene
        )
    }
}

impl fmt::Display for DefenseKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DefenseKind::None => write!(f, "none"),
            DefenseKind::Twice(org) => write!(f, "TWiCe({})", org.label()),
            DefenseKind::Para { p } => write!(f, "PARA-{p}"),
            DefenseKind::Prohit { p } => write!(f, "PRoHIT-{p}"),
            DefenseKind::Cbt { counters } => write!(f, "CBT-{counters}"),
            DefenseKind::Cra { cache_entries } => write!(f, "CRA-{cache_entries}"),
            DefenseKind::Oracle => write!(f, "oracle"),
            DefenseKind::Trr { entries } => write!(f, "TRR-{entries}"),
            DefenseKind::Graphene => write!(f, "Graphene"),
        }
    }
}

/// Builds `kind` for a system of `num_banks` banks under `params`.
///
/// `seed` feeds the probabilistic defenses; counter-based defenses use
/// `params` for thresholds and window geometry.
///
/// # Panics
///
/// Panics if `params` fails validation (for the TWiCe variants) or
/// `num_banks` is zero.
pub fn make_defense(
    kind: DefenseKind,
    params: &TwiceParams,
    num_banks: u32,
    seed: u64,
) -> Box<dyn RowHammerDefense> {
    let refs_per_window = params.max_life();
    match kind {
        DefenseKind::None => Box::new(NoProtection::new()),
        DefenseKind::Twice(org) => Box::new(TwiceEngine::with_organization(
            params.clone(),
            num_banks,
            org,
        )),
        DefenseKind::Para { p } => Box::new(Para::new(p, seed)),
        DefenseKind::Prohit { p } => Box::new(Prohit::with_defaults(p, num_banks, seed)),
        DefenseKind::Cbt { counters } => Box::new(Cbt::new(
            counters,
            params.th_rh,
            11,
            num_banks,
            params.rows_per_bank,
            refs_per_window,
        )),
        DefenseKind::Cra { cache_entries } => Box::new(Cra::new(
            cache_entries,
            params.th_rh,
            num_banks,
            refs_per_window,
        )),
        DefenseKind::Oracle => {
            Box::new(PerRowOracle::new(params.th_rh, num_banks, refs_per_window))
        }
        DefenseKind::Trr { entries } => {
            Box::new(Trr::new(entries, params.th_rh, num_banks, refs_per_window))
        }
        DefenseKind::Graphene => Box::new(Graphene::sized_for(
            params.timings.max_acts_per_window(),
            params.th_rh,
            num_banks,
            refs_per_window,
        )),
    }
}

/// Like [`make_defense`], but configures TWiCe's fault hardening: the
/// engine's counter-SRAM injector is armed with `plan` (salted by `seed`)
/// and parity/scrub protection is toggled by `scrubbing`. Non-TWiCe kinds
/// are unaffected — their counters live in the MC, outside this fault
/// model's scope.
pub fn make_defense_chaos(
    kind: DefenseKind,
    params: &TwiceParams,
    num_banks: u32,
    seed: u64,
    plan: &FaultPlan,
    scrubbing: bool,
) -> Box<dyn RowHammerDefense> {
    match kind {
        DefenseKind::Twice(org) => Box::new(
            TwiceEngine::with_organization(params.clone(), num_banks, org)
                .with_scrubbing(scrubbing)
                .with_fault_plan(plan, seed),
        ),
        _ => make_defense(kind, params, num_banks, seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twice_common::{BankId, RowId, Time};

    #[test]
    fn factory_builds_every_kind() {
        let params = TwiceParams::fast_test();
        let kinds = [
            DefenseKind::None,
            DefenseKind::Twice(TableOrganization::FullyAssociative),
            DefenseKind::Twice(TableOrganization::PseudoAssociative),
            DefenseKind::Twice(TableOrganization::Split),
            DefenseKind::Para { p: 0.001 },
            DefenseKind::Prohit { p: 0.001 },
            DefenseKind::Cbt { counters: 16 },
            DefenseKind::Cra { cache_entries: 16 },
            DefenseKind::Oracle,
            DefenseKind::Trr { entries: 4 },
            DefenseKind::Graphene,
        ];
        for kind in kinds {
            let mut d = make_defense(kind, &params, 2, 1);
            // Smoke: every defense accepts the full interface.
            d.on_activate(BankId(1), RowId(3), Time::ZERO);
            d.on_auto_refresh(BankId(1), Time::ZERO);
            d.reset();
            assert!(!d.name().is_empty());
        }
    }

    #[test]
    fn every_name_parses_and_round_trips() {
        for name in DefenseKind::NAMES {
            let kind = DefenseKind::parse(name).unwrap_or_else(|| panic!("{name} must parse"));
            let canonical = kind.cli_name().expect("parseable kinds have a name");
            assert_eq!(
                DefenseKind::parse(canonical),
                Some(kind),
                "{name} -> {canonical} must round-trip"
            );
        }
        assert_eq!(DefenseKind::parse("twice"), DefenseKind::parse("twice-fa"));
        assert!(DefenseKind::parse("no-such-defense").is_none());
        assert!(DefenseKind::parse("TWICE").is_none(), "names are exact");
    }

    #[test]
    fn verify_lineup_is_distinct_and_covers_none() {
        let lineup = DefenseKind::verify_lineup();
        assert_eq!(lineup.len(), 12, "13 names minus the twice alias");
        assert!(lineup.contains(&DefenseKind::None));
        for (i, a) in lineup.iter().enumerate() {
            assert!(!lineup[i + 1..].contains(a), "{a} duplicated");
        }
    }

    #[test]
    fn figure7_lineup_matches_paper_labels() {
        let labels: Vec<String> = DefenseKind::figure7_lineup()
            .iter()
            .map(|k| k.to_string())
            .collect();
        assert_eq!(labels, ["PARA-0.001", "PARA-0.002", "CBT-256", "TWiCe(fa)"]);
    }

    #[test]
    fn residency_classification() {
        assert!(DefenseKind::Twice(TableOrganization::Split).is_rcd_resident());
        assert!(DefenseKind::Oracle.is_rcd_resident());
        assert!(!DefenseKind::Para { p: 0.1 }.is_rcd_resident());
        assert!(!DefenseKind::Cbt { counters: 4 }.is_rcd_resident());
    }

    #[test]
    fn counter_defenses_detect_and_probabilistic_do_not() {
        let params = TwiceParams::fast_test();
        // Hammer one row th_rh times; counter-based kinds must detect.
        for kind in [
            DefenseKind::Twice(TableOrganization::FullyAssociative),
            DefenseKind::Cra { cache_entries: 8 },
            DefenseKind::Oracle,
        ] {
            let mut d = make_defense(kind, &params, 1, 1);
            let mut detected = false;
            for _ in 0..params.th_rh {
                detected |= d
                    .on_activate(BankId(0), RowId(3), Time::ZERO)
                    .detection
                    .is_some();
            }
            assert!(detected, "{kind} must detect");
        }
        let mut para = make_defense(DefenseKind::Para { p: 0.01 }, &params, 1, 1);
        for _ in 0..params.th_rh {
            assert!(para
                .on_activate(BankId(0), RowId(3), Time::ZERO)
                .detection
                .is_none());
        }
    }
}
