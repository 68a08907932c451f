//! Red-team harness: supervised adversarial attack synthesis.
//!
//! A seeded, fitness-guided evolutionary search over hammer-pattern
//! genomes ([`twice_workloads::genome`]) whose fitness is the damage a
//! candidate inflicts on a victim row *without* the target defense
//! mitigating it: bit flips dominate, then the disturbance watermark
//! reached while the defense was still silent, then how close the
//! defense's hottest internal counter came to firing. The search is the
//! attacker the paper's §4.3 argues TWiCe survives — refresh-window
//! straddles, many-sided rotations past tracker capacity, decoy floods
//! that churn capacity-bound tables.
//!
//! Every generation is one [`crate::grid`] run, so each candidate gets
//! the same supervision as a chaos cell (degrade, don't die):
//! [`eval_genome`] catches a panicking or budget-blowing genome and
//! **quarantines** it (fitness 0) instead of aborting the generation,
//! and evaluations are deterministic, so nothing is retried but I/O.
//! Every evaluation is journaled as a CRC-sealed line, so a killed
//! search resumes mid-generation, re-runs only the missing slots, and —
//! enforced, not hoped — reproduces the uninterrupted run's per-
//! generation digests, whatever `--jobs` is. What is the red team's own:
//! genomes, breeding, its meta line (which the grid runner checks on
//! resume) and the corpus.
//!
//! The best genomes are distilled into fixed v2 traces (a `corpus/`
//! directory plus a sealed `MANIFEST.jsonl`) and [`verify_corpus`]
//! replays that corpus against **every** [`DefenseKind`], exiting
//! nonzero when a defense that held at distillation time now lets a
//! victim cross `N_th` unmitigated — a security regression gate.

use crate::cio::{with_retries, CampaignIo};
use crate::config::SimConfig;
use crate::grid::{deref_to_supervision, sim_watchdog, wall_watchdog, Grid, Supervision};
use crate::journal::{emit_line, parse_line, seal_line, unseal_line, JsonValue};
use crate::outcome::CellError;
use crate::supervisor::Supervisor;
use crate::system::System;
use crate::tracecli::replay_trace;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use twice_common::rng::SplitMix64;
use twice_common::snapshot::DIGEST_DEFINITION;
use twice_mitigations::DefenseKind;
use twice_workloads::genome::{GenomeSpace, PatternGenome};
use twice_workloads::tracev2::{decode_salvage, encode_trace};
use twice_workloads::{AccessSource, TraceItem};

/// The search journal's file name inside the campaign directory.
pub const REDTEAM_JOURNAL: &str = "redteam.jsonl";
/// The corpus manifest's file name inside the corpus directory.
pub const CORPUS_MANIFEST: &str = "MANIFEST.jsonl";
/// Journal/manifest format version.
pub const REDTEAM_VERSION: u64 = 1;

/// Defenses the security gate requires to hold no matter what the
/// manifest recorded: a corpus trace that defeats one of these
/// contradicts the paper's §4.3 analysis (TWiCe) or the exact-counting
/// baselines, and must fail loudly rather than be re-pinned silently.
pub const MUST_HOLD: [&str; 5] = ["twice-fa", "twice-pa", "twice-split", "graphene", "oracle"];

/// Configuration for one red-team search campaign: the search shape
/// plus the shared supervision knobs, which it derefs to (`rc.jobs`,
/// `rc.dir`, …).
#[derive(Debug, Clone)]
pub struct RedteamConfig {
    /// Base simulation config; `cfg.seed` is the search master seed.
    pub cfg: SimConfig,
    /// The defense the search attacks.
    pub defense: DefenseKind,
    /// Genomes per generation.
    pub population: usize,
    /// Generations to evolve.
    pub generations: u32,
    /// Requests fed per evaluation.
    pub requests: u64,
    /// Requests between supervision checks (budgets, stealth sampling).
    pub epoch: u64,
    /// Poison the last `sabotage` slots of generation 0 (alternating
    /// injected panic / 1 ps sim budget) to prove the quarantine path.
    pub sabotage: usize,
    /// Journal directory, workers, I/O retries, per-evaluation budgets
    /// (leave the wall-clock one unset when digest reproducibility
    /// matters: wall-clock quarantine depends on the host machine), and
    /// `halt_after`, which stops the search after that many *live*
    /// evaluations with [`RedteamOutcome::Halted`].
    pub sup: Supervision,
}

deref_to_supervision!(RedteamConfig);

impl RedteamConfig {
    /// A search over `defense` journaled in `dir` with the default scale
    /// (population 16, 8 generations, 24 000 requests per evaluation).
    pub fn new(cfg: SimConfig, defense: DefenseKind, dir: PathBuf) -> RedteamConfig {
        RedteamConfig {
            cfg,
            defense,
            population: 16,
            generations: 8,
            requests: 24_000,
            epoch: 2_048,
            sabotage: 0,
            sup: Supervision {
                dir: Some(dir),
                ..Supervision::default()
            },
        }
    }
}

/// What one supervised evaluation produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalOutcome {
    /// Ranking key (see [`fitness_of`]); 0 for quarantined genomes.
    pub fitness: u64,
    /// Victims that crossed `N_th` without a timely mitigation.
    pub bit_flips: u64,
    /// Highest disturbance any row ever reached (monotone watermark).
    pub peak: u64,
    /// Peak disturbance reached while the defense had done *nothing*
    /// (no additional ACTs, no detections) — the stealth score.
    pub stealth_peak: u64,
    /// Times the defense fired (ARRs, detections, group refreshes).
    pub triggers: u64,
    /// Hottest internal counter over its threshold, in permille.
    pub near_miss_permille: u32,
    /// Final system state digest (the conformance anchor).
    pub digest: u64,
    /// Why the genome was quarantined, if it was.
    pub quarantined: Option<String>,
}

/// The ranking key: bit flips dominate (a broken defense beats any
/// near-miss), then stealth disturbance, then trigger proximity.
pub fn fitness_of(bit_flips: u64, stealth_peak: u64, near_miss_permille: u32) -> u64 {
    bit_flips
        .saturating_mul(1_000_000)
        .saturating_add(stealth_peak.saturating_mul(1_000))
        .saturating_add(u64::from(near_miss_permille))
}

/// Deterministic sabotage modes (see [`RedteamConfig::sabotage`] and
/// [`CampaignConfig::sabotage`](crate::campaign::CampaignConfig::sabotage)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Poison {
    /// The evaluation body panics after system construction.
    Panic,
    /// The sim-time budget is forced to 1 ps (instant blowout).
    SimBudget,
}

/// Runs one genome under the supervision ladder. Never panics and never
/// aborts the caller: a panicking or budget-exceeding genome comes back
/// as a quarantined outcome with fitness 0. A budget of 0 is unlimited.
#[allow(clippy::too_many_arguments)] // mirrors the journal's eval-line schema
pub fn eval_genome(
    cfg: &SimConfig,
    defense: DefenseKind,
    genome: &PatternGenome,
    requests: u64,
    epoch: u64,
    wall_budget_ms: u64,
    sim_budget_ps: u64,
    poison: Option<Poison>,
) -> EvalOutcome {
    let body = |_attempt: u32| -> Result<EvalOutcome, CellError> {
        let start = Instant::now();
        let mut sys = System::new(cfg, defense);
        if poison == Some(Poison::Panic) {
            panic!("sabotage: injected genome panic");
        }
        let sim_budget = if poison == Some(Poison::SimBudget) {
            Some(1)
        } else {
            (sim_budget_ps > 0).then_some(sim_budget_ps)
        };
        let wall_budget = (wall_budget_ms > 0).then_some(wall_budget_ms);
        let mut src = genome.source(&cfg.topology);
        let step = epoch.max(1);
        let mut done = 0u64;
        let mut stealth_peak = 0u64;
        let exhausted = |e: twice_memctrl::resilience::ControllerError| {
            CellError::RetryExhausted(e.to_string())
        };
        while done < requests {
            let n = step.min(requests - done);
            for _ in 0..n {
                sys.feed(src.next_access()).map_err(exhausted)?;
            }
            done += n;
            if sys.mitigation_activity() == 0 {
                stealth_peak = sys.peak_disturbance();
            }
            wall_watchdog(wall_budget, start, done)?;
            sim_watchdog(sim_budget, &sys, done)?;
        }
        sys.drain().map_err(exhausted)?;
        if sys.mitigation_activity() == 0 {
            stealth_peak = sys.peak_disturbance();
        }
        let pressure = sys.defense_pressure();
        let bit_flips = sys.bit_flip_count() as u64;
        Ok(EvalOutcome {
            fitness: fitness_of(bit_flips, stealth_peak, pressure.near_miss_permille),
            bit_flips,
            peak: sys.peak_disturbance(),
            stealth_peak,
            triggers: pressure.triggers,
            near_miss_permille: pressure.near_miss_permille,
            digest: sys.digest(),
            quarantined: None,
        })
    };
    // One attempt: evaluations are deterministic and do no I/O, so a
    // failure re-fails; the ladder's value here is catch → quarantine.
    twice_obs::bump(twice_obs::Ctr::SimRedteamEvals);
    Supervisor::new(1, 0)
        .supervise(body, |_| {})
        .unwrap_or_else(|err| {
            twice_obs::bump(twice_obs::Ctr::SimRedteamQuarantined);
            EvalOutcome::quarantined(err.to_string())
        })
}

impl EvalOutcome {
    /// The outcome of a genome whose evaluation failed: fitness 0.
    fn quarantined(cause: String) -> EvalOutcome {
        EvalOutcome {
            fitness: 0,
            bit_flips: 0,
            peak: 0,
            stealth_peak: 0,
            triggers: 0,
            near_miss_permille: 0,
            digest: 0,
            quarantined: Some(cause),
        }
    }
}

/// Generation 0: the classic openers (single/double/many-sided, decoy
/// flood, straddle) truncated or padded with seeded randoms.
pub fn seed_population(space: &GenomeSpace, seed: u64, n: usize) -> Vec<PatternGenome> {
    let mut pop = PatternGenome::classics(space);
    pop.truncate(n);
    let mut rng = SplitMix64::new(seed ^ 0x05EE_D0F9_E00D);
    while pop.len() < n {
        pop.push(PatternGenome::random(space, &mut rng));
    }
    pop
}

/// Breeds the next generation from ranked outcomes: the fittest quarter
/// (at least two) survive unchanged, the rest are crossover+mutate
/// children of elite pairs, with a 15 % fresh-random immigration rate.
/// Fully determined by `(seed, gen)` and the fitness ranking.
fn breed(
    space: &GenomeSpace,
    population: &[PatternGenome],
    outcomes: &[EvalOutcome],
    seed: u64,
    gen: u32,
) -> Vec<PatternGenome> {
    let n = population.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(outcomes[i].fitness), i));
    let elites = (n / 4).max(2).min(n);
    let mut next: Vec<PatternGenome> = order[..elites]
        .iter()
        .map(|&i| population[i].clone())
        .collect();
    let mut rng = SplitMix64::new(
        seed ^ 0xBED_7EA4 ^ (u64::from(gen) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    while next.len() < n {
        if rng.chance(0.15) {
            next.push(PatternGenome::random(space, &mut rng));
            continue;
        }
        let a = &population[order[rng.next_below(elites as u64) as usize]];
        let b = &population[order[rng.next_below(elites as u64) as usize]];
        let child = PatternGenome::crossover(a, b, space, &mut rng).mutate(space, &mut rng);
        next.push(child);
    }
    next
}

/// FNV-1a fold step for generation digests.
fn fnv_fold(acc: u64, v: u64) -> u64 {
    let mut h = acc;
    for b in v.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Digest of a completed generation: every slot's outcome, in slot
/// order. Equal digests mean the resumed and uninterrupted searches saw
/// byte-identical evaluation results.
pub fn generation_digest(outcomes: &[EvalOutcome]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for o in outcomes {
        h = fnv_fold(h, o.fitness);
        h = fnv_fold(h, o.bit_flips);
        h = fnv_fold(h, o.digest);
        h = fnv_fold(h, u64::from(o.quarantined.is_some()));
    }
    h
}

/// Summary of one completed generation.
#[derive(Debug, Clone)]
pub struct GenSummary {
    /// Generation number (0-based).
    pub gen: u32,
    /// Best fitness this generation.
    pub best_fitness: u64,
    /// Human summary of the best genome.
    pub best_summary: String,
    /// Slots quarantined this generation.
    pub quarantined: u64,
    /// The generation digest (see [`generation_digest`]).
    pub digest: u64,
}

/// A completed search.
#[derive(Debug, Clone)]
pub struct RedteamReport {
    /// Per-generation summaries, in order.
    pub generations: Vec<GenSummary>,
    /// Global best genomes (deduplicated, fitness-descending).
    pub best: Vec<(PatternGenome, EvalOutcome)>,
    /// Evaluations run live this invocation.
    pub evals_live: u64,
    /// Evaluations adopted from the journal.
    pub evals_cached: u64,
    /// Total quarantined slots across all generations.
    pub quarantined: u64,
    /// Journal lines lost to storage faults (the affected slots rerun
    /// on resume).
    pub journal_dropped: u64,
    /// Prior-journal lines salvaged and dropped: the first line that
    /// failed its CRC seal or did not parse ended the trusted prefix,
    /// and it and every line after it moved to `journal.corrupt` (their
    /// slots were re-evaluated).
    pub journal_corrupt: u64,
}

/// How a search invocation ended.
#[derive(Debug, Clone)]
pub enum RedteamOutcome {
    /// All generations evaluated and bred.
    Completed(RedteamReport),
    /// `halt_after` live evaluations were spent mid-search; resume with
    /// the same directory to continue.
    Halted {
        /// Live evaluations run before halting.
        evals_live: u64,
    },
}

/// One trusted journal line after the meta line.
enum JournalLine {
    /// One evaluation, keyed `(generation, slot)`.
    Eval(u32, usize, EvalOutcome),
    /// A completed generation: its digest and the bred next population.
    Gen(u32, u64, Vec<PatternGenome>),
}

fn get_u64(fields: &BTreeMap<String, JsonValue>, key: &str) -> Option<u64> {
    fields.get(key).and_then(JsonValue::as_u64)
}

fn get_str<'a>(fields: &'a BTreeMap<String, JsonValue>, key: &str) -> Option<&'a str> {
    fields.get(key).and_then(JsonValue::as_str)
}

fn meta_line(rc: &RedteamConfig) -> String {
    seal_line(&emit_line(&[
        ("kind", JsonValue::Str("meta".to_string())),
        ("version", JsonValue::U64(REDTEAM_VERSION)),
        ("seed", JsonValue::U64(rc.cfg.seed)),
        ("defense", JsonValue::Str(rc.defense.to_string())),
        ("population", JsonValue::U64(rc.population as u64)),
        ("generations", JsonValue::U64(u64::from(rc.generations))),
        ("requests", JsonValue::U64(rc.requests)),
        ("epoch", JsonValue::U64(rc.epoch)),
        ("digest_definition", JsonValue::U64(DIGEST_DEFINITION)),
    ]))
}

fn eval_line(gen: u32, slot: usize, genome: &PatternGenome, o: &EvalOutcome) -> String {
    let mut fields = vec![
        ("kind", JsonValue::Str("eval".to_string())),
        ("gen", JsonValue::U64(u64::from(gen))),
        ("slot", JsonValue::U64(slot as u64)),
        ("genome", JsonValue::Str(genome.hex())),
        ("fit", JsonValue::U64(o.fitness)),
        ("flips", JsonValue::U64(o.bit_flips)),
        ("peak", JsonValue::U64(o.peak)),
        ("stealth", JsonValue::U64(o.stealth_peak)),
        ("trig", JsonValue::U64(o.triggers)),
        ("near", JsonValue::U64(u64::from(o.near_miss_permille))),
        ("digest", JsonValue::U64(o.digest)),
        ("q", JsonValue::Bool(o.quarantined.is_some())),
    ];
    if let Some(cause) = &o.quarantined {
        fields.push(("cause", JsonValue::Str(cause.clone())));
    }
    seal_line(&emit_line(&fields))
}

fn gen_line(gen: u32, digest: u64, next: &[PatternGenome]) -> String {
    let hexes: Vec<String> = next.iter().map(PatternGenome::hex).collect();
    seal_line(&emit_line(&[
        ("kind", JsonValue::Str("gen".to_string())),
        ("gen", JsonValue::U64(u64::from(gen))),
        ("gen_digest", JsonValue::U64(digest)),
        ("next", JsonValue::Str(hexes.join(","))),
    ]))
}

/// Decodes one sealed journal line; `None` ends the trusted prefix.
fn parse_journal_line(line: &str) -> Option<JournalLine> {
    let fields = parse_line(&unseal_line(line)?).ok()?;
    let u64_of = |key: &str| get_u64(&fields, key);
    match get_str(&fields, "kind")? {
        "eval" => {
            let quarantined = fields.get("q")?.as_bool()?.then(|| {
                get_str(&fields, "cause")
                    .unwrap_or("quarantined (cause lost)")
                    .to_string()
            });
            let outcome = EvalOutcome {
                fitness: u64_of("fit")?,
                bit_flips: u64_of("flips")?,
                peak: u64_of("peak")?,
                stealth_peak: u64_of("stealth")?,
                triggers: u64_of("trig")?,
                near_miss_permille: u32::try_from(u64_of("near")?).ok()?,
                digest: u64_of("digest")?,
                quarantined,
            };
            let gen = u32::try_from(u64_of("gen")?).ok()?;
            Some(JournalLine::Eval(
                gen,
                usize::try_from(u64_of("slot")?).ok()?,
                outcome,
            ))
        }
        "gen" => {
            let next = get_str(&fields, "next")?
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|hex| PatternGenome::from_hex(hex).ok())
                .collect::<Option<Vec<_>>>()?;
            let gen = u32::try_from(u64_of("gen")?).ok()?;
            Some(JournalLine::Gen(gen, u64_of("gen_digest")?, next))
        }
        _ => None,
    }
}

/// The deterministic sabotage of generation 0's last `rc.sabotage`
/// slots.
fn poison(rc: &RedteamConfig, gen: u32, slot: usize) -> Option<Poison> {
    let poisoned =
        gen == 0 && rc.sabotage > 0 && slot >= rc.population - rc.sabotage.min(rc.population);
    poisoned.then_some(if slot.is_multiple_of(2) {
        Poison::Panic
    } else {
        Poison::SimBudget
    })
}

/// Runs (or resumes) the evolutionary search.
///
/// The journal is loaded up to its trusted prefix (a corrupt tail moves
/// to `journal.corrupt` and its slots re-run). A journal that does not
/// open with this search's meta line is a hard error — resuming someone
/// else's search would silently corrupt both.
///
/// # Errors
///
/// Unreadable campaign directory, a journal from a different campaign,
/// or a resumed generation whose recomputed digest contradicts the
/// journaled one (a determinism violation — never expected).
pub fn redteam_search(rc: &RedteamConfig) -> Result<RedteamOutcome, String> {
    assert!(rc.population >= 2, "population must be at least 2");
    assert!(rc.generations >= 1, "need at least one generation");
    let dir = rc.dir.as_deref().unwrap_or(Path::new("."));
    let (grid, lines) = Grid::open(&rc.sup, REDTEAM_JOURNAL, &meta_line(rc), parse_journal_line)
        .map_err(|e| format!("cannot open campaign {}: {e}", dir.display()))?;
    let mut evals = BTreeMap::new();
    let mut gens = BTreeMap::new();
    for line in lines {
        match line {
            JournalLine::Eval(gen, slot, outcome) => {
                evals.insert((gen, slot), outcome);
            }
            JournalLine::Gen(gen, digest, next) => {
                gens.insert(gen, (digest, next));
            }
        }
    }
    let space = GenomeSpace::for_topology(&rc.cfg.topology);
    let slots: Vec<usize> = (0..rc.population).collect();
    let wall_budget_ms = rc.wall_budget_ms.unwrap_or(0);
    let sim_budget_ps = rc.sim_budget_ps.unwrap_or(0);
    let mut live = 0u64;
    let mut cached = 0u64;
    let mut quarantined_total = 0u64;
    let mut summaries = Vec::new();
    let mut best: Vec<(PatternGenome, EvalOutcome)> = Vec::new();

    let mut population = seed_population(&space, rc.cfg.seed, rc.population);
    for gen in 0..rc.generations {
        let done = grid.run(
            &slots,
            |slot| evals.get(&(gen, *slot)).cloned(),
            |_, &slot| {
                Ok(eval_genome(
                    &rc.cfg,
                    rc.defense,
                    &population[slot],
                    rc.requests,
                    rc.epoch,
                    wall_budget_ms,
                    sim_budget_ps,
                    poison(rc, gen, slot),
                ))
            },
            |&slot, o| eval_line(gen, slot, &population[slot], o),
        );
        cached += done.iter().filter(|d| d.salvaged).count() as u64;
        live += done.iter().filter(|d| !d.salvaged).count() as u64;
        if grid.halted() {
            return Ok(RedteamOutcome::Halted { evals_live: live });
        }
        let outcomes: Vec<EvalOutcome> = done
            .into_iter()
            .map(|d| {
                d.result
                    .unwrap_or_else(|e| EvalOutcome::quarantined(e.to_string()))
            })
            .collect();
        let digest = generation_digest(&outcomes);
        let gen_quarantined = outcomes.iter().filter(|o| o.quarantined.is_some()).count() as u64;
        quarantined_total += gen_quarantined;
        let best_slot = (0..outcomes.len())
            .max_by_key(|&i| (outcomes[i].fitness, std::cmp::Reverse(i)))
            .expect("population is non-empty");
        summaries.push(GenSummary {
            gen,
            best_fitness: outcomes[best_slot].fitness,
            best_summary: population[best_slot].summary(),
            quarantined: gen_quarantined,
            digest,
        });
        for (slot, o) in outcomes.iter().enumerate() {
            if o.quarantined.is_none() {
                best.push((population[slot].clone(), o.clone()));
            }
        }
        let next = if let Some((recorded_digest, recorded_next)) = gens.remove(&gen) {
            if recorded_digest != digest {
                return Err(format!(
                    "generation {gen} digest {digest:#018x} contradicts journaled \
                     {recorded_digest:#018x}: determinism violation"
                ));
            }
            recorded_next
        } else {
            let next = if gen + 1 < rc.generations {
                breed(&space, &population, &outcomes, rc.cfg.seed, gen)
            } else {
                Vec::new()
            };
            grid.append(&gen_line(gen, digest, &next))
                .map_err(|e| format!("cannot journal generation {gen}: {e}"))?;
            next
        };
        if gen + 1 < rc.generations {
            if next.len() != rc.population {
                // A journaled final-gen line (empty next) from a run with
                // fewer generations would land here; meta matching rules
                // that out, so this is belt-and-braces.
                return Err(format!(
                    "journaled generation {gen} population has {} genomes, expected {}",
                    next.len(),
                    rc.population
                ));
            }
            population = next;
        }
    }
    // Global ranking: fitness-descending, deduplicated by genome bytes.
    best.sort_by(|a, b| {
        b.1.fitness
            .cmp(&a.1.fitness)
            .then(a.0.hex().cmp(&b.0.hex()))
    });
    let mut seen = std::collections::BTreeSet::new();
    best.retain(|(g, _)| seen.insert(g.encode()));
    let storage = grid.storage();
    Ok(RedteamOutcome::Completed(RedteamReport {
        generations: summaries,
        best,
        evals_live: live,
        evals_cached: cached,
        quarantined: quarantined_total,
        journal_dropped: storage.journal_write_failures,
        journal_corrupt: storage.salvaged_lines_dropped,
    }))
}

/// One distilled corpus trace and its recorded expectations.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// File name inside the corpus directory.
    pub file: String,
    /// The genome the trace expresses.
    pub genome: PatternGenome,
    /// Fitness against the search's target defense.
    pub fitness: u64,
    /// Content digest of the encoded trace.
    pub trace_digest: u64,
    /// Defenses that mitigated the trace (no bit flips) at distillation.
    pub holds: Vec<String>,
    /// Defenses a victim crossed `N_th` under, unmitigated.
    pub breaks: Vec<String>,
}

fn defense_name(kind: DefenseKind) -> String {
    kind.cli_name()
        .map(str::to_string)
        .unwrap_or_else(|| kind.to_string())
}

/// Distills the top genomes into fixed v2 traces plus a sealed
/// manifest, replaying each against the full defense lineup to record
/// which hold and which fall. Returns the manifest entries.
///
/// # Errors
///
/// Corpus I/O failures (after retries) or a replay rejected by the
/// memory system.
pub fn distill_corpus(
    rc: &RedteamConfig,
    best: &[(PatternGenome, EvalOutcome)],
    corpus_dir: &Path,
    top: usize,
) -> Result<Vec<CorpusEntry>, String> {
    rc.io
        .create_dir_all(corpus_dir)
        .map_err(|e| format!("cannot create {}: {e}", corpus_dir.display()))?;
    let target = defense_name(rc.defense);
    let mut entries = Vec::new();
    for (rank, (genome, outcome)) in best.iter().take(top).enumerate() {
        let items: Vec<TraceItem> = genome
            .source(&rc.cfg.topology)
            .take_requests(rc.requests)
            .collect();
        let (bytes, trace_digest) = encode_trace(&rc.cfg.topology, items.iter().copied());
        let file = format!("rt{rank:02}-{target}.twt2");
        let path = corpus_dir.join(&file);
        with_retries(rc.retries, rc.backoff_ms, || {
            rc.io.write_atomically(&path, &bytes)
        })
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let shared = Arc::new(items);
        let mut holds = Vec::new();
        let mut breaks = Vec::new();
        for kind in DefenseKind::verify_lineup() {
            let name = defense_name(kind);
            let replay = replay_trace(&rc.cfg, kind, shared.clone(), &file)?;
            if replay.metrics.bit_flips > 0 {
                if kind != DefenseKind::None {
                    twice_obs::bump(twice_obs::Ctr::SimRedteamBreaks);
                }
                breaks.push(name);
            } else {
                holds.push(name);
            }
        }
        entries.push(CorpusEntry {
            file,
            genome: genome.clone(),
            fitness: outcome.fitness,
            trace_digest,
            holds,
            breaks,
        });
    }
    let mut manifest = String::new();
    manifest.push_str(&seal_line(&emit_line(&[
        ("kind", JsonValue::Str("meta".to_string())),
        ("version", JsonValue::U64(REDTEAM_VERSION)),
        ("seed", JsonValue::U64(rc.cfg.seed)),
        ("requests", JsonValue::U64(rc.requests)),
        ("target", JsonValue::Str(target)),
        ("traces", JsonValue::U64(entries.len() as u64)),
    ])));
    manifest.push('\n');
    for e in &entries {
        manifest.push_str(&seal_line(&emit_line(&[
            ("kind", JsonValue::Str("trace".to_string())),
            ("file", JsonValue::Str(e.file.clone())),
            ("genome", JsonValue::Str(e.genome.hex())),
            ("summary", JsonValue::Str(e.genome.summary())),
            ("fit", JsonValue::U64(e.fitness)),
            ("trace_digest", JsonValue::U64(e.trace_digest)),
            ("holds", JsonValue::Str(e.holds.join(","))),
            ("breaks", JsonValue::Str(e.breaks.join(","))),
        ])));
        manifest.push('\n');
    }
    let manifest_path = corpus_dir.join(CORPUS_MANIFEST);
    with_retries(rc.retries, rc.backoff_ms, || {
        rc.io.write_atomically(&manifest_path, manifest.as_bytes())
    })
    .map_err(|e| format!("cannot write {}: {e}", manifest_path.display()))?;
    Ok(entries)
}

/// The security-regression verdict for one corpus.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Traces replayed.
    pub traces: u64,
    /// (trace, defense) replays executed.
    pub replays: u64,
    /// Human-readable observations (which defenses fell to which trace).
    pub findings: Vec<String>,
    /// Contract violations: a defense that held now breaks, a recorded
    /// break now holds, a [`MUST_HOLD`] defense falling, or an
    /// unreadable / digest-mismatched trace. Non-empty ⇒ exit 4.
    pub regressions: Vec<String>,
}

/// Replays every manifest trace against every [`DefenseKind`] and
/// diffs the observed hold/break outcomes against the manifest's
/// recorded expectations.
///
/// # Errors
///
/// A missing or wholly unreadable manifest (per-trace trouble is a
/// regression, not an error — the gate must report all traces).
pub fn verify_corpus(
    cfg: &SimConfig,
    io: &Arc<dyn CampaignIo>,
    corpus_dir: &Path,
    retries: u32,
    backoff_ms: u64,
) -> Result<VerifyReport, String> {
    let manifest_path = corpus_dir.join(CORPUS_MANIFEST);
    let bytes = with_retries(retries, backoff_ms, || io.read(&manifest_path))
        .map_err(|e| format!("cannot read {}: {e}", manifest_path.display()))?;
    let mut report = VerifyReport::default();
    // Replays must run under the seed the corpus was distilled with:
    // probabilistic defenses (PARA, PRoHIT) flip different coins under a
    // different seed and would produce phantom hold/break mismatches.
    let mut cfg = cfg.clone();
    for raw in String::from_utf8_lossy(&bytes).lines() {
        if raw.trim().is_empty() {
            continue;
        }
        let Some(line) = unseal_line(raw) else {
            report
                .regressions
                .push("manifest line failed its CRC seal".to_string());
            continue;
        };
        let Ok(fields) = parse_line(&line) else {
            report
                .regressions
                .push("manifest line is not parseable".to_string());
            continue;
        };
        if get_str(&fields, "kind") == Some("meta") {
            if let Some(seed) = get_u64(&fields, "seed") {
                cfg.seed = seed;
            }
            continue;
        }
        if get_str(&fields, "kind") != Some("trace") {
            continue;
        }
        let Some(file) = get_str(&fields, "file") else {
            report
                .regressions
                .push("manifest trace line lacks a file".to_string());
            continue;
        };
        report.traces += 1;
        let expected_breaks: std::collections::BTreeSet<String> = get_str(&fields, "breaks")
            .unwrap_or("")
            .split(',')
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();
        let expected_digest = get_u64(&fields, "trace_digest");
        let path = corpus_dir.join(file);
        let trace_bytes = match with_retries(retries, backoff_ms, || io.read(&path)) {
            Ok(b) => b,
            Err(e) => {
                report.regressions.push(format!("{file}: unreadable ({e})"));
                continue;
            }
        };
        let salvaged = match decode_salvage(&trace_bytes, &cfg.topology) {
            Ok(s) => s,
            Err(e) => {
                report
                    .regressions
                    .push(format!("{file}: undecodable ({e})"));
                continue;
            }
        };
        if salvaged.items.is_empty() {
            report
                .regressions
                .push(format!("{file}: decodes to zero accesses"));
            continue;
        }
        let (_, recomputed) = encode_trace(&cfg.topology, salvaged.items.iter().copied());
        if let Some(expected) = expected_digest {
            if expected != recomputed {
                report.regressions.push(format!(
                    "{file}: trace digest {recomputed:#018x} != manifest {expected:#018x}"
                ));
                continue;
            }
        }
        let items = Arc::new(salvaged.items);
        for kind in DefenseKind::verify_lineup() {
            let name = defense_name(kind);
            report.replays += 1;
            let broke = match replay_trace(&cfg, kind, items.clone(), file) {
                Ok(replay) => replay.metrics.bit_flips > 0,
                Err(e) => {
                    report
                        .regressions
                        .push(format!("{file} vs {name}: replay failed ({e})"));
                    continue;
                }
            };
            if broke {
                report.findings.push(format!(
                    "{file}: victim crossed N_th unmitigated under {name}"
                ));
            }
            if broke && MUST_HOLD.contains(&name.as_str()) {
                twice_obs::bump(twice_obs::Ctr::SimRedteamBreaks);
                report.regressions.push(format!(
                    "{file}: {name} MUST hold but a victim crossed N_th unmitigated"
                ));
            } else if broke != expected_breaks.contains(&name) {
                report.regressions.push(format!(
                    "{file} vs {name}: manifest recorded {}, observed {}",
                    if expected_breaks.contains(&name) {
                        "break"
                    } else {
                        "hold"
                    },
                    if broke { "break" } else { "hold" },
                ));
            }
        }
    }
    if report.traces == 0 {
        report
            .regressions
            .push("manifest contains no trace entries".to_string());
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(dir: &Path) -> RedteamConfig {
        let mut rc = RedteamConfig::new(
            SimConfig::fast_test(),
            DefenseKind::Trr { entries: 4 },
            dir.to_path_buf(),
        );
        rc.population = 6;
        rc.generations = 2;
        rc.requests = 3_000;
        rc.epoch = 512;
        rc
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("twice-redteam-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn eval_is_deterministic_and_scores_hammering() {
        let cfg = SimConfig::fast_test();
        let space = GenomeSpace::for_topology(&cfg.topology);
        let genome = &PatternGenome::classics(&space)[0];
        let a = eval_genome(&cfg, DefenseKind::None, genome, 4_000, 512, 0, 0, None);
        let b = eval_genome(&cfg, DefenseKind::None, genome, 4_000, 512, 0, 0, None);
        assert_eq!(a, b, "same genome, same outcome");
        assert!(a.quarantined.is_none());
        assert!(a.peak > 0, "a hammer must disturb someone");
        assert_eq!(a.stealth_peak, a.peak, "none never mitigates");
    }

    #[test]
    fn poisoned_genomes_are_quarantined_not_fatal() {
        let cfg = SimConfig::fast_test();
        let space = GenomeSpace::for_topology(&cfg.topology);
        let genome = &PatternGenome::classics(&space)[0];
        let p = eval_genome(
            &cfg,
            DefenseKind::None,
            genome,
            1_000,
            128,
            0,
            0,
            Some(Poison::Panic),
        );
        assert!(p.quarantined.as_deref().unwrap().contains("sabotage"));
        assert_eq!(p.fitness, 0);
        let s = eval_genome(
            &cfg,
            DefenseKind::None,
            genome,
            1_000,
            128,
            0,
            0,
            Some(Poison::SimBudget),
        );
        assert!(s.quarantined.as_deref().unwrap().contains("sim-time"));
    }

    #[test]
    fn search_completes_and_jobs_do_not_change_digests() {
        let d1 = tmp("serial");
        let d4 = tmp("par");
        let a = tiny_config(&d1);
        let mut b = tiny_config(&d4);
        b.jobs = 4;
        let ra = match redteam_search(&a).unwrap() {
            RedteamOutcome::Completed(r) => r,
            other => panic!("unexpected {other:?}"),
        };
        let rb = match redteam_search(&b).unwrap() {
            RedteamOutcome::Completed(r) => r,
            other => panic!("unexpected {other:?}"),
        };
        let da: Vec<u64> = ra.generations.iter().map(|g| g.digest).collect();
        let db: Vec<u64> = rb.generations.iter().map(|g| g.digest).collect();
        assert_eq!(da, db, "--jobs must not change generation digests");
        assert!(!ra.best.is_empty());
        let _ = std::fs::remove_dir_all(&d1);
        let _ = std::fs::remove_dir_all(&d4);
    }

    #[test]
    fn halt_and_resume_reproduces_uninterrupted_digests() {
        let base = tmp("resume-base");
        let cut = tmp("resume-cut");
        let mut uninterrupted = tiny_config(&base);
        uninterrupted.sabotage = 2;
        let full = match redteam_search(&uninterrupted).unwrap() {
            RedteamOutcome::Completed(r) => r,
            other => panic!("unexpected {other:?}"),
        };
        assert!(full.quarantined >= 2, "sabotage must quarantine");

        let mut halted = tiny_config(&cut);
        halted.sabotage = 2;
        halted.halt_after = Some(4);
        match redteam_search(&halted).unwrap() {
            RedteamOutcome::Halted { evals_live } => assert_eq!(evals_live, 4),
            other => panic!("expected halt, got {other:?}"),
        }
        let mut resumed = tiny_config(&cut);
        resumed.sabotage = 2;
        let done = match redteam_search(&resumed).unwrap() {
            RedteamOutcome::Completed(r) => r,
            other => panic!("expected completion, got {other:?}"),
        };
        assert!(done.evals_cached >= 4, "resume must adopt journaled evals");
        let a: Vec<u64> = full.generations.iter().map(|g| g.digest).collect();
        let b: Vec<u64> = done.generations.iter().map(|g| g.digest).collect();
        assert_eq!(a, b, "resumed digests must match uninterrupted run");
        let _ = std::fs::remove_dir_all(&base);
        let _ = std::fs::remove_dir_all(&cut);
    }

    #[test]
    fn journal_from_other_campaign_is_rejected() {
        let dir = tmp("mismatch");
        let rc = tiny_config(&dir);
        match redteam_search(&rc).unwrap() {
            RedteamOutcome::Completed(_) => {}
            other => panic!("unexpected {other:?}"),
        }
        let mut other = tiny_config(&dir);
        other.cfg.seed ^= 1;
        let err = redteam_search(&other).unwrap_err();
        assert!(err.contains("different campaign"), "got: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_journal_that_does_not_name_the_digest_definition_is_refused() {
        // A journal written before meta lines named the digest definition
        // opens with this search's meta line minus that field, and its
        // generation digests are of another definition.
        let dir = tmp("old-digests");
        std::fs::create_dir_all(&dir).unwrap();
        let rc = tiny_config(&dir);
        let meta = unseal_line(&meta_line(&rc)).expect("a sealed meta line");
        let old = meta.replace(&format!(",\"digest_definition\":{DIGEST_DEFINITION}"), "");
        assert_ne!(old, meta, "the meta line names the digest definition");
        std::fs::write(dir.join(REDTEAM_JOURNAL), seal_line(&old) + "\n").unwrap();
        let err = redteam_search(&rc).unwrap_err();
        assert!(err.contains("different campaign"), "got: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_first_line_cannot_disable_the_foreign_journal_guard() {
        // A torn meta fragment must be salvaged, not kept: the next
        // append glued onto it would make the real meta line unreadable,
        // and any later search would adopt this one's evaluations.
        let dir = tmp("torn-meta");
        std::fs::create_dir_all(&dir).unwrap();
        let fragment = b"{\"kind\":\"me";
        std::fs::write(dir.join(REDTEAM_JOURNAL), fragment).unwrap();
        let mut trr = tiny_config(&dir);
        trr.halt_after = Some(2);
        match redteam_search(&trr).unwrap() {
            RedteamOutcome::Halted { evals_live } => assert_eq!(evals_live, 2),
            other => panic!("expected halt, got {other:?}"),
        }
        let mut para = tiny_config(&dir);
        para.defense = DefenseKind::Para { p: 0.001 };
        let err = redteam_search(&para).unwrap_err();
        assert!(err.contains("different campaign"), "got: {err}");
        let corrupt = std::fs::read(dir.join(crate::grid::JOURNAL_CORRUPT_FILE)).unwrap();
        assert_eq!(corrupt, fragment, "the fragment is kept for forensics");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn distill_and_verify_round_trip() {
        let dir = tmp("distill");
        let corpus = dir.join("corpus");
        let mut rc = tiny_config(&dir);
        rc.generations = 1;
        rc.requests = 2_000;
        let report = match redteam_search(&rc).unwrap() {
            RedteamOutcome::Completed(r) => r,
            other => panic!("unexpected {other:?}"),
        };
        let entries = distill_corpus(&rc, &report.best, &corpus, 2).unwrap();
        assert_eq!(entries.len(), 2);
        // At this tiny request count no defense (not even `none`) can be
        // broken, so the manifest must record 12 holds per trace; the
        // real-scale corpus pins its `none` break the same way.
        for e in &entries {
            assert_eq!(e.holds.len() + e.breaks.len(), 12, "{e:?}");
        }
        let verdict = verify_corpus(&rc.cfg, &rc.io, &corpus, 1, 0).unwrap();
        assert_eq!(verdict.traces, 2);
        assert!(
            verdict.regressions.is_empty(),
            "fresh corpus must verify clean: {:?}",
            verdict.regressions
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_flags_tampered_corpus() {
        let dir = tmp("tamper");
        let corpus = dir.join("corpus");
        let mut rc = tiny_config(&dir);
        rc.generations = 1;
        rc.requests = 2_000;
        let report = match redteam_search(&rc).unwrap() {
            RedteamOutcome::Completed(r) => r,
            other => panic!("unexpected {other:?}"),
        };
        let entries = distill_corpus(&rc, &report.best, &corpus, 1).unwrap();
        let victim = corpus.join(&entries[0].file);
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&victim, bytes).unwrap();
        let verdict = verify_corpus(&rc.cfg, &rc.io, &corpus, 1, 0).unwrap();
        assert!(
            !verdict.regressions.is_empty(),
            "a tampered trace must be a regression"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
