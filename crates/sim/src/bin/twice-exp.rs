//! `twice-exp`: run TWiCe-reproduction experiments from the command line.
//!
//! ```console
//! $ twice-exp tables                      # Tables 2-4, bound, storage, ablations
//! $ twice-exp fig7a --requests 250000     # Figure 7(a) at paper scale
//! $ twice-exp fig7b --requests 1500000    # Figure 7(b) at paper scale
//! $ twice-exp fig7x --requests 250000     # every defense on S1 and S3
//! $ twice-exp table1 --requests 40000     # measured defense comparison
//! $ twice-exp attack --defense twice      # an S3 confrontation
//! $ twice-exp capacity                    # the 4.4 bound
//! $ twice-exp chaos --journal out/        # crash-safe fault campaign
//! $ twice-exp chaos --resume out/         # resume a killed campaign
//! $ twice-exp chaos --storage-faults 7 --journal out/  # storage torture
//! $ twice-exp chaos --sabotage 2          # two failing cells: exit 4
//! $ twice-exp profile --obs-out trace.json  # instrumented cell + trace
//! $ twice-exp trace record --workload mica --file m.twt2   # binary trace
//! $ twice-exp trace replay --file m.twt2 --defense twice   # digest-faithful
//! $ twice-exp trace verify --file m.twt2    # salvage report, exit 0/4/2
//! $ twice-exp trace stat --file m.twt2      # sizes + v1-vs-v2 compression
//! $ twice-exp trace diff --file m.twt2 --defense-a twice --defense-b trr
//! $ twice-exp redteam --defense trr --journal rt/       # evolve attacks
//! $ twice-exp redteam --resume rt/ --corpus corpus/     # resume + distill
//! $ twice-exp redteam verify --corpus corpus/           # regression gate
//! ```
//!
//! Failures exit with a distinct code and one structured line on stderr
//! (`twice-exp: error experiment=… cell=… cause="…"`):
//!
//! * `2` — unknown command, defense, workload, or SPEC app name; a
//!   `chaos`/`redteam` journal that records a different run ("different
//!   campaign": other seed, scale, sabotage or defense)
//! * `3` — invalid flag value (`--seed`, `--requests`, `--resume`,
//!   `--halt-after 0`, …)
//! * `4` — the run completed but in degraded mode: at least one chaos
//!   cell ended without an outcome — quarantined after its I/O retries,
//!   panicked (a `--sabotage` cell included) or over a budget. The
//!   report is still printed and each such cell gets a `degraded cell`
//!   line on stderr. A hardened bit flip (exit 1) wins over it.
//! * `75` — campaign intentionally halted by `--halt-after` (tempfail,
//!   in the sysexits tradition: rerun with `--resume` to continue)
//! * `1` — everything else (I/O, a failed safety property)
//!
//! `chaos --storage-faults SEED` wraps every journal/checkpoint byte in
//! a fault-injecting storage layer (ENOSPC, torn writes, partial reads,
//! failed renames, bit-rot) to exercise the self-healing ladder:
//! journal salvage, checkpoint recomputation, bounded per-cell retry of
//! I/O failures (`--retries`/`--backoff-ms`), and quarantine.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use twice::cost::TwiceCostModel;
use twice::TwiceParams;
use twice_mitigations::DefenseKind;
use twice_sim::campaign::CampaignConfig;
use twice_sim::cio::StorageSummary;
use twice_sim::config::SimConfig;
use twice_sim::experiments::{
    ablation, capacity, ecc, fig7, latency, storage, table1, table2, table3, table4,
};
use twice_sim::grid::{OpenError, Supervision};
use twice_sim::parallel::default_jobs;
use twice_sim::runner::WorkloadKind;
use twice_sim::verify::confront;

/// Exit code for unknown experiment/defense/workload names.
const EXIT_UNKNOWN_NAME: u8 = 2;
/// Exit code for malformed flag values.
const EXIT_BAD_FLAG: u8 = 3;
/// Exit code for a campaign that completed in degraded mode (at least
/// one cell ended without an outcome).
const EXIT_DEGRADED: u8 = 4;
/// Exit code when `--halt-after` stops a campaign early (tempfail).
const EXIT_HALTED: u8 = 75;

/// A structured CLI failure: who failed (`experiment`/`cell`, `-` when
/// not applicable), why, and with which exit code.
struct CliError {
    experiment: String,
    cell: String,
    cause: String,
    code: u8,
}

impl CliError {
    fn unknown(experiment: &str, cause: impl Into<String>) -> CliError {
        CliError {
            experiment: experiment.to_string(),
            cell: "-".to_string(),
            cause: cause.into(),
            code: EXIT_UNKNOWN_NAME,
        }
    }

    fn bad_flag(experiment: &str, cause: impl Into<String>) -> CliError {
        CliError {
            experiment: experiment.to_string(),
            cell: "-".to_string(),
            cause: cause.into(),
            code: EXIT_BAD_FLAG,
        }
    }

    /// An unusable trace (header damage, wrong topology, nothing
    /// salvageable): exit 2, same bucket as other bad-input failures.
    fn unusable(experiment: &str, cause: impl Into<String>) -> CliError {
        CliError {
            experiment: experiment.to_string(),
            cell: "-".to_string(),
            cause: cause.into(),
            code: EXIT_UNKNOWN_NAME,
        }
    }

    fn failure(experiment: &str, cell: &str, cause: impl Into<String>) -> CliError {
        CliError {
            experiment: experiment.to_string(),
            cell: cell.to_string(),
            cause: cause.into(),
            code: 1,
        }
    }

    fn report(self) -> ExitCode {
        eprintln!(
            "twice-exp: error experiment={} cell={} cause=\"{}\"",
            self.experiment, self.cell, self.cause
        );
        ExitCode::from(self.code)
    }
}

struct Args {
    command: String,
    subcommand: Option<String>,
    requests: Option<u64>,
    defense: Option<String>,
    workload: Option<String>,
    file: Option<String>,
    seed: Option<u64>,
    resume: Option<PathBuf>,
    journal: Option<PathBuf>,
    epoch: Option<u64>,
    halt_after: Option<usize>,
    wall_budget_ms: Option<u64>,
    sim_budget_ps: Option<u64>,
    jobs: Option<usize>,
    storage_faults: Option<u64>,
    retries: Option<u32>,
    backoff_ms: Option<u64>,
    obs_out: Option<String>,
    population: Option<usize>,
    generations: Option<u32>,
    corpus: Option<PathBuf>,
    top: Option<usize>,
    sabotage: Option<usize>,
    defense_a: Option<String>,
    defense_b: Option<String>,
}

impl Args {
    /// The worker count: `--jobs N`, defaulting to the host's available
    /// parallelism. `--jobs 1` is the exact serial path.
    fn jobs(&self) -> usize {
        self.jobs.unwrap_or_else(default_jobs)
    }
}

fn flag_value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, CliError> {
    args.next()
        .ok_or_else(|| CliError::bad_flag("-", format!("{flag} needs a value")))
}

fn parse_number<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, CliError> {
    raw.parse()
        .map_err(|_| CliError::bad_flag("-", format!("invalid {flag} value \"{raw}\"")))
}

fn parse_args() -> Result<Option<Args>, CliError> {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        return Ok(None);
    };
    let mut out = Args {
        command,
        subcommand: None,
        requests: None,
        defense: None,
        workload: None,
        file: None,
        seed: None,
        resume: None,
        journal: None,
        epoch: None,
        halt_after: None,
        wall_budget_ms: None,
        sim_budget_ps: None,
        jobs: None,
        storage_faults: None,
        retries: None,
        backoff_ms: None,
        obs_out: None,
        population: None,
        generations: None,
        corpus: None,
        top: None,
        sabotage: None,
        defense_a: None,
        defense_b: None,
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--requests" => {
                out.requests = Some(parse_number(&flag, &flag_value(&mut args, &flag)?)?)
            }
            "--defense" => out.defense = Some(flag_value(&mut args, &flag)?),
            "--workload" => out.workload = Some(flag_value(&mut args, &flag)?),
            "--file" => out.file = Some(flag_value(&mut args, &flag)?),
            "--seed" => out.seed = Some(parse_number(&flag, &flag_value(&mut args, &flag)?)?),
            "--resume" => out.resume = Some(PathBuf::from(flag_value(&mut args, &flag)?)),
            "--journal" => out.journal = Some(PathBuf::from(flag_value(&mut args, &flag)?)),
            "--epoch" => {
                let epoch: u64 = parse_number(&flag, &flag_value(&mut args, &flag)?)?;
                if epoch == 0 {
                    return Err(CliError::bad_flag("-", "--epoch must be at least 1"));
                }
                out.epoch = Some(epoch);
            }
            "--halt-after" => {
                let halt_after: usize = parse_number(&flag, &flag_value(&mut args, &flag)?)?;
                if halt_after == 0 {
                    return Err(CliError::bad_flag("-", "--halt-after must be at least 1"));
                }
                out.halt_after = Some(halt_after);
            }
            "--wall-budget-ms" => {
                out.wall_budget_ms = Some(parse_number(&flag, &flag_value(&mut args, &flag)?)?)
            }
            "--sim-budget-ps" => {
                out.sim_budget_ps = Some(parse_number(&flag, &flag_value(&mut args, &flag)?)?)
            }
            "--jobs" => {
                let jobs: usize = parse_number(&flag, &flag_value(&mut args, &flag)?)?;
                if jobs == 0 {
                    return Err(CliError::bad_flag("-", "--jobs must be at least 1"));
                }
                out.jobs = Some(jobs);
            }
            "--storage-faults" => {
                out.storage_faults = Some(parse_number(&flag, &flag_value(&mut args, &flag)?)?)
            }
            "--retries" => {
                let retries: u32 = parse_number(&flag, &flag_value(&mut args, &flag)?)?;
                if retries == 0 {
                    return Err(CliError::bad_flag("-", "--retries must be at least 1"));
                }
                out.retries = Some(retries);
            }
            "--backoff-ms" => {
                out.backoff_ms = Some(parse_number(&flag, &flag_value(&mut args, &flag)?)?)
            }
            "--obs-out" => out.obs_out = Some(flag_value(&mut args, &flag)?),
            "--population" => {
                let population: usize = parse_number(&flag, &flag_value(&mut args, &flag)?)?;
                if population < 2 {
                    return Err(CliError::bad_flag("-", "--population must be at least 2"));
                }
                out.population = Some(population);
            }
            "--generations" => {
                let generations: u32 = parse_number(&flag, &flag_value(&mut args, &flag)?)?;
                if generations == 0 {
                    return Err(CliError::bad_flag("-", "--generations must be at least 1"));
                }
                out.generations = Some(generations);
            }
            "--corpus" => out.corpus = Some(PathBuf::from(flag_value(&mut args, &flag)?)),
            "--top" => {
                let top: usize = parse_number(&flag, &flag_value(&mut args, &flag)?)?;
                if top == 0 {
                    return Err(CliError::bad_flag("-", "--top must be at least 1"));
                }
                out.top = Some(top);
            }
            "--sabotage" => {
                out.sabotage = Some(parse_number(&flag, &flag_value(&mut args, &flag)?)?)
            }
            "--defense-a" => out.defense_a = Some(flag_value(&mut args, &flag)?),
            "--defense-b" => out.defense_b = Some(flag_value(&mut args, &flag)?),
            _ if !flag.starts_with('-')
                && matches!(out.command.as_str(), "trace" | "redteam")
                && out.subcommand.is_none() =>
            {
                out.subcommand = Some(flag)
            }
            _ => return Err(CliError::bad_flag("-", format!("unknown flag {flag}"))),
        }
    }
    Ok(Some(out))
}

/// The one defense-name parser every subcommand shares
/// ([`DefenseKind::parse`]); a typo exits 2 with the full known-name
/// menu instead of a bare "unknown defense".
fn parse_defense(experiment: &str, name: &str) -> Result<DefenseKind, CliError> {
    DefenseKind::parse(name).ok_or_else(|| {
        CliError::unknown(
            experiment,
            format!(
                "unknown defense \"{name}\" (known: {})",
                DefenseKind::NAMES.join(" ")
            ),
        )
    })
}

fn workload_from_name(name: &str) -> Option<WorkloadKind> {
    // The named kinds plus every SPEC CPU2006 app model (as SPECrate).
    WorkloadKind::parse(name)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: twice-exp <command> [--requests N] [--defense NAME]\n\
         commands:\n\
         \x20 tables    print every computational table (2,3,4, bound, storage, ablations)\n\
         \x20 table1    measured defense comparison (scaled system)\n\
         \x20 fig7a     Figure 7(a) sweep at paper scale\n\
         \x20 fig7b     Figure 7(b) sweep at paper scale\n\
         \x20 fig7x     extended sweep: every defense on S1 and S3 at paper scale\n\
         \x20 capacity  the 4.4 capacity bound\n\
         \x20 latency   ACT-latency spike comparison (S3 + S2)\n\
         \x20 ecc       ECC scrubbing fault experiment\n\
         \x20 attack    S3 confrontation on the scaled system\n\
         \x20 chaos     fault-injection campaign (SEU sweep, bus gauntlet, device faults)\n\
         \x20 profile   run one instrumented cell ([--workload NAME] [--defense NAME])\n\
         \x20           and write a chrome://tracing trace to --obs-out\n\
         \x20 redteam   supervised adversarial search: evolve hammer-pattern genomes\n\
         \x20           against --defense NAME (quarantining pathological genomes,\n\
         \x20           journaling every evaluation for kill+resume); distill the\n\
         \x20           champions into a regression corpus with --corpus DIR\n\
         \x20   redteam verify  replay a corpus against EVERY defense and diff the\n\
         \x20                   hold/break outcomes against the sealed manifest\n\
         \x20 trace     binary (twice-trace v2) trace ecosystem; subcommands:\n\
         \x20   trace record  encode a workload (--workload NAME --file PATH [--requests N])\n\
         \x20   trace replay  salvage-decode and replay (--file PATH [--defense NAME])\n\
         \x20   trace verify  salvage-decode and report health (--file PATH)\n\
         \x20   trace stat    sizes, composition, v1-vs-v2 compression (--file PATH)\n\
         \x20   trace diff    replay one trace under two defenses and report the\n\
         \x20                 first divergence (--file PATH --defense-a A --defense-b B)\n\
         \x20           trace subcommands honor --storage-faults/--retries/--backoff-ms\n\
         \x20           and exit 0 clean / 4 salvaged-and-degraded / 2 unusable\n\
         common flags:\n\
         \x20 --jobs N            worker threads for experiment grids\n\
         \x20                     (default: available parallelism; 1 = serial)\n\
         chaos flags:\n\
         \x20 --seed N            override the simulation seed\n\
         \x20 --journal DIR       journal completed cells + epoch checkpoints to DIR\n\
         \x20 --resume DIR        resume a killed campaign from DIR (must exist; a\n\
         \x20                     journal of a different run exits 2)\n\
         \x20 --epoch N           requests per checkpoint/watchdog epoch\n\
         \x20 --halt-after N      stop after N (>= 1) fresh cells (crash simulation, exit 75)\n\
         \x20 --wall-budget-ms N  per-cell wall-clock watchdog\n\
         \x20 --sim-budget-ps N   per-cell simulated-time watchdog (picoseconds)\n\
         \x20 --storage-faults S  inject seeded storage faults into every journal/\n\
         \x20                     checkpoint path\n\
         \x20 --retries N         attempts per I/O-failing cell before quarantine\n\
         \x20 --backoff-ms N      linear backoff between attempts\n\
         \x20 --sabotage N        append N cells that fail by construction (injected\n\
         \x20                     panic, 1 ps sim budget) to exercise exit 4\n\
         profile flags:\n\
         \x20 --obs-out PATH      trace_event JSON output (default profile-trace.json)\n\
         redteam flags:\n\
         \x20 --population N      genomes per generation (default 16)\n\
         \x20 --generations N     generations to evolve (default 8)\n\
         \x20 --requests N        requests per evaluation (default 24000)\n\
         \x20 --corpus DIR        distill the top genomes into DIR (search) /\n\
         \x20                     the corpus to replay (verify)\n\
         \x20 --top N             corpus traces to distill (default 3)\n\
         \x20 --sabotage N        poison N generation-0 genomes (panic + budget\n\
         \x20                     blowout) to exercise quarantine\n\
         \x20 (--journal/--resume/--jobs/--epoch/--halt-after/--seed and the\n\
         \x20  budget/storage/retry flags work as for chaos)\n\
         exit codes:\n\
         \x20  0  success\n\
         \x20  2  unknown command, defense, workload, or SPEC app name; a\n\
         \x20     chaos/redteam journal of a different campaign\n\
         \x20  3  invalid flag value (e.g. --jobs 0, --halt-after 0)\n\
         \x20  4  completed degraded: a chaos cell ended without an outcome\n\
         \x20     (quarantined, panicked or over a budget), a trace\n\
         \x20     replayed/verified only after salvage dropped frames, or a\n\
         \x20     defense fell to the red-team corpus (redteam/redteam verify)\n\
         \x20  2  (trace) the trace file is unusable: damaged header,\n\
         \x20     foreign version/topology, or nothing salvageable\n\
         \x20 75  halted early by --halt-after (rerun with --resume)\n\
         \x20  1  everything else (I/O, a failed safety property)\n\
         defenses: twice twice-fa twice-pa twice-split para para2 prohit cbt cra\n\
         \x20         trr graphene oracle none"
    );
    ExitCode::from(EXIT_UNKNOWN_NAME)
}

/// The supervision knobs `chaos` and `redteam` share, filled
/// from `--journal`/`--resume`, `--jobs`, `--retries`, `--backoff-ms`,
/// `--storage-faults`, `--halt-after` and the two budget flags. The
/// `--resume` directory must exist and excludes `--journal`.
fn supervision(args: &Args, experiment: &str) -> Result<Supervision, CliError> {
    let mut sup = Supervision {
        dir: args.journal.clone(),
        jobs: args.jobs(),
        halt_after: args.halt_after,
        wall_budget_ms: args.wall_budget_ms,
        sim_budget_ps: args.sim_budget_ps,
        ..Supervision::default()
    };
    if let Some(dir) = &args.resume {
        if args.journal.is_some() {
            return Err(CliError::bad_flag(
                experiment,
                "--resume and --journal are mutually exclusive (resume implies the journal directory)",
            ));
        }
        if !dir.is_dir() {
            return Err(CliError::bad_flag(
                experiment,
                format!("--resume directory {} does not exist", dir.display()),
            ));
        }
        sup.dir = Some(dir.clone());
        sup.resume = true;
    }
    if let Some(retries) = args.retries {
        sup.retries = retries;
    }
    if let Some(backoff) = args.backoff_ms {
        sup.backoff_ms = backoff;
    }
    if let Some(seed) = args.storage_faults {
        sup.io = Arc::new(twice_sim::cio::FaultyIo::with_default_plan(seed));
    }
    Ok(sup)
}

/// The stderr notes of a resumed or self-healed run: how many `what`s
/// came from the journal, and the storage recovery ledger.
fn recovery_notes(what: &str, salvaged: usize, storage: &StorageSummary) {
    if salvaged > 0 {
        eprintln!("twice-exp: resumed: {salvaged} journaled {what}(s) salvaged");
    }
    if storage.is_degraded() {
        eprintln!("twice-exp: storage recovery: {storage}");
    }
}

/// The `--halt-after` exit: 75, with a note on how to continue.
fn halted(what: &str, accounted: usize) -> ExitCode {
    eprintln!(
        "twice-exp: halted by --halt-after with {accounted} {what}(s) accounted; \
         rerun with --resume to continue"
    );
    ExitCode::from(EXIT_HALTED)
}

fn run_chaos(args: &Args) -> Result<ExitCode, CliError> {
    let mut cfg = SimConfig::fast_test();
    if let Some(seed) = args.seed {
        cfg.seed = seed;
    }
    let mut cc = CampaignConfig::new(args.requests.unwrap_or(60_000));
    if let Some(epoch) = args.epoch {
        cc.epoch = epoch;
    }
    cc.sabotage = args.sabotage.unwrap_or(0);
    cc.sup = supervision(args, "chaos")?;

    let report = twice_sim::campaign::chaos_campaign(&cfg, &cc).map_err(|e| match e {
        OpenError::ForeignJournal(_) => CliError::unusable("chaos", e.to_string()),
        OpenError::Io(_) => CliError::failure("chaos", "-", format!("journal I/O failed: {e}")),
    })?;

    // The report goes to stdout and is byte-identical between a clean
    // run and a kill+resume; bookkeeping notes go to stderr.
    recovery_notes("cell", report.salvaged, &report.storage);
    for cell in &report.cells {
        if let Some(line) = cell.outcome.error_line() {
            eprintln!("twice-exp: degraded cell: {line}");
        }
    }
    if report.halted {
        return Ok(halted("cell", report.cells.len()));
    }

    println!("{}", report.table);
    // Per-cell totals merged at collection time (no shared counters
    // across workers) — see CampaignTotals.
    let hardened_flips = usize::try_from(report.hardened.bit_flips).unwrap_or(usize::MAX);
    println!(
        "hardened engine: {hardened_flips} bit flip(s) across the grid; \
         unhardened: {}",
        report.unhardened.bit_flips
    );
    if hardened_flips > 0 {
        return Err(CliError::failure(
            "chaos",
            "-",
            format!("hardened engine recorded {hardened_flips} bit flip(s)"),
        ));
    }
    if report.failed > 0 {
        // The campaign completed and the report above is trustworthy,
        // but cells without an outcome are missing from it: a distinct
        // exit code so supervisors can tell "done" from "done, degraded".
        eprintln!(
            "twice-exp: degraded: {} cell(s) ended without an outcome \
             ({} quarantined after exhausting retries)",
            report.failed, report.storage.quarantined_cells
        );
        return Ok(ExitCode::from(EXIT_DEGRADED));
    }
    Ok(ExitCode::SUCCESS)
}

/// `twice-exp profile`: one instrumented cell with the trace buffer
/// armed. Prints the counter/histogram/span report to stdout and
/// writes the Chrome `trace_event` JSON (validated before the write)
/// to `--obs-out` (default `profile-trace.json`). Open the file in
/// `chrome://tracing` or <https://ui.perfetto.dev>.
fn run_profile(args: &Args) -> Result<ExitCode, CliError> {
    let defense_name = args.defense.as_deref().unwrap_or("twice");
    let defense = parse_defense("profile", defense_name)?;
    let workload_name = args.workload.as_deref().unwrap_or("s1");
    let Some(workload) = workload_from_name(workload_name) else {
        return Err(CliError::unknown(
            "profile",
            format!("unknown workload \"{workload_name}\""),
        ));
    };
    let mut cfg = SimConfig::fast_test();
    if let Some(seed) = args.seed {
        cfg.seed = seed;
    }
    let requests = args.requests.unwrap_or(20_000);
    let epoch = args.epoch.unwrap_or(4_096);
    let cell = format!("{workload_name}/{defense_name}");
    let report = twice_sim::profile::profile_cell(&cfg, workload, defense, requests, epoch)
        .map_err(|e| CliError::failure("profile", &cell, e.to_string()))?;

    if cfg!(feature = "obs-off") {
        eprintln!(
            "twice-exp: built with obs-off: every probe is compiled out, \
             the report and trace are empty"
        );
    } else {
        let missing = report.missing_layers();
        if !missing.is_empty() {
            return Err(CliError::failure(
                "profile",
                &cell,
                format!("no trace events from layer(s): {}", missing.join(",")),
            ));
        }
    }
    let trace = report.trace_json();
    twice_sim::profile::validate_trace_json(&trace)
        .map_err(|e| CliError::failure("profile", &cell, format!("trace self-check: {e}")))?;
    let path = args
        .obs_out
        .clone()
        .unwrap_or_else(|| "profile-trace.json".into());
    std::fs::write(&path, &trace)
        .map_err(|e| CliError::failure("profile", "-", format!("cannot write {path}: {e}")))?;
    print!("{}", report.render());
    println!(
        "profiled {cell} x{requests}: {} trace event(s) -> {path}",
        report.snapshot.trace.len()
    );
    Ok(ExitCode::SUCCESS)
}

/// `redteam` — evolve adversarial hammer patterns against a defense
/// under the supervision ladder, journal every evaluation for
/// kill+resume, and optionally distill the winners into a regression
/// corpus. `redteam verify` replays a corpus against every defense and
/// exits 4 on any contract violation (a defense fell).
fn run_redteam(args: &Args) -> Result<ExitCode, CliError> {
    use twice_sim::redteam::{self, RedteamConfig, RedteamOutcome, CORPUS_MANIFEST, MUST_HOLD};

    if let Some(sub) = args.subcommand.as_deref() {
        if sub != "verify" {
            return Err(CliError::unknown(
                "redteam",
                format!("unknown redteam subcommand \"{sub}\" (only: verify)"),
            ));
        }
        let Some(corpus_dir) = &args.corpus else {
            return Err(CliError::bad_flag(
                "redteam verify",
                "redteam verify needs --corpus DIR",
            ));
        };
        let mut cfg = SimConfig::fast_test();
        if let Some(seed) = args.seed {
            cfg.seed = seed;
        }
        let sup = supervision(args, "redteam verify")?;
        let report = redteam::verify_corpus(&cfg, &sup.io, corpus_dir, sup.retries, sup.backoff_ms)
            .map_err(|e| {
                if e.contains(CORPUS_MANIFEST) {
                    CliError::unusable("redteam verify", e)
                } else {
                    CliError::failure("redteam verify", "-", e)
                }
            })?;
        for finding in &report.findings {
            println!("finding: {finding}");
        }
        println!(
            "verified {} trace(s) x {} defense replay(s): {} expected break(s), {} regression(s)",
            report.traces,
            report.replays,
            report.findings.len(),
            report.regressions.len()
        );
        if !report.regressions.is_empty() {
            for r in &report.regressions {
                eprintln!("twice-exp: corpus regression: {r}");
            }
            eprintln!("twice-exp: degraded: a defense fell to the red-team corpus");
            return Ok(ExitCode::from(EXIT_DEGRADED));
        }
        return Ok(ExitCode::SUCCESS);
    }

    let mut cfg = SimConfig::fast_test();
    if let Some(seed) = args.seed {
        cfg.seed = seed;
    }
    let name = args.defense.as_deref().unwrap_or("twice");
    let defense = parse_defense("redteam", name)?;
    let mut rc = RedteamConfig::new(cfg, defense, PathBuf::new());
    rc.sup = supervision(args, "redteam")?;
    let dir = rc
        .dir
        .get_or_insert_with(|| PathBuf::from("redteam-out"))
        .clone();
    if let Some(p) = args.population {
        rc.population = p;
    }
    if let Some(g) = args.generations {
        rc.generations = g;
    }
    if let Some(r) = args.requests {
        rc.requests = r;
    }
    if let Some(e) = args.epoch {
        rc.epoch = e;
    }
    rc.sabotage = args.sabotage.unwrap_or(0);

    let outcome = redteam::redteam_search(&rc).map_err(|e| {
        if e.contains("different campaign") {
            CliError::unusable("redteam", e)
        } else {
            CliError::failure("redteam", "-", e)
        }
    })?;
    let report = match outcome {
        RedteamOutcome::Halted { evals_live } => {
            eprintln!(
                "twice-exp: redteam halted after {evals_live} live evaluation(s); \
                 rerun with --resume {} to continue",
                dir.display()
            );
            return Ok(ExitCode::from(EXIT_HALTED));
        }
        RedteamOutcome::Completed(r) => r,
    };

    println!(
        "redteam search: defense={} population={} generations={} requests={} seed={}",
        rc.defense, rc.population, rc.generations, rc.requests, rc.cfg.seed
    );
    println!("gen  best_fitness  quarantined  digest              best");
    for g in &report.generations {
        println!(
            "{:>3}  {:>12}  {:>11}  {:#018x}  {}",
            g.gen, g.best_fitness, g.quarantined, g.digest, g.best_summary
        );
    }
    println!(
        "evals: {} live, {} cached; {} quarantined; {} journal line(s) dropped, {} corrupt",
        report.evals_live,
        report.evals_cached,
        report.quarantined,
        report.journal_dropped,
        report.journal_corrupt
    );
    if report.journal_corrupt > 0 {
        // The stdout line above stays stable for diffing; this says what
        // its last count means.
        eprintln!(
            "twice-exp: journal salvage: {} corrupt line(s) salvaged and dropped to {}; \
             their evaluations re-ran",
            report.journal_corrupt,
            dir.join(twice_sim::grid::JOURNAL_CORRUPT_FILE).display()
        );
    }
    if let Some((genome, best)) = report.best.first() {
        println!(
            "champion: {} (fitness {}, {} flip(s), stealth peak {}, near-miss {}permille) {}",
            genome.summary(),
            best.fitness,
            best.bit_flips,
            best.stealth_peak,
            best.near_miss_permille,
            genome.hex()
        );
    }

    if let Some(corpus_dir) = &args.corpus {
        let entries = redteam::distill_corpus(&rc, &report.best, corpus_dir, args.top.unwrap_or(3))
            .map_err(|e| CliError::failure("redteam", "corpus", e))?;
        let mut fallen = Vec::new();
        for e in &entries {
            println!(
                "corpus {}: fitness {} holds=[{}] breaks=[{}]",
                e.file,
                e.fitness,
                e.holds.join(","),
                e.breaks.join(",")
            );
            for broken in &e.breaks {
                if MUST_HOLD.contains(&broken.as_str()) {
                    fallen.push(format!("{} fell to {}", broken, e.file));
                }
            }
        }
        if !fallen.is_empty() {
            for f in &fallen {
                eprintln!(
                    "twice-exp: HEADLINE: {f} - record this in DESIGN.md, do not ship silently"
                );
            }
            return Ok(ExitCode::from(EXIT_DEGRADED));
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `twice-exp trace <record|replay|verify|stat|diff>`: the binary
/// (`twice-trace v2`) trace ecosystem. All file I/O goes through the
/// campaign storage seam, so `--storage-faults` tortures these paths
/// exactly like journals and checkpoints. Exit codes follow the trace
/// health ladder: 0 clean, 4 salvaged-and-degraded, 2 unusable.
fn run_trace(args: &Args) -> Result<ExitCode, CliError> {
    use twice_sim::tracecli::{self, TraceIo};
    use twice_workloads::tracev2::TraceHealth;

    let Some(sub) = args.subcommand.as_deref() else {
        return Err(CliError::bad_flag(
            "trace",
            "trace needs a subcommand: record | replay | verify | stat | diff",
        ));
    };
    if !matches!(sub, "record" | "replay" | "verify" | "stat" | "diff") {
        return Err(CliError::unknown(
            "trace",
            format!("unknown trace subcommand \"{sub}\""),
        ));
    }
    let experiment = format!("trace {sub}");
    let Some(path) = args.file.as_deref() else {
        return Err(CliError::bad_flag(&experiment, "trace needs --file PATH"));
    };
    let path = std::path::Path::new(path);
    let mut cfg = SimConfig::paper_default();
    if let Some(seed) = args.seed {
        cfg.seed = seed;
    }
    let mut tio = TraceIo::real();
    if let Some(seed) = args.storage_faults {
        tio.io = Arc::new(twice_sim::cio::FaultyIo::with_default_plan(seed));
    }
    if let Some(retries) = args.retries {
        tio.attempts = retries;
    }
    if let Some(backoff) = args.backoff_ms {
        tio.backoff_ms = backoff;
    }

    if sub == "record" {
        let name = args.workload.as_deref().unwrap_or("s1");
        let Some(workload) = workload_from_name(name) else {
            return Err(CliError::unknown(
                &experiment,
                format!("unknown workload \"{name}\""),
            ));
        };
        let requests = args.requests.unwrap_or(100_000);
        let out = tracecli::record_trace(&tio, &cfg, &workload, requests, path)
            .map_err(|e| CliError::failure(&experiment, name, e.to_string()))?;
        println!(
            "recorded {} accesses ({} bytes) of {name} to {}",
            out.records,
            out.bytes,
            path.display()
        );
        return Ok(ExitCode::SUCCESS);
    }

    // Every other subcommand starts by loading + salvage-decoding.
    let loaded = tracecli::load_trace(&tio, &cfg, path).map_err(|e| match e {
        tracecli::TraceCliError::Header(h) => CliError::unusable(&experiment, h.to_string()),
        other => CliError::failure(&experiment, "-", other.to_string()),
    })?;
    let health = loaded.salvaged.health();
    let summary = &loaded.salvaged.summary;
    if summary.is_degraded() {
        eprintln!(
            "twice-exp: trace salvage: {} frame(s) kept, {} corrupt region(s), \
             {} byte(s) quarantined",
            summary.frames_kept, summary.frames_dropped, summary.bytes_quarantined
        );
        for err in &summary.errors {
            eprintln!("twice-exp: trace salvage: {err}");
        }
        if summary.errors_truncated {
            eprintln!("twice-exp: trace salvage: (further errors elided)");
        }
    }
    if health == TraceHealth::Unusable {
        return Err(CliError::unusable(
            &experiment,
            format!(
                "no records salvageable from {} ({} byte(s) quarantined)",
                path.display(),
                summary.bytes_quarantined
            ),
        ));
    }

    match sub {
        "verify" | "stat" => {
            if sub == "stat" {
                println!("{}", loaded.stats());
            } else {
                println!(
                    "{}: {} record(s) in {} frame(s){}",
                    path.display(),
                    summary.records,
                    summary.frames_kept,
                    if health == TraceHealth::Salvaged {
                        " (salvaged)"
                    } else {
                        ""
                    }
                );
            }
        }
        "diff" => {
            let Some(name_a) = args.defense_a.as_deref() else {
                return Err(CliError::bad_flag(
                    &experiment,
                    "trace diff needs --defense-a NAME",
                ));
            };
            let Some(name_b) = args.defense_b.as_deref() else {
                return Err(CliError::bad_flag(
                    &experiment,
                    "trace diff needs --defense-b NAME",
                ));
            };
            let kind_a = parse_defense(&experiment, name_a)?;
            let kind_b = parse_defense(&experiment, name_b)?;
            let label = format!("{}", path.display());
            let total = loaded.salvaged.items.len();
            let diff = tracecli::diff_trace(
                &cfg,
                kind_a,
                kind_b,
                Arc::new(loaded.salvaged.items),
                &label,
            )
            .map_err(|e| CliError::failure(&experiment, "-", format!("diff aborted: {e}")))?;
            println!("{label}: {} vs {}", diff.a.defense, diff.b.defense);
            match diff.divergence {
                Some(d) => println!(
                    "first divergence at access {}/{total}: {} {} vs {}",
                    d.access, d.field, d.a, d.b
                ),
                None => println!("no observable divergence over {total} accesses"),
            }
            for m in [&diff.a, &diff.b] {
                println!(
                    "  {:12} {} additional ACT(s) ({}), {} detection(s), {} flip(s), {} nack(s)",
                    m.defense,
                    m.additional_acts,
                    m.ratio_percent(),
                    m.detections,
                    m.bit_flips,
                    m.nacks
                );
            }
            println!(
                "  delta        {:+} additional ACT(s), {:+} detection(s), {:+} flip(s), \
                 digests {:#018x} / {:#018x}",
                diff.b.additional_acts as i64 - diff.a.additional_acts as i64,
                diff.b.detections as i64 - diff.a.detections as i64,
                diff.b.bit_flips as i64 - diff.a.bit_flips as i64,
                diff.digest_a,
                diff.digest_b
            );
        }
        "replay" => {
            let name = args.defense.as_deref().unwrap_or("twice");
            let kind = parse_defense(&experiment, name)?;
            let label = format!("{}", path.display());
            let out = tracecli::replay_trace(&cfg, kind, Arc::new(loaded.salvaged.items), &label)
                .map_err(|e| {
                CliError::failure(&experiment, name, format!("replay aborted: {e}"))
            })?;
            let m = &out.metrics;
            println!(
                "{}: {} requests, {} ACTs, {} additional ({}), {} detection(s), {} flip(s), \
                 digest {:#018x}",
                m.defense,
                m.requests,
                m.normal_acts,
                m.additional_acts,
                m.ratio_percent(),
                m.detections,
                m.bit_flips,
                out.digest
            );
        }
        _ => unreachable!("subcommand validated above"),
    }
    if health == TraceHealth::Salvaged {
        eprintln!("twice-exp: degraded: replayable records were salvaged from a damaged trace");
        return Ok(ExitCode::from(EXIT_DEGRADED));
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return usage(),
        Err(e) => return e.report(),
    };
    let params = TwiceParams::paper_default();
    match args.command.as_str() {
        "tables" => {
            println!("{}", table2::table2(&params));
            println!(
                "{}",
                table3::table3(&TwiceCostModel::table3_45nm(), &params.timings)
            );
            println!("{}", table4::table4(&SimConfig::paper_default()));
            println!("{}", capacity::capacity(&params, 128).table);
            println!("{}", storage::storage(&params).table);
            println!("{}", ablation::arr_overhead(&params).table);
            println!(
                "{}",
                ablation::th_rh_sweep(&params, &[8_192, 16_384, 32_768, 65_536])
            );
            println!("{}", ablation::timing_sweep(&params));
            let cfg = SimConfig::paper_default();
            for w in [WorkloadKind::S1, WorkloadKind::S3, WorkloadKind::MixHigh] {
                println!("{}", ablation::pa_vs_fa(&cfg, w, 100_000).table);
            }
        }
        "table1" => {
            let cfg = SimConfig::fast_test();
            let (table, _) =
                table1::table1_jobs(&cfg, args.requests.unwrap_or(40_000), args.jobs());
            println!("{table}");
        }
        "fig7a" => {
            let cfg = SimConfig::paper_default();
            let result = fig7::figure7a_jobs(
                &cfg,
                &fig7::SPEC_SAMPLE,
                args.requests.unwrap_or(250_000),
                args.jobs(),
            );
            println!("{}", result.table);
        }
        "fig7b" => {
            let cfg = SimConfig::paper_default();
            let result = fig7::figure7b_jobs(&cfg, args.requests.unwrap_or(1_500_000), args.jobs());
            println!("{}", result.table);
        }
        "fig7x" => {
            let cfg = SimConfig::paper_default();
            let result =
                fig7::figure7_extended(&cfg, args.requests.unwrap_or(250_000), args.jobs());
            println!("{}", result.table);
        }
        "capacity" => {
            println!("{}", capacity::capacity(&params, 256).table);
        }
        "latency" => {
            let cfg = SimConfig::paper_default();
            let requests = args.requests.unwrap_or(250_000);
            let workloads = vec![
                ("S3".to_string(), WorkloadKind::S3, requests),
                ("S2".to_string(), WorkloadKind::S2, requests.max(1_500_000)),
            ];
            println!(
                "{}",
                latency::latency_spike_jobs(&cfg, &workloads, args.jobs()).table
            );
        }
        "ecc" => {
            let cfg = SimConfig::fast_test();
            let (table, _) =
                ecc::ecc_experiment_jobs(&cfg, args.requests.unwrap_or(60_000), args.jobs());
            println!("{table}");
        }
        "chaos" => {
            return match run_chaos(&args) {
                Ok(code) => code,
                Err(e) => e.report(),
            };
        }
        "profile" => {
            return match run_profile(&args) {
                Ok(code) => code,
                Err(e) => e.report(),
            };
        }
        "trace" => {
            return match run_trace(&args) {
                Ok(code) => code,
                Err(e) => e.report(),
            };
        }
        "redteam" => {
            return match run_redteam(&args) {
                Ok(code) => code,
                Err(e) => e.report(),
            };
        }
        "attack" => {
            let cfg = SimConfig::fast_test();
            let name = args.defense.as_deref().unwrap_or("twice");
            let kind = match parse_defense("attack", name) {
                Ok(k) => k,
                Err(e) => return e.report(),
            };
            let out = confront(
                &cfg,
                WorkloadKind::S3,
                kind,
                args.requests.unwrap_or(60_000),
            );
            println!(
                "S3 hammer, {} requests (scaled system, N_th = {}):",
                out.unprotected.requests, cfg.fault_n_th
            );
            println!("  unprotected : {} bit flip(s)", out.unprotected.bit_flips);
            println!(
                "  {:11} : {} bit flip(s), {} detection(s), {} additional ACTs ({})",
                out.defended.defense,
                out.defended.bit_flips,
                out.defended.detections,
                out.defended.additional_acts,
                out.defended.ratio_percent(),
            );
        }
        other => {
            eprintln!("twice-exp: error experiment={other} cell=- cause=\"unknown command\"");
            return usage();
        }
    }
    ExitCode::SUCCESS
}
