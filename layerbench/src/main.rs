//! `layerbench`: the layer-by-layer benchmark of the TWiCe reproduction.
//!
//! ```text
//! layerbench --workload <benign-paper|hammer-lineup|defense-hooks>
//!            --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Set-up builds the workload's inputs
//! from the seed (and the checked-in `corpus/`); the timed loop replays
//! them through the crates' public API, one process on one thread,
//! closed-loop, for about `--seconds`; every output is checked. The
//! last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. `README.md`
//! beside this file describes the workloads and every metric.

mod hooks;
mod host;
mod inputs;
mod metrics;
mod replay;
mod report;
mod spans;

use hooks::{HookRun, Stream};
use host::HostPrint;
use inputs::{GenCost, TraceInput};
use replay::CellRun;
use report::{median, ratio, Metrics};
use spans::Recorder;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use twice_mitigations::DefenseKind;
use twice_obs::{Ctr, SpanId, NUM_CTRS, NUM_SPANS};
use twice_sim::redteam::MUST_HOLD;
use twice_sim::SimConfig;

const USAGE: &str = "usage: layerbench --workload <benign-paper|hammer-lineup|defense-hooks> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Set-up runs at least `SETUP_REPS.0` and at most `SETUP_REPS.1` times
/// per run, stopping once it has taken `SETUP_BUDGET_S`; `setup_s` is the
/// median.
const SETUP_REPS: (usize, usize) = (3, 9);
const SETUP_BUDGET_S: f64 = 1.5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    BenignPaper,
    HammerLineup,
    DefenseHooks,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "benign-paper" => Workload::BenignPaper,
            "hammer-lineup" => Workload::HammerLineup,
            "defense-hooks" => Workload::DefenseHooks,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::BenignPaper => "benign-paper",
            Workload::HammerLineup => "hammer-lineup",
            Workload::DefenseHooks => "defense-hooks",
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: not {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a u64"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let pinned = host::pin_mmap_threshold();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("layerbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".");
    if !root.join("crates").is_dir() || !root.join("corpus").is_dir() {
        eprintln!("layerbench: run from the repository root (needs crates/ and corpus/)");
        return ExitCode::from(2);
    }
    let print = HostPrint::collect(&root);
    let timer_ns = host::timer_pair_ns();
    println!(
        "layerbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host nproc={} rustc=\"{}\" git_rev={} source_fnv1a={:#018x} obs_off={} \
         mmap_threshold_pinned={pinned}",
        print.nproc, print.rustc, print.git_rev, print.source_hash, print.obs_off
    );
    println!("timer one Instant::now() pair costs {timer_ns:.1} ns on this host");
    let result = match args.workload {
        Workload::BenignPaper | Workload::HammerLineup => run_system(&args, &root),
        Workload::DefenseHooks => run_hooks(&args),
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("layerbench: set-up failed: {e}");
            return ExitCode::from(1);
        }
    };
    if args.trace {
        out.metrics.set("bench.timer_ns", timer_ns, "ns");
    }
    let (e2e, layers) = (metrics::end_to_end(), metrics::per_layer());
    let known: Vec<_> = e2e.iter().chain(&layers).cloned().collect();
    let printed = out
        .metrics
        .select(if args.trace { &layers } else { &e2e }, &known);
    for note in out.failures.iter().take(12) {
        println!("FAILED {note}");
    }
    println!(
        "operations attempted={} failed={}",
        out.attempted,
        out.failures.len()
    );
    printed.print_table();
    println!(
        "{}",
        printed.json_line(out.attempted, out.failures.len() as u64)
    );
    ExitCode::SUCCESS
}

/// Everything a workload reports.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    /// One note per failed operation.
    failures: Vec<String>,
}

/// Set-up timed several times; the last build is kept.
struct Setup<T> {
    value: T,
    secs: Vec<f64>,
    costs: Vec<GenCost>,
}

/// Builds the inputs several times (see `SETUP_REPS`). Every repetition
/// must produce byte-identical inputs: a generator that is not a
/// function of the seed makes every figure incomparable.
fn setup<T>(
    mut build: impl FnMut(&mut GenCost) -> Result<(T, Vec<(String, u64)>), String>,
) -> Result<Setup<T>, String> {
    let mut secs = Vec::new();
    let mut costs = Vec::new();
    let mut first: Option<Vec<(String, u64)>> = None;
    let mut value = None;
    let start = Instant::now();
    while secs.len() < SETUP_REPS.0
        || (secs.len() < SETUP_REPS.1 && start.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        let mut cost = GenCost::default();
        let t0 = Instant::now();
        let (v, hashes) = build(&mut cost)?;
        secs.push(t0.elapsed().as_secs_f64());
        costs.push(cost);
        match &first {
            None => {
                for (name, hash) in &hashes {
                    println!("input {name} fnv1a={hash:#018x}");
                }
                first = Some(hashes);
            }
            Some(f) if *f != hashes => return Err("set-up is not deterministic".into()),
            Some(_) => {}
        }
        value = Some(v);
    }
    Ok(Setup {
        value: value.expect("at least one repetition"),
        secs,
        costs,
    })
}

impl<T> Setup<T> {
    fn report(&self, m: &mut Metrics, trace: bool) {
        m.set("setup_s", median(&mut self.secs.clone()), "s");
        if trace {
            let per_req = |f: fn(&GenCost) -> u64| {
                median(
                    &mut self
                        .costs
                        .iter()
                        .map(|c| ratio(f(c) as f64, c.requests as f64))
                        .collect::<Vec<_>>(),
                )
            };
            m.set("workloads.gen_ns_per_req", per_req(|c| c.gen_ns), "ns");
            m.set(
                "workloads.encode_ns_per_req",
                per_req(|c| c.encode_ns),
                "ns",
            );
            if self.costs.iter().any(|c| c.decode_ns > 0) {
                m.set(
                    "workloads.decode_ns_per_req",
                    per_req(|c| c.decode_ns),
                    "ns",
                );
            }
        }
    }
}

/// Runs passes for about `seconds`: untraced only, or alternating
/// untraced and traced passes for the traced run (at least one each).
/// A pass is started only if the mean pass so far still fits.
fn run_passes<P>(
    seconds: f64,
    traced_run: bool,
    mut pass: impl FnMut(bool, u32) -> P,
) -> (Vec<P>, Vec<P>) {
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut n = 0u32;
    loop {
        let t = traced_run && n % 2 == 1;
        let p = pass(t, n);
        if t {
            traced.push(p);
        } else {
            plain.push(p);
        }
        n += 1;
        let elapsed = start.elapsed().as_secs_f64();
        let need = if traced_run { 2 } else { 1 };
        if n >= need && elapsed * f64::from(n + 1) / f64::from(n) > seconds {
            break;
        }
    }
    println!(
        "passes untraced={} traced={} in {:.2} s",
        plain.len(),
        traced.len(),
        start.elapsed().as_secs_f64()
    );
    (plain, traced)
}

/// The program's own counters and span totals, read around one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Obs {
    counters: [u64; NUM_CTRS],
    span_ns: [u128; NUM_SPANS],
}

fn obs_now() -> Obs {
    let s = twice_obs::snapshot();
    Obs {
        counters: s.counters,
        span_ns: std::array::from_fn(|i| s.spans[i].sum()),
    }
}

impl Obs {
    fn since(self, before: Obs) -> Obs {
        Obs {
            counters: std::array::from_fn(|i| self.counters[i] - before.counters[i]),
            span_ns: std::array::from_fn(|i| self.span_ns[i] - before.span_ns[i]),
        }
    }

    /// The sum of `cells` (one pass).
    fn sum<'a>(cells: impl Iterator<Item = &'a Obs>) -> Obs {
        let mut o = Obs {
            counters: [0; NUM_CTRS],
            span_ns: [0; NUM_SPANS],
        };
        for c in cells {
            for (a, b) in o.counters.iter_mut().zip(c.counters) {
                *a += b;
            }
            for (a, b) in o.span_ns.iter_mut().zip(c.span_ns) {
                *a += b;
            }
        }
        o
    }

    fn report(&self, m: &mut Metrics) {
        for c in [
            Ctr::MemctrlRequests,
            Ctr::MemctrlCmdRetries,
            Ctr::DramBankTransitions,
            Ctr::DramRefreshStalls,
            Ctr::DramNacksArr,
            Ctr::CoreActs,
            Ctr::CoreArrs,
            Ctr::CorePrunePasses,
            Ctr::CorePrunedEntries,
            Ctr::CorePaSetProbes,
        ] {
            m.set(c.name(), self.counters[c as usize] as f64, "count");
        }
    }
}

/// Fastest of a cell's untraced times: the sample a noisy neighbour
/// disturbed least (host noise only ever adds time).
fn fastest(walls: impl Iterator<Item = u64>) -> Option<f64> {
    walls.min().map(|w| w as f64)
}

/// Work per host second: the work of every cell over the sum of each
/// cell's fastest time across passes. A pass slowed by a noisy
/// neighbour moves no cell's figure unless every pass of it was slowed.
fn cell_rate(cells: impl Iterator<Item = (u64, Option<f64>)>) -> f64 {
    let (mut work, mut ns) = (0u64, 0f64);
    for (w, wall) in cells {
        if let Some(wall) = wall {
            work += w;
            ns += wall;
        }
    }
    ratio(work as f64 * 1e9, ns)
}

/// Median over passes of the program's span totals (ns per pass).
fn report_obs_spans(m: &mut Metrics, passes: &[Obs]) {
    for (s, name) in [
        (SpanId::CorePrune, "core.prune_ns"),
        (SpanId::DramRefresh, "dram.refresh_ns"),
        (SpanId::MemctrlDrain, "memctrl.drain_ns"),
    ] {
        let mut v: Vec<f64> = passes
            .iter()
            .map(|o| o.span_ns[s as usize] as f64)
            .collect();
        m.set(name, median(&mut v), "ns");
    }
}

/// Simulated request latency over the cells `lat` merges.
fn report_latency(m: &mut Metrics, lat: &twice_memctrl::latency::LatencyHistogram) {
    m.set(
        "memctrl.sim_latency_mean_ns",
        lat.mean().as_ps() as f64 / 1e3,
        "ns",
    );
    m.set(
        "memctrl.sim_latency_p99_ns",
        lat.quantile(0.99).as_ps() as f64 / 1e3,
        "ns",
    );
}

fn kind_name(kind: DefenseKind) -> &'static str {
    kind.cli_name().expect("lineup kinds all have CLI names")
}

/// Per-cell reference for the determinism and traced-vs-untraced check.
type Reference = Option<(u64, [u64; NUM_CTRS])>;

fn check_reference(reference: &mut Reference, digest: u64, obs: &Obs) -> Option<String> {
    match reference {
        None => {
            *reference = Some((digest, obs.counters));
            None
        }
        Some((d, c)) if *d != digest || *c != obs.counters => {
            Some("digest or counters differ from an earlier run of the same cell".into())
        }
        Some(_) => None,
    }
}

/// Self-time shares of the traced passes, plus the unattributed share:
/// time inside a cell's root span that none of its child spans covers.
fn report_self_times(m: &mut Metrics, rec: &Recorder) {
    let self_ns = rec.self_ns_by_name();
    let roots: u64 = rec
        .spans()
        .iter()
        .filter(|s| matches!(s.name, "cell" | "hooks_pass"))
        .map(|s| s.busy_ns)
        .sum();
    for (name, ns) in &self_ns {
        match *name {
            "cell" | "hooks_pass" => {}
            "snapshot_save" | "snapshot_restore" => {} // outside the timed region
            _ => m.set(
                format!("layer.{name}_pct"),
                100.0 * ratio(*ns as f64, roots as f64),
                "%",
            ),
        }
    }
    let unattributed: u64 = self_ns
        .iter()
        .filter(|(n, _)| matches!(*n, "cell" | "hooks_pass"))
        .map(|r| r.1)
        .sum();
    m.set(
        "bench.unattributed_pct",
        100.0 * ratio(unattributed as f64, roots as f64),
        "%",
    );
}

fn write_spans(args: &Args, rec: &Recorder) {
    let path = Path::new("layerbench/out").join(format!(
        "{}-seed{}.spans.jsonl",
        args.workload.name(),
        args.seed
    ));
    match rec.write_jsonl(&path) {
        Ok(()) => println!("spans {} written to {}", rec.spans().len(), path.display()),
        Err(e) => println!("spans not written to {}: {e}", path.display()),
    }
}

// ---------------------------------------------------------------------
// benign-paper and hammer-lineup: System cells.
// ---------------------------------------------------------------------

struct SysCell {
    run: CellRun,
    obs: Obs,
}

/// One pass: every trace × defense cell, in a fixed order.
type SysPass = Vec<Option<SysCell>>;

fn run_system(args: &Args, root: &Path) -> Result<Outcome, String> {
    let (kinds, set) = match args.workload {
        Workload::BenignPaper => {
            let mut kinds = vec![DefenseKind::None];
            kinds.extend(DefenseKind::figure7_lineup());
            let set = setup(|cost| {
                let traces = inputs::benign_traces(args.seed, inputs::BENIGN_REQUESTS, cost);
                let hashes = traces.iter().map(|t| (t.name.clone(), t.hash)).collect();
                Ok((traces, hashes))
            })?;
            (kinds, set)
        }
        _ => {
            let set = setup(|cost| {
                let mut traces = inputs::corpus_traces(root)?;
                traces.extend(inputs::hammer_traces(
                    args.seed,
                    inputs::HAMMER_REQUESTS,
                    cost,
                ));
                let hashes = traces.iter().map(|t| (t.name.clone(), t.hash)).collect();
                Ok((traces, hashes))
            })?;
            (DefenseKind::verify_lineup(), set)
        }
    };
    let traces = &set.value;
    let cells: Vec<(usize, DefenseKind)> = (0..traces.len())
        .flat_map(|t| kinds.iter().map(move |&k| (t, k)))
        .collect();
    let mut refs: Vec<Reference> = vec![None; cells.len()];
    let mut failures = Vec::new();
    let mut attempted = 0u64;
    let mut rec = Recorder::default();
    let mut round_trip_done = false;

    let mut pass = |traced: bool, pass_no: u32, rec: &mut Recorder| -> SysPass {
        let round_trip = traced && args.trace && !round_trip_done;
        round_trip_done |= round_trip;
        let mut out = Vec::with_capacity(cells.len());
        for (i, &(t, kind)) in cells.iter().enumerate() {
            let input = &traces[t];
            let before = obs_now();
            let cell_id = pass_no * cells.len() as u32 + i as u32;
            let run = if traced {
                replay::run_traced(input, kind, rec, cell_id, round_trip)
            } else {
                replay::run_untraced(input, kind)
            };
            let obs = obs_now().since(before);
            attempted += 1;
            let label = format!("{} x {}", input.name, kind_name(kind));
            match run {
                Err(e) => {
                    failures.push(format!("{label}: replay failed: {e}"));
                    out.push(None);
                }
                Ok(run) => {
                    if let Some(why) = check_cell(input, kind, &run, &obs, &mut refs[i]) {
                        failures.push(format!("{label}: {why}"));
                    }
                    out.push(Some(SysCell { run, obs }));
                }
            }
        }
        out
    };
    let (plain, traced) = run_passes(args.seconds, args.trace, |t, n| pass(t, n, &mut rec));
    let peak_rss = host::peak_rss_mb();
    if !args.trace {
        // The traced twin of every cell must reproduce its digest and
        // counters; it runs after the timed loop.
        let n = plain.len() as u32;
        pass(true, n, &mut Recorder::default());
    }

    let mut m = Metrics::default();
    set.report(&mut m, args.trace);
    m.set("peak_rss_mb", peak_rss, "MiB");
    let runs = |i: usize| {
        plain
            .iter()
            .filter_map(move |p| p[i].as_ref().map(|c| &c.run))
    };
    let rate = |work: fn(&CellRun) -> u64| {
        cell_rate((0..cells.len()).map(|i| {
            let wall = fastest(runs(i).map(|r| r.wall_ns));
            (runs(i).next().map_or(0, work), wall)
        }))
    };
    m.set("req_per_s", rate(|r| r.requests), "1/s");
    m.set(
        "acts_per_s",
        rate(|r| r.normal_acts + r.additional_acts),
        "1/s",
    );
    let first = plain.first().expect("at least one untraced pass");
    let sum =
        |f: fn(&CellRun) -> u64| first.iter().flatten().map(|c| f(&c.run)).sum::<u64>() as f64;
    let requests = sum(|r| r.requests);
    m.set(
        "sim_ns_per_req",
        ratio(sum(|r| r.sim_ps) / 1e3, requests),
        "ns",
    );
    m.set(
        "added_acts_ppm",
        1e6 * ratio(sum(|r| r.additional_acts), sum(|r| r.normal_acts)),
        "ppm",
    );

    if args.trace {
        report_system_layers(&mut m, &kinds, &cells, &plain, &traced);
        report_self_times(&mut m, &rec);
        write_spans(args, &rec);
    }
    Ok(Outcome {
        metrics: m,
        attempted,
        failures,
    })
}

fn check_cell(
    input: &TraceInput,
    kind: DefenseKind,
    run: &CellRun,
    obs: &Obs,
    reference: &mut Reference,
) -> Option<String> {
    let name = kind_name(kind);
    let broke = run.bit_flips > 0;
    if !run.decoded_ok {
        return Some("v2 bytes do not decode back to the generated items".into());
    }
    if broke && MUST_HOLD.contains(&name) {
        return Some(format!("{name} must hold but a victim flipped"));
    }
    if let Some(breaks) = &input.breaks {
        if breaks.contains(name) != broke {
            return Some(format!(
                "verdict {} differs from corpus/MANIFEST.jsonl",
                if broke { "break" } else { "hold" }
            ));
        }
    }
    if run.round_trip.is_some_and(|rt| !rt.digest_ok) {
        return Some("snapshot round trip does not reproduce the digest".into());
    }
    check_reference(reference, run.digest, obs)
}

fn report_system_layers(
    m: &mut Metrics,
    kinds: &[DefenseKind],
    cells: &[(usize, DefenseKind)],
    plain: &[SysPass],
    traced: &[SysPass],
) {
    let layer =
        |p: &SysPass, f: fn(&replay::CellLayers) -> u64, keep: &dyn Fn(DefenseKind) -> bool| {
            let (mut ns, mut req, mut n) = (0u64, 0u64, 0u64);
            for (c, &(_, kind)) in p.iter().zip(cells) {
                if let (Some(c), true) = (c, keep(kind)) {
                    if let Some(l) = &c.run.layers {
                        ns += f(l);
                        req += c.run.requests;
                        n += 1;
                    }
                }
            }
            (ns as f64, req as f64, n as f64)
        };
    let all = |_: DefenseKind| true;
    let none_only = |k: DefenseKind| k == DefenseKind::None;
    let med = |f: &dyn Fn(&SysPass) -> f64| median(&mut traced.iter().map(f).collect::<Vec<_>>());
    m.set(
        "workloads.decode_ns_per_req",
        med(&|p| {
            let (ns, req, _) = layer(p, |l| l.decode_ns, &all);
            ratio(ns, req)
        }),
        "ns",
    );
    m.set(
        "sim.substrate_ns_per_req",
        med(&|p| {
            let (ns, req, _) = layer(p, |l| l.feed_ns + l.drain_ns, &none_only);
            ratio(ns, req)
        }),
        "ns",
    );
    m.set(
        "sim.new_ms",
        med(&|p| {
            let (ns, _, n) = layer(p, |l| l.new_ns, &all);
            ratio(ns, n) / 1e6
        }),
        "ms",
    );
    m.set(
        "snapshot.digest_ms",
        med(&|p| {
            let (ns, _, n) = layer(p, |l| l.digest_ns, &all);
            ratio(ns, n) / 1e6
        }),
        "ms",
    );

    // Each defense's cost on top of `none` on the same trace: the
    // difference of the two cells' fastest times over the untraced passes.
    let wall = |i: usize| fastest(plain.iter().flat_map(|p| &p[i]).map(|c| c.run.wall_ns));
    for &kind in kinds.iter().filter(|&&k| k != DefenseKind::None) {
        let (mut extra, mut req) = (0f64, 0f64);
        for (i, &(t, _)) in cells.iter().enumerate().filter(|(_, c)| c.1 == kind) {
            let base = cells.iter().position(|&c| c == (t, DefenseKind::None));
            if let (Some(w), Some(b)) = (wall(i), base.and_then(wall)) {
                extra += w - b;
                req += plain[0][i].as_ref().map_or(0, |c| c.run.requests) as f64;
            }
        }
        m.set(
            format!("sim.overhead_ns_per_req.{}", kind_name(kind)),
            ratio(extra, req),
            "ns",
        );
    }

    let trips: Vec<replay::RoundTrip> = traced
        .iter()
        .flatten()
        .flatten()
        .filter_map(|c| c.run.round_trip)
        .collect();
    let mean = |f: fn(&replay::RoundTrip) -> u64| {
        ratio(trips.iter().map(f).sum::<u64>() as f64, trips.len() as f64)
    };
    m.set("snapshot.save_ms", mean(|r| r.save_ns) / 1e6, "ms");
    m.set("snapshot.restore_ms", mean(|r| r.restore_ns) / 1e6, "ms");
    m.set("snapshot.bytes", mean(|r| r.bytes), "bytes");

    let pass_obs = |p: &SysPass| Obs::sum(p.iter().flatten().map(|c| &c.obs));
    let first = &plain[0];
    pass_obs(first).report(m);
    report_obs_spans(m, &plain.iter().map(pass_obs).collect::<Vec<_>>());

    let runs: Vec<&CellRun> = first.iter().flatten().map(|c| &c.run).collect();
    let requests: u64 = runs.iter().map(|r| r.requests).sum();
    let acts: u64 = runs.iter().map(|r| r.normal_acts).sum();
    m.set(
        "memctrl.row_hit_ratio",
        1.0 - ratio(acts as f64, requests as f64),
        "ratio",
    );
    let mut lat = twice_memctrl::latency::LatencyHistogram::new();
    for r in &runs {
        lat.merge(&r.latency);
    }
    report_latency(m, &lat);

    let wall = |ps: &[SysPass]| {
        median(
            &mut ps
                .iter()
                .map(|p| p.iter().flatten().map(|c| c.run.wall_ns as f64).sum())
                .collect::<Vec<f64>>(),
        )
    };
    m.set(
        "bench.trace_overhead_pct",
        100.0 * (ratio(wall(traced), wall(plain)) - 1.0),
        "%",
    );
}

// ---------------------------------------------------------------------
// defense-hooks: ACT/REF streams straight into each defense.
// ---------------------------------------------------------------------

/// What set-up leaves for `defense-hooks`: per stream, the system it was
/// derived for, the v2 traces it came from (bytes only), the stream, and
/// why every pass over it fails, if it does.
struct HookInputs {
    cfgs: Vec<SimConfig>,
    traces: Vec<Vec<TraceInput>>,
    streams: Vec<Stream>,
    problems: Vec<Option<String>>,
}

fn hook_inputs(seed: u64, cost: &mut GenCost) -> Result<HookInputs, String> {
    let cfgs = vec![SimConfig::paper_default(), SimConfig::fast_test()];
    let traces = vec![
        inputs::benign_traces(seed, inputs::BENIGN_REQUESTS, cost),
        inputs::hammer_traces(seed, inputs::HAMMER_REQUESTS, cost),
    ];
    let (mut streams, mut problems) = (Vec::new(), Vec::new());
    for ((name, cfg), set) in ["benign", "hammer"].into_iter().zip(&cfgs).zip(&traces) {
        let mut same = true;
        let decoded = set.iter().map(|t| {
            let t0 = Instant::now();
            let items = inputs::decode(t)?;
            cost.decode_ns += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            same &= t.items_hash == Some(inputs::items_hash(&items));
            Ok(items)
        });
        let stream = hooks::derive(name, cfg, decoded, true)?;
        problems.push(if same {
            hooks::guard(&stream).err()
        } else {
            Some("v2 bytes do not decode back to the generated items".into())
        });
        streams.push(stream);
    }
    Ok(HookInputs {
        cfgs,
        traces,
        streams,
        problems,
    })
}

struct HookCell {
    run: HookRun,
    obs: Obs,
    /// Why this pass failed, if it did.
    why: Option<String>,
}

type HookPass = Vec<HookCell>;

fn run_hooks(args: &Args) -> Result<Outcome, String> {
    let set = setup(|cost| {
        let inputs = hook_inputs(args.seed, cost)?;
        let hashes = inputs
            .traces
            .iter()
            .flatten()
            .map(|t| (t.name.clone(), t.hash))
            .collect();
        Ok((inputs, hashes))
    })?;
    let HookInputs {
        cfgs,
        traces,
        streams,
        problems,
    } = &set.value;
    for s in streams {
        println!(
            "stream {}: {} requests, {} ACTs, {} REFs over {} channel(s)",
            s.name,
            s.requests,
            s.acts,
            s.events() - s.acts,
            s.channels.len()
        );
    }
    let kinds = DefenseKind::verify_lineup();
    let cells: Vec<(usize, DefenseKind)> = (0..streams.len())
        .flat_map(|s| kinds.iter().map(move |&k| (s, k)))
        .collect();
    let mut refs: Vec<Option<(u64, hooks::Tally, [u64; NUM_CTRS])>> = vec![None; cells.len()];
    let mut rec = Recorder::default();

    let mut pass = |traced: bool, pass_no: u32, rec: &mut Recorder| -> HookPass {
        let mut out = Vec::with_capacity(cells.len());
        for (i, &(s, kind)) in cells.iter().enumerate() {
            let stream: &Stream = &streams[s];
            let before = obs_now();
            let run = if traced {
                hooks::run_traced(stream, kind, rec, pass_no * cells.len() as u32 + i as u32)
            } else {
                hooks::run_untraced(stream, kind)
            };
            let obs = obs_now().since(before);
            let name = kind_name(kind);
            let mut why = problems[s].clone();
            if why.is_none()
                && stream.name == "hammer"
                && MUST_HOLD.contains(&name)
                && run.tally.actions() + run.tally.detections == 0
            {
                why = Some(format!(
                    "{name} must act on the hammer stream but never did"
                ));
            }
            let now = (run.digest, run.tally, obs.counters);
            match &refs[i] {
                None => refs[i] = Some(now),
                Some(r) if *r != now && why.is_none() => {
                    why = Some("digest, actions or counters differ from an earlier pass".into())
                }
                Some(_) => {}
            }
            out.push(HookCell { run, obs, why });
        }
        out
    };
    let (plain, mut traced) = run_passes(args.seconds, args.trace, |t, n| pass(t, n, &mut rec));
    let peak_rss = host::peak_rss_mb();
    if !args.trace {
        let n = plain.len() as u32;
        traced.push(pass(true, n, &mut Recorder::default()));
    }

    // `System`'s own figures for the streams' traces, beside the streams'.
    // A replay that fails fails every pass over its stream.
    let mut system = Vec::new();
    let mut replay_failed: Vec<Option<String>> = vec![None; streams.len()];
    for (s, stream) in streams.iter().enumerate() {
        let run = match hooks::replay_system(&cfgs[s], traces[s].iter().map(inputs::decode)) {
            Ok(run) => run,
            Err(e) => {
                replay_failed[s] = Some(format!("System replay of its traces failed: {e}"));
                continue;
            }
        };
        let end = stream
            .channels
            .iter()
            .map(|c| c.end)
            .max()
            .unwrap_or_default();
        println!(
            "stream {}: {} ACTs, {} REFs, ends at {} ps ({} ACTs waited for a REF under the \
             maxact cap); System under none: {} ACTs, {} REFs, ends at {} ps",
            stream.name,
            stream.acts,
            stream.events() - stream.acts,
            end.as_ps(),
            stream.capped(),
            run.normal_acts,
            run.channels.iter().map(|c| c.1).sum::<u64>(),
            run.sim_ps
        );
        system.push(run);
    }
    let mut failures = Vec::new();
    let mut attempted = 0u64;
    for p in plain.iter().chain(&traced) {
        for (c, &(s, kind)) in p.iter().zip(&cells) {
            attempted += 1;
            if let Some(why) = c.why.as_ref().or(replay_failed[s].as_ref()) {
                failures.push(format!(
                    "{} stream x {}: {why}",
                    streams[s].name,
                    kind_name(kind)
                ));
            }
        }
    }

    let mut m = Metrics::default();
    set.report(&mut m, args.trace);
    m.set("peak_rss_mb", peak_rss, "MiB");
    let rate = |work: fn(&Stream) -> u64| {
        cell_rate(cells.iter().enumerate().map(|(i, &(s, _))| {
            (
                work(&streams[s]),
                fastest(plain.iter().map(|p| p[i].run.wall_ns)),
            )
        }))
    };
    m.set("req_per_s", rate(|s| s.requests), "1/s");
    m.set("acts_per_s", rate(|s| s.acts), "1/s");
    // The simulated figures are `System`'s own for the streams' traces.
    let sys_sum = |f: fn(&hooks::SystemRun) -> u64| system.iter().map(f).sum::<u64>() as f64;
    let sys_requests = sys_sum(|r| r.requests);
    m.set(
        "sim_ns_per_req",
        ratio(sys_sum(|r| r.sim_ps) / 1e3, sys_requests),
        "ns",
    );
    let first = &plain[0];
    let added: u64 = first.iter().map(|c| c.run.tally.added_acts()).sum();
    let acts: u64 = cells.iter().map(|&(s, _)| streams[s].acts).sum();
    m.set(
        "added_acts_ppm",
        1e6 * ratio(added as f64, acts as f64),
        "ppm",
    );

    if args.trace {
        for (i, &(s, kind)) in cells.iter().enumerate() {
            let stream = &streams[s];
            let wall = fastest(plain.iter().map(|p| p[i].run.wall_ns)).unwrap_or(0.0);
            let key = format!("defense.{}.{}_ns_per_act", kind_name(kind), stream.name);
            m.set(key, ratio(wall, stream.acts as f64), "ns");
            if stream.name == "hammer" {
                let actions = first[i].run.tally.actions() as f64;
                m.set(
                    format!("defense.{}.actions_per_mact", kind_name(kind)),
                    1e6 * ratio(actions, stream.acts as f64),
                    "count",
                );
            }
        }
        let pass_obs = |p: &HookPass| Obs::sum(p.iter().map(|c| &c.obs));
        pass_obs(first).report(&mut m);
        report_obs_spans(&mut m, &plain.iter().map(pass_obs).collect::<Vec<_>>());
        m.set(
            "memctrl.row_hit_ratio",
            1.0 - ratio(sys_sum(|r| r.normal_acts), sys_requests),
            "ratio",
        );
        let mut lat = twice_memctrl::latency::LatencyHistogram::new();
        for r in &system {
            lat.merge(&r.latency);
        }
        report_latency(&mut m, &lat);
        let wall = |ps: &[HookPass]| {
            median(
                &mut ps
                    .iter()
                    .map(|p| p.iter().map(|c| c.run.wall_ns as f64).sum())
                    .collect::<Vec<f64>>(),
            )
        };
        m.set(
            "bench.trace_overhead_pct",
            100.0 * (ratio(wall(&traced), wall(&plain)) - 1.0),
            "%",
        );
        report_self_times(&mut m, &rec);
        write_spans(args, &rec);
    }
    Ok(Outcome {
        metrics: m,
        attempted,
        failures,
    })
}
