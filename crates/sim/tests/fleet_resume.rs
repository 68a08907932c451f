//! Fleet kill-and-resume: the supervised fleet runtime (DESIGN.md §5g)
//! must survive a mid-stream kill and converge to the pristine run's
//! per-shard digests — even when the resume is launched under a
//! *different* device-fault seed, because the journal's meta line wins
//! over the caller's knobs. Mirrors `storage_torture.rs` for the fleet.

use std::collections::BTreeMap;
use twice_sim::fleet::{run_fleet, FleetConfig, FleetReport, FLEET_JOURNAL_FILE};
use twice_sim::journal::parse_line;
use twice_sim::outcome::CellError;

const SHARDS: usize = 24;
const REQUESTS: u64 = 300;
const EPOCH: u64 = 128;
const DEVICE_SEED: u64 = 0xD5;
const DEAD: usize = 2;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("twice-fleet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn base_config(dir: Option<&std::path::Path>) -> FleetConfig {
    let mut fc = FleetConfig::new(SHARDS);
    fc.requests = REQUESTS;
    fc.epoch = EPOCH;
    fc.device_faults = Some(DEVICE_SEED);
    fc.dead_shards = DEAD;
    fc.retries = 2;
    fc.telemetry_every = 4;
    fc.dir = dir.map(|d| d.to_path_buf());
    fc
}

/// Completed shards as `index → digest`; quarantined shards as the set
/// of indices. Together they describe the run's converged state.
fn partition(report: &FleetReport) -> (BTreeMap<usize, u64>, Vec<usize>) {
    let mut digests = BTreeMap::new();
    let mut quarantined = Vec::new();
    for shard in &report.shards {
        match &shard.result {
            Ok(stats) => {
                digests.insert(shard.index, stats.digest);
            }
            Err(CellError::Quarantined { .. }) => quarantined.push(shard.index),
            Err(other) => panic!("shard {} ended abnormally: {other}", shard.index),
        }
    }
    (digests, quarantined)
}

#[test]
fn kill_and_resume_under_a_different_device_seed_reproduces_the_fleet() {
    // The pristine reference: one uninterrupted 4-worker run.
    let ref_dir = temp_dir("ref");
    let mut fc = base_config(Some(&ref_dir));
    fc.jobs = 4;
    let pristine = run_fleet(&fc).expect("pristine fleet");
    let (want_digests, want_quarantined) = partition(&pristine);
    assert_eq!(want_quarantined.len(), DEAD, "sabotage must quarantine");
    assert!(
        pristine.summary.device_faults > 0,
        "the device fault plan must actually fire"
    );

    // Leg 1: same fleet, killed mid-stream after a handful of fresh
    // completions. The journal and epoch checkpoints stay behind.
    let dir = temp_dir("killed");
    let mut fc = base_config(Some(&dir));
    fc.jobs = 4;
    fc.halt_after = Some(5);
    let halted = run_fleet(&fc).expect("halted fleet");
    assert!(halted.halted, "the crash simulation must trigger");
    assert!(
        dir.join(FLEET_JOURNAL_FILE).exists(),
        "the kill must leave a journal to resume from"
    );

    // Leg 2: resume under a *different* device-fault seed and attacker
    // count. The meta line recorded by leg 1 must win over both, so the
    // resumed fleet still converges to the pristine digests.
    let mut fc = base_config(Some(&dir));
    fc.jobs = 4;
    fc.resume = true;
    fc.device_faults = Some(0xBAD_CAFE);
    fc.attackers = 5;
    let resumed = run_fleet(&fc).expect("resumed fleet");
    let (got_digests, got_quarantined) = partition(&resumed);

    assert!(!resumed.halted);
    assert!(resumed.salvaged > 0, "leg 2 must trust leg 1's journal");
    assert_eq!(
        got_quarantined, want_quarantined,
        "sabotage is part of the recorded fleet shape: the same shards quarantine"
    );
    assert_eq!(
        got_digests, want_digests,
        "every unquarantined shard must reproduce the pristine digest byte-for-byte"
    );
    // The backpressure drop-counter depends on consumer timing; every
    // other aggregate must converge exactly.
    let mut got_summary = resumed.summary.clone();
    let mut want_summary = pristine.summary.clone();
    got_summary.telemetry_coalesced = 0;
    want_summary.telemetry_coalesced = 0;
    assert_eq!(got_summary, want_summary, "the aggregates converge too");

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn same_seed_runs_stream_identical_telemetry_modulo_drop_counters() {
    // Two independent runs of the same fleet, different worker counts:
    // every telemetry row must agree on every field except the
    // backpressure drop-counter (and the CRC that seals it).
    let run = |jobs: usize| {
        let mut fc = base_config(None);
        fc.jobs = jobs;
        run_fleet(&fc).expect("telemetry fleet")
    };
    let a = run(1);
    let b = run(4);
    assert!(!a.telemetry.is_empty(), "the fleet must stream telemetry");
    assert_eq!(a.telemetry.len(), b.telemetry.len());
    for (row_a, row_b) in a.telemetry.iter().zip(&b.telemetry) {
        let strip = |row: &str| {
            let mut map = parse_line(row).expect("telemetry rows are flat JSON");
            map.remove("coalesced");
            map.remove("crc");
            map
        };
        assert_eq!(
            strip(row_a),
            strip(row_b),
            "rows diverged:\n{row_a}\n{row_b}"
        );
    }
}
