//! The benchmark's metric names and units, in the order they print.
//! `BENCHMARK.json` at the repository root lists the same names; a test
//! keeps the two in step.

use twice_mitigations::DefenseKind;

/// What users of the simulator see (measured with tracing off).
pub fn end_to_end() -> Vec<(String, &'static str)> {
    [
        ("req_per_s", "1/s"),
        ("acts_per_s", "1/s"),
        ("setup_s", "s"),
        ("peak_rss_mb", "MiB"),
        ("sim_ns_per_req", "ns"),
        ("added_acts_ppm", "ppm"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect()
}

/// One layer each (measured in the traced run). A workload that does
/// not exercise a layer reports 0 for it.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let kinds: Vec<&str> = DefenseKind::verify_lineup()
        .into_iter()
        .map(|k| k.cli_name().expect("lineup kinds all have CLI names"))
        .collect();
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut push = |n: String, u: &'static str| out.push((n, u));
    for n in [
        "workloads.gen_ns_per_req",
        "workloads.encode_ns_per_req",
        "workloads.decode_ns_per_req",
        "sim.substrate_ns_per_req",
    ] {
        push(n.into(), "ns");
    }
    for k in kinds.iter().filter(|&&k| k != "none") {
        push(format!("sim.overhead_ns_per_req.{k}"), "ns");
    }
    for n in [
        "sim.new_ms",
        "snapshot.digest_ms",
        "snapshot.save_ms",
        "snapshot.restore_ms",
    ] {
        push(n.into(), "ms");
    }
    push("snapshot.bytes".into(), "bytes");
    for k in &kinds {
        push(format!("defense.{k}.benign_ns_per_act"), "ns");
        push(format!("defense.{k}.hammer_ns_per_act"), "ns");
        push(format!("defense.{k}.actions_per_mact"), "count");
    }
    for n in [
        "memctrl.requests",
        "memctrl.cmd_retries",
        "dram.bank_transitions",
        "dram.refresh_stalls",
        "dram.nacks_arr",
        "core.acts",
        "core.arrs",
        "core.prune_passes",
        "core.pruned_entries",
        "core.pa_set_probes",
    ] {
        push(n.into(), "count");
    }
    for n in ["core.prune_ns", "dram.refresh_ns", "memctrl.drain_ns"] {
        push(n.into(), "ns");
    }
    push("memctrl.row_hit_ratio".into(), "ratio");
    push("memctrl.sim_latency_mean_ns".into(), "ns");
    push("memctrl.sim_latency_p99_ns".into(), "ns");
    for n in [
        "decode",
        "system_new",
        "feed",
        "drain",
        "digest",
        "make_defense",
        "on_activate",
        "on_auto_refresh",
        "digest_state",
    ] {
        push(format!("layer.{n}_pct"), "%");
    }
    push("bench.unattributed_pct".into(), "%");
    push("bench.trace_overhead_pct".into(), "%");
    push("bench.timer_ns".into(), "ns");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names listed under `key` in the repository's `BENCHMARK.json`.
    fn listed(key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside layerbench/");
        let start = text.find(&format!("\"{key}\"")).expect("key present");
        let section = &text[start..];
        let section = &section[..section.find(']').expect("list closes")];
        section
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("quoted")].to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_every_metric_in_order() {
        let names = |v: Vec<(String, &str)>| v.into_iter().map(|p| p.0).collect::<Vec<_>>();
        assert_eq!(listed("end_to_end"), names(end_to_end()));
        assert_eq!(listed("per_layer"), names(per_layer()));
    }

    #[test]
    fn names_and_units_fit_the_result_format() {
        let all = end_to_end()
            .into_iter()
            .chain(per_layer())
            .collect::<Vec<_>>();
        for (name, unit) in &all {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(unit.len() <= 16, "{unit}");
        }
        let mut sorted: Vec<&String> = all.iter().map(|p| &p.0).collect();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "names are unique");
        assert!(per_layer().len() <= 128);
    }
}
