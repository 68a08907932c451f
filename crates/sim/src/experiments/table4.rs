//! Table 4: the simulated-system configuration.

use crate::config::SimConfig;
use crate::report::Table;
use twice_memctrl::scheduler::SchedulerKind;

/// Renders the system configuration in Table 4's shape.
pub fn table4(cfg: &SimConfig) -> Table {
    let mut t = Table::new(
        "Table 4: parameters of the simulated system",
        &["resource", "value"],
    );
    let topo = &cfg.topology;
    let scheduler = match cfg.scheduler {
        SchedulerKind::ParBs => "PAR-BS",
    };
    let rows: Vec<(&str, String)> = vec![
        ("memory channels / MCs", topo.channels.to_string()),
        ("ranks per channel", topo.ranks_per_channel.to_string()),
        ("banks per rank", topo.banks_per_rank.to_string()),
        ("rows per bank", topo.rows_per_bank.to_string()),
        ("row size", format!("{} B", topo.row_bytes)),
        (
            "total capacity",
            format!("{} GiB", topo.capacity_bytes() >> 30),
        ),
        ("module type", "DDR4-2400 (RDIMM, RCD per DIMM)".to_string()),
        ("request queue", format!("{} entries", cfg.queue_capacity)),
        ("scheduling policy", scheduler.to_string()),
        ("DRAM page policy", format!("{:?}", cfg.page_policy)),
        ("RH threshold N_th", cfg.fault_n_th.to_string()),
        ("TWiCe thRH", cfg.params.th_rh.to_string()),
    ];
    for (k, v) in rows {
        t.row(&[k.to_string(), v]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_system_matches_table4() {
        let t = table4(&SimConfig::paper_default());
        assert_eq!(
            t.to_string(),
            "\
## Table 4: parameters of the simulated system
| resource              | value                           |
| --------------------- | ------------------------------- |
| memory channels / MCs | 2                               |
| ranks per channel     | 2                               |
| banks per rank        | 16                              |
| rows per bank         | 131072                          |
| row size              | 8192 B                          |
| total capacity        | 64 GiB                          |
| module type           | DDR4-2400 (RDIMM, RCD per DIMM) |
| request queue         | 64 entries                      |
| scheduling policy     | PAR-BS                          |
| DRAM page policy      | MinimalistOpen { max_hits: 4 }  |
| RH threshold N_th     | 139000                          |
| TWiCe thRH            | 32768                           |
"
        );
    }
}
