//! Experiment A1: pa-TWiCe vs fa-TWiCe — preferred-set behavior and
//! modeled energy on benign and attack row streams, plus a head-to-head
//! software benchmark of the two organizations.

use criterion::{black_box, Criterion};
use twice::soa::{SoaFa, SoaPa};
use twice::table::CounterTable;
use twice::{CapacityBound, TwiceParams};
use twice_bench::{paper_cfg, print_experiment};
use twice_common::RowId;
use twice_sim::experiments::ablation::pa_vs_fa;
use twice_sim::runner::WorkloadKind;

fn main() {
    let cfg = paper_cfg();
    for w in [WorkloadKind::S1, WorkloadKind::S3, WorkloadKind::MixHigh] {
        let label = w.to_string();
        let r = pa_vs_fa(&cfg, w, 100_000);
        print_experiment(&format!("A1: pa vs fa on {label}"), &r.table);
        assert!(r.pa_energy_pj <= r.fa_energy_pj, "{label}");
    }

    let params = TwiceParams::paper_default();
    let bound = CapacityBound::for_params(&params);
    let (th_pi, th_rh) = (params.th_pi(), params.th_rh);
    let mut c = Criterion::default().configure_from_args();
    c.bench_function("a1/fa_record_act", |b| {
        let mut t = SoaFa::new(bound.total(), th_pi, th_rh);
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % 200;
            t.record_act(black_box(RowId(i)))
        })
    });
    c.bench_function("a1/pa_record_act", |b| {
        let mut t = SoaPa::with_capacity_64way(bound.total(), th_pi, th_rh);
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % 200;
            t.record_act(black_box(RowId(i)))
        })
    });
    c.final_summary();
}
