//! Experiment T3: regenerates Table 3 (timing and energy of TWiCe and
//! DRAM operations) from the calibrated 45 nm model, then measures the
//! *software* analogs of the same operations — one ACT count and one
//! table update for each organization — so the rows the paper measured
//! in SPICE have a tracked counterpart here.

use criterion::{black_box, BatchSize, Criterion};
use twice::soa::{SoaFa, SoaPa};
use twice::table::CounterTable;
use twice::{CapacityBound, TwiceParams};
use twice_bench::print_experiment;
use twice_common::{DdrTimings, RowId};
use twice_sim::experiments::table3::table3;

fn filled_fa(params: &TwiceParams, bound: &CapacityBound) -> SoaFa {
    let mut t = SoaFa::new(bound.total(), params.th_pi(), params.th_rh);
    for i in 0..400u32 {
        t.record_act(RowId(i * 31));
    }
    t
}

fn filled_pa(params: &TwiceParams, bound: &CapacityBound) -> SoaPa {
    let mut t = SoaPa::with_capacity_64way(bound.total(), params.th_pi(), params.th_rh);
    for i in 0..400u32 {
        t.record_act(RowId(i * 31));
    }
    t
}

fn main() {
    let model = twice::cost::TwiceCostModel::table3_45nm();
    print_experiment(
        "Table 3: timing & energy",
        &table3(&model, &DdrTimings::ddr4_2400()),
    );

    let params = TwiceParams::paper_default();
    let bound = CapacityBound::for_params(&params);
    let mut c = Criterion::default().configure_from_args();

    c.bench_function("table3/fa_act_count_hit", |b| {
        let mut t = filled_fa(&params, &bound);
        b.iter(|| t.record_act(black_box(RowId(31))))
    });
    c.bench_function("table3/pa_act_count_preferred_hit", |b| {
        let mut t = filled_pa(&params, &bound);
        b.iter(|| t.record_act(black_box(RowId(31))))
    });
    c.bench_function("table3/fa_table_update_prune", |b| {
        b.iter_batched(
            || filled_fa(&params, &bound),
            |mut t| t.prune(black_box(4)),
            BatchSize::SmallInput,
        )
    });
    c.bench_function("table3/pa_table_update_prune", |b| {
        b.iter_batched(
            || filled_pa(&params, &bound),
            |mut t| t.prune(black_box(4)),
            BatchSize::SmallInput,
        )
    });
    c.final_summary();
}
