//! Criterion wrappers around representative evaluation figures.
//!
//! The full sweeps (every MPL, every isolation level, every figure) are run
//! by the `experiments` binary; `cargo bench` would take far too long if it
//! repeated all of them with Criterion's statistical repetitions. Instead
//! this bench measures one representative point per workload family —
//! throughput at a moderate MPL for SI, SSI and S2PL — so regressions in the
//! concurrent behaviour still show up in `cargo bench` output.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use ssi_bench::{build_workload, find_experiment, options_for, HarnessConfig, LogDir};
use ssi_common::IsolationLevel;
use ssi_core::Database;
use ssi_workloads::driver::{run_workload, RunConfig};

/// Measures committed transactions (as Criterion "elements") for a short run
/// of the given figure at the given MPL.
fn bench_figure_point(c: &mut Criterion, id: &str, mpl: usize) {
    let def = find_experiment(id).unwrap_or_else(|| panic!("unknown experiment {id}"));
    let harness = HarnessConfig::default();
    let mut group = c.benchmark_group(format!("{id}_mpl{mpl}"));
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));
    for isolation in IsolationLevel::evaluated() {
        let log_dir = LogDir::new(id);
        let db = Database::open(options_for(&def.spec, isolation, log_dir.path()));
        let workload = build_workload(&def.spec, &db, &harness);
        group.throughput(Throughput::Elements(1));
        group.bench_function(BenchmarkId::from_parameter(isolation.label()), |b| {
            b.iter_custom(|_iters| {
                let stats = run_workload(
                    &db,
                    workload.as_ref(),
                    &RunConfig {
                        mpl,
                        warmup: Duration::from_millis(50),
                        duration: Duration::from_millis(200),
                        seed: 1,
                    },
                );
                // Report time-per-commit so Criterion's numbers are
                // comparable across isolation levels.
                if stats.commits == 0 {
                    Duration::from_millis(200)
                } else {
                    Duration::from_millis(200) / stats.commits as u32
                }
            })
        });
    }
    group.finish();
}

fn bench_smallbank_figure(c: &mut Criterion) {
    bench_figure_point(c, "fig6_1", 8);
}

fn bench_sibench_figure(c: &mut Criterion) {
    bench_figure_point(c, "fig6_7", 8);
}

fn bench_tpcc_figure(c: &mut Criterion) {
    bench_figure_point(c, "fig6_15", 8);
}

criterion_group!(
    benches,
    bench_smallbank_figure,
    bench_sibench_figure,
    bench_tpcc_figure
);
criterion_main!(benches);
