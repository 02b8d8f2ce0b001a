//! Criterion benches of the tiling strategies (planning cost).

use autogemm_arch::ChipSpec;
use autogemm_kernelgen::{tiles, MicroTile};
use autogemm_perfmodel::ModelOpts;
use autogemm_tiling::{plan_dmt, plan_libxsmm, plan_openblas};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_tiling(c: &mut Criterion) {
    let chip = ChipSpec::graviton2();
    let opts = ModelOpts { rotate: true, fused: true };
    let menu = tiles::table_menu(chip.sigma_lane());
    let mut group = c.benchmark_group("tiling");
    for (m, n) in [(26usize, 36usize), (64, 112), (128, 256)] {
        let name = format!("{m}x{n}");
        group.bench_with_input(BenchmarkId::new("dmt", &name), &(m, n), |bch, _| {
            bch.iter(|| plan_dmt(black_box(m), n, 64, &chip, opts, &menu));
        });
        group.bench_with_input(BenchmarkId::new("libxsmm", &name), &(m, n), |bch, _| {
            bch.iter(|| plan_libxsmm(black_box(m), n, MicroTile::new(5, 16), 4));
        });
        group.bench_with_input(BenchmarkId::new("openblas", &name), &(m, n), |bch, _| {
            bch.iter(|| plan_openblas(black_box(m), n, MicroTile::new(5, 16)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tiling);
criterion_main!(benches);
