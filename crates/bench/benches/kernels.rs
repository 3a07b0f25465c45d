//! Criterion microbenchmarks of the analysis kernels: the in-situ stages
//! (render, down-sample, learn, subtree) and the in-transit stages
//! (coarse render, streaming glue, derive) on a fixed proxy block.

use criterion::{criterion_group, criterion_main, Criterion};
use sitra_core::analysis::{Analysis, HybridTopology};
use sitra_core::wire::{encode_analysis_output, encode_subtree};
use sitra_mesh::{downsample, exchange_ghosts, BBox3, Decomposition, SampledBlock, ScalarField};
use sitra_sim::{SimConfig, Simulation, Variable};
use sitra_stats::MultiModel;
use sitra_topology::distributed::{glue_subtrees, in_situ_subtrees, BoundaryPolicy};
use sitra_topology::{Connectivity, Subtree};
use sitra_viz::{render_block, HybridRenderer, TransferFunction, View, ViewAxis};
use std::hint::black_box;

const DIMS: [usize; 3] = [48, 48, 48];

/// Temperature over the whole `dims` domain after three proxy steps.
fn temperature(dims: [usize; 3]) -> ScalarField {
    let mut sim = Simulation::new(SimConfig::small(dims, 42));
    for _ in 0..3 {
        sim.advance();
    }
    sim.block_field(Variable::Temperature, &sim.global())
}

fn fixture() -> (ScalarField, TransferFunction) {
    let f = temperature(DIMS);
    let (mn, mx) = f.min_max().unwrap();
    (f, TransferFunction::hot(mn, mx))
}

/// Every rank's subtree of `field` over a `parts` rank grid.
fn subtrees(field: &ScalarField, parts: [usize; 3]) -> Vec<Subtree> {
    let d = Decomposition::new(field.bbox(), parts);
    let blocks: Vec<ScalarField> = (0..d.rank_count())
        .map(|r| field.extract(&d.block(r)))
        .collect();
    let (ghosted, _) = exchange_ghosts(&d, &blocks, 1);
    in_situ_subtrees(
        &d,
        &ghosted,
        Connectivity::Six,
        BoundaryPolicy::BoundaryMaxima,
    )
}

/// `field` split over a `parts` rank grid, each block down-sampled by `stride`.
fn blocks_of(field: &ScalarField, parts: [usize; 3], stride: usize) -> Vec<SampledBlock> {
    let d = Decomposition::new(field.bbox(), parts);
    (0..d.rank_count())
        .map(|r| downsample(&field.extract(&d.block(r)), stride))
        .collect()
}

fn bench_insitu(c: &mut Criterion) {
    let (field, tf) = fixture();
    let g = field.bbox();
    let view = View::full_res(g, ViewAxis::Z, false);
    let mut group = c.benchmark_group("insitu");
    group.sample_size(10);
    group.bench_function("render_48cube", |b| {
        b.iter(|| black_box(render_block(&field, &g, &view, &tf)))
    });
    group.bench_function("downsample_48cube_s8", |b| {
        b.iter(|| black_box(downsample(&field, 8)))
    });
    group.bench_function("stats_learn_48cube", |b| {
        b.iter(|| black_box(MultiModel::learn(&[("T", field.as_slice())])))
    });
    let d = Decomposition::new(g, [2, 2, 2]);
    let blocks: Vec<ScalarField> = (0..8).map(|r| field.extract(&d.block(r))).collect();
    let (ghosted, _) = exchange_ghosts(&d, &blocks, 1);
    group.bench_function("topo_subtree_24cube", |b| {
        b.iter(|| {
            black_box(sitra_topology::distributed::rank_subtree(
                &d,
                0,
                &ghosted[0],
                Connectivity::Six,
                BoundaryPolicy::BoundaryMaxima,
            ))
        })
    });
    // The `e2e` `topo-local` shape: 48³ over 2×2×1 ranks, so rank 0's
    // ghosted block is 25×25×48.
    let d = Decomposition::new(g, [2, 2, 1]);
    let blocks: Vec<ScalarField> = (0..4).map(|r| field.extract(&d.block(r))).collect();
    let (ghosted, _) = exchange_ghosts(&d, &blocks, 1);
    group.bench_function("topo_subtree_48cube_2x2x1", |b| {
        b.iter(|| {
            black_box(sitra_topology::distributed::rank_subtree(
                &d,
                0,
                &ghosted[0],
                Connectivity::Six,
                BoundaryPolicy::BoundaryMaxima,
            ))
        })
    });
    group.finish();
}

fn bench_intransit(c: &mut Criterion) {
    let (field, tf) = fixture();
    let g = field.bbox();
    let subs = subtrees(&field, [2, 2, 2]);
    let coarse = blocks_of(&field, [2, 2, 2], 4);
    let view = View::full_res(g, ViewAxis::Z, false);

    let mut group = c.benchmark_group("intransit");
    group.sample_size(10);
    group.bench_function("topo_glue_8_subtrees", |b| {
        b.iter(|| black_box(glue_subtrees(&subs)))
    });
    // The glue alone as the rank count grows: the `e2e` `topo-local`
    // shape, then 16³ blocks per rank at 64 and 512 ranks.
    for (n, [px, py, pz]) in [(48, [2, 2, 1]), (64, [4, 4, 4]), (128, [8, 8, 8])] {
        let subs = subtrees(&temperature([n; 3]), [px, py, pz]);
        group.bench_function(&format!("topo_glue_{n}cube_{px}x{py}x{pz}"), |b| {
            b.iter(|| black_box(glue_subtrees(&subs)))
        });
    }
    // The whole in-transit topology task at the `topo-local` shape:
    // decode the four encoded parts, glue, canonical tree, encode the
    // output (the glue rows above start from decoded subtrees and stop
    // at the `MergeTree`).
    let parts: Vec<_> = subtrees(&field, [2, 2, 1])
        .iter()
        .map(encode_subtree)
        .collect();
    group.bench_function("topo_aggregate_48cube_2x2x1", |b| {
        b.iter(|| {
            let mut agg = HybridTopology::default()
                .streaming_aggregator(0)
                .expect("topology streams");
            for (rank, part) in parts.iter().enumerate() {
                agg.feed(rank, part.clone());
            }
            black_box(encode_analysis_output(&agg.finish()))
        })
    });
    group.bench_function("hybrid_render_s4", |b| {
        let hr = HybridRenderer::new(coarse.clone());
        b.iter(|| black_box(hr.render(&view, &tf)))
    });
    // The `e2e` `viz-cluster3` shape: 40³, 2×2×1 ranks, stride 2.
    group.bench_function("hybrid_render_40cube_2x2x1_s2", |b| {
        let field = field.extract(&BBox3::from_dims([40; 3]));
        let hr = HybridRenderer::new(blocks_of(&field, [2, 2, 1], 2));
        let view = View::full_res(field.bbox(), ViewAxis::Z, false);
        b.iter(|| black_box(hr.render(&view, &tf)))
    });
    // The rank count grows, the block does not: 8³ blocks at stride 2 on
    // an 8×8×8 grid and on the paper's 4,480 ranks (16×28×10), the
    // proxy temperature tiled across the domain. Rays along z cross 8
    // and 10 blocks.
    for grid in [[8, 8, 8], [16, 28, 10]] {
        let dims = grid.map(|g| 8 * g);
        let tiled = ScalarField::from_fn(BBox3::from_dims(dims), |p| {
            field.get([p[0] % DIMS[0], p[1] % DIMS[1], p[2] % DIMS[2]])
        });
        let blocks = blocks_of(&tiled, grid, 2);
        let n = blocks.len();
        let hr = HybridRenderer::new(blocks);
        let view = View::full_res(tiled.bbox(), ViewAxis::Z, false);
        group.bench_function(&format!("hybrid_render_{n}_blocks"), |b| {
            b.iter(|| black_box(hr.render(&view, &tf)))
        });
    }
    let model = MultiModel::learn(
        &sitra_sim::ALL_VARIABLES
            .iter()
            .map(|v| (v.name(), field.as_slice()))
            .collect::<Vec<_>>(),
    );
    group.bench_function("stats_merge_derive_4480", |b| {
        // Merge 4480 partial models (the paper's rank count) + derive.
        b.iter(|| {
            let mut acc = MultiModel::default();
            for _ in 0..4480 {
                acc.merge(black_box(&model));
            }
            black_box(
                acc.vars
                    .iter()
                    .map(|(_, m)| sitra_stats::derive(m).unwrap())
                    .collect::<Vec<_>>(),
            )
        })
    });
    group.finish();
}

fn bench_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation");
    group.sample_size(10);
    group.bench_function("proxy_step_48cube", |b| {
        let mut sim = Simulation::new(SimConfig::small(DIMS, 7));
        let g = sim.global();
        b.iter(|| {
            sim.advance();
            black_box(sim.block_field(Variable::Temperature, &g))
        })
    });
    // The `e2e` `topo-local` shape: one step's Temperature over the four
    // rank blocks of 48³ at 2×2×1, one block after another.
    group.bench_function("blocks_48cube_2x2x1", |b| {
        let mut sim = Simulation::new(SimConfig::small(DIMS, 1));
        let d = Decomposition::new(sim.global(), [2, 2, 1]);
        b.iter(|| {
            sim.advance();
            for r in 0..d.rank_count() {
                black_box(sim.block_field(Variable::Temperature, &d.block(r)));
            }
        })
    });
    // Every variable, so the pressure, velocity and species branches are
    // timed too.
    group.bench_function("all_variables_32cube", |b| {
        let mut sim = Simulation::new(SimConfig::small([32; 3], 7));
        let g = sim.global();
        b.iter(|| {
            sim.advance();
            for var in sitra_sim::ALL_VARIABLES {
                black_box(sim.block_field(var, &g));
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_insitu, bench_intransit, bench_sim);
criterion_main!(benches);
