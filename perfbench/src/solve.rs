//! `solve_dram` and `solve_ranked`: the hemodynamic simulation itself.
//!
//! Both pin the kernel (HARVEY AB/AoS f64, natural traversal, vector
//! path, `KernelSelect::Fixed`): the autotuner's timing-driven pick would
//! change which kernel runs from one run to the next.

use crate::harness::{self, Args, Outcome, Perturb};
use crate::reference::{self, Sample};
use crate::trace::Tracer;
use hemocloud_decomp::halo::DecompAnalysis;
use hemocloud_decomp::rcb::RcbPartition;
use hemocloud_geometry::anatomy::AortaSpec;
use hemocloud_geometry::stats::GeometryStats;
use hemocloud_lbm::access_profile::average_solid_links;
use hemocloud_lbm::ranked::{RankAssignment, RankedSolver};
use hemocloud_lbm::{
    AccessProfile, FluidMesh, KernelConfig, KernelSelect, SimdPath, Solver, SolverConfig,
    TraversalConfig,
};
use hemocloud_microbench::stream::{stream_kernel, StreamKernel};
use hemocloud_rt::rng::Rng;

/// Aorta resolution of `solve_dram`: 1.8M fluid cells whose AB f64
/// distribution arrays (2 × 19 × 8 B per cell, 520 MiB) are five times
/// the 105 MiB L3 of the reference host.
const DRAM_RESOLUTION: usize = 68;
/// Aorta resolution of `solve_ranked`: 125k fluid cells, about 64 MiB
/// resident (two distribution arrays, the halo snapshot and the
/// neighbour table), so the ranked step runs from L3.
const RANKED_RESOLUTION: usize = 28;
/// RCB ranks of `solve_ranked`.
const RANKS: usize = 8;
/// Set-ups per run; `setup_s` is their median.
const DRAM_SETUPS: usize = 3;
const RANKED_SETUPS: usize = 15;
/// Steps each set-up takes before timing: the pool is up and every
/// array has been written once.
const WARMUP_STEPS: usize = 2;
/// Steps a fresh solver takes before the output checks. The checks run
/// on a solver of their own, so their verdict depends on the seed and
/// the code, not on how many steps the timed phase fitted in.
const CHECK_STEPS: usize = 20;
/// Cells checked against the reference BGK update.
const SAMPLE_CELLS: usize = 4096;
/// Field bounds after the check steps, as multiples of the inlet peak
/// speed `u_max`: interior density within `RHO_FACTOR × u_max` of 1 (the
/// pressure drop that drives the flow), and speed at most
/// `SPEED_FACTOR × u_max`.
const RHO_FACTOR: f64 = 5.0;
const SPEED_FACTOR: f64 = 3.0;
/// STREAM Triad array length: three 448 MiB arrays, each over four
/// times the reference host's L3.
const TRIAD_ELEMENTS: usize = 56 << 20;
/// Steps timed with one worker for the pool-speedup row.
const ONE_WORKER_STEPS: usize = 3;

/// The solver configuration; the seed varies the physics (relaxation
/// time and inlet speed), not the work per step.
fn config(seed: u64) -> SolverConfig {
    let mut rng = Rng::new(seed ^ 0x5017_e5ee);
    SolverConfig {
        tau: rng.range_f64(0.7, 0.9),
        u_max: rng.range_f64(0.03, 0.06),
        parallel: true,
        kernel: KernelConfig::harvey(),
        traversal: TraversalConfig::natural(),
        simd: SimdPath::Vector,
        select: KernelSelect::Fixed,
        ..SolverConfig::default()
    }
}

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1u64 << 20) as f64
}

/// Draw the seeded check sample and its reference rows one BGK step on
/// from `before`; the caller then steps the solver and calls
/// [`check_physics`].
fn expect_step(
    args: &Args,
    mesh: &FluidMesh,
    cfg: &SolverConfig,
    before: &[f64],
) -> (Sample, Vec<[f64; 19]>) {
    let mut rng = Rng::new(args.seed ^ 0xc4ec_5a3b);
    let sample = Sample::draw(mesh, &mut rng, SAMPLE_CELLS);
    let expected = sample.expected_rows(before, 1.0 / cfg.tau);
    (sample, expected)
}

/// The sampled rows of `after` against the reference update, then the
/// field bounds over every cell.
fn check_physics(
    out: &mut Outcome,
    args: &Args,
    what: &str,
    mesh: &FluidMesh,
    cfg: &SolverConfig,
    (sample, expected): &(Sample, Vec<[f64; 19]>),
    after: &[f64],
) {
    let mut got = sample.read_rows(after);
    if args.perturb == Perturb::Distribution {
        got[0][1] *= 1.0 + 1e-9;
    }
    let err = reference::max_abs_diff(expected, &got);
    out.check(
        sample.len() == SAMPLE_CELLS && err <= reference::TOLERANCE,
        || {
            format!(
            "{what}: reference BGK update differs by {err:e} on {} sampled cells (tolerance {:e})",
            sample.len(),
            reference::TOLERANCE
        )
        },
    );
    let s = reference::field_stats(after, mesh);
    out.check(s.nonfinite == 0, || {
        format!("{what}: {} non-finite distributions", s.nonfinite)
    });
    let band = RHO_FACTOR * cfg.u_max;
    out.check(s.rho_min >= 1.0 - band && s.rho_max <= 1.0 + band, || {
        let c = s.worst_cell;
        format!(
            "{what}: density {}..{} outside 1 ± {band}; worst at cell {c} ({:?} at {:?})",
            s.rho_min,
            s.rho_max,
            mesh.cell_type(c),
            mesh.coords(c)
        )
    });
    out.check(s.speed_max <= SPEED_FACTOR * cfg.u_max, || {
        format!(
            "{what}: speed {} above {SPEED_FACTOR} × u_max {}",
            s.speed_max, cfg.u_max
        )
    });
    eprintln!(
        "{what}: reference error {err:e}, interior density {:.5}..{:.5}, boundary density min {:.5}, speed max {:.4} (u_max {:.4})",
        s.rho_min, s.rho_max, s.boundary_rho_min, s.speed_max, cfg.u_max
    );
}

pub fn solve_dram(args: &Args, tracer: &Tracer, out: &mut Outcome) {
    let cfg = config(args.seed);
    let grid = || {
        AortaSpec::default()
            .with_resolution(DRAM_RESOLUTION)
            .build()
    };
    let (mut solver, setups) = harness::repeated_setup(DRAM_SETUPS, || {
        tracer.span("solve_dram.setup", || {
            let grid = tracer.span("geometry.build", grid);
            let mesh = tracer.span("lbm.mesh_build", || FluidMesh::build(&grid));
            drop(grid);
            let mut s = tracer.span("lbm.solver_new", || Solver::new(mesh, cfg));
            tracer.span("lbm.warmup", || (0..WARMUP_STEPS).for_each(|_| s.step()));
            s
        })
    });
    let cells = solver.mesh().len();
    eprintln!(
        "solve_dram: {cells} cells, {:.0} MiB distributions, simd {}, {} pool threads",
        mib(solver.distribution_bytes()),
        solver.simd_label(),
        hemocloud_rt::pool::global().threads()
    );
    let timed = harness::timed_phase(args, tracer, "solve_dram.op", || {
        tracer.span("lbm.step", || solver.step());
        true
    });
    let rss = harness::peak_rss_mib();
    timed.count_into(out);
    let mut achieved_gb_s = None;
    if tracer.enabled() {
        let totals = tracer.totals();
        let m = |name: &str| harness::self_mean_s(&totals, name);
        out.metric("solve_dram.geometry.build_s", m("geometry.build"), "s");
        out.metric("solve_dram.lbm.mesh_build_s", m("lbm.mesh_build"), "s");
        out.metric("solve_dram.lbm.solver_new_s", m("lbm.solver_new"), "s");
        out.metric("solve_dram.lbm.warmup_s", m("lbm.warmup"), "s");
        let step_s = m("lbm.step");
        out.metric("solve_dram.lbm.step_ms", 1e3 * step_s, "ms");
        harness::closure_rows(out, tracer, "solve_dram", &timed);

        // Layers timed apart from the op loop.
        let one = harness::time_calls(ONE_WORKER_STEPS, || solver.step_with_workers(1));
        let one_s = harness::median(&one);
        let threads = hemocloud_rt::pool::global().threads();
        out.metric("solve_dram.lbm.step_ms_1worker", 1e3 * one_s, "ms");
        out.metric("solve_dram.rt.pool_threads", threads as f64, "count");
        out.metric("solve_dram.rt.pool_speedup", one_s / step_s, "x");
        // Eq. 9 bytes per fluid-point update of the pinned kernel on
        // this mesh: a computed count, not a measurement.
        let profile = AccessProfile::for_kernel(&cfg.kernel, average_solid_links(solver.mesh()));
        let bytes = profile.bytes_per_point(&GeometryStats::measure(&grid()));
        let achieved = bytes * cells as f64 / step_s / 1e9;
        out.metric("solve_dram.lbm.modeled_bytes_per_update", bytes, "B");
        out.metric("solve_dram.lbm.achieved_gb_s", achieved, "GB/s");
        let dist_mib = mib(solver.distribution_bytes());
        out.metric("solve_dram.lbm.distribution_mib", dist_mib, "MiB");
        achieved_gb_s = Some(achieved);
    } else {
        let work = (cells * timed.ops.len()) as f64;
        harness::end_to_end(out, &setups, &timed.ops, work, rss);
    }

    // The checks, on a fresh solver with the timed one's memory returned.
    drop(solver);
    let mesh = FluidMesh::build(&grid());
    let mut fresh = Solver::new(mesh, cfg);
    (0..CHECK_STEPS).for_each(|_| fresh.step());
    let check = expect_step(args, fresh.mesh(), &cfg, fresh.distributions());
    fresh.step();
    let after = fresh.distributions();
    check_physics(out, args, "solve_dram", fresh.mesh(), &cfg, &check, after);
    drop(fresh);

    // STREAM Triad last, with the solvers' memory returned.
    if let Some(achieved) = achieved_gb_s {
        let threads = hemocloud_rt::pool::global().threads();
        let triad = stream_kernel(StreamKernel::Triad, threads, TRIAD_ELEMENTS, 5);
        let triad_gb_s = triad.bandwidth_mb_s / 1e3;
        out.metric(
            "solve_dram.microbench.stream_triad_gb_s",
            triad_gb_s,
            "GB/s",
        );
        out.metric(
            "solve_dram.lbm.bandwidth_fraction",
            achieved / triad_gb_s,
            "x",
        );
    }
}

pub fn solve_ranked(args: &Args, tracer: &Tracer, out: &mut Outcome) {
    let cfg = config(args.seed);
    let grid = AortaSpec::default()
        .with_resolution(RANKED_RESOLUTION)
        .build();
    let (mut ranked, setups) = harness::repeated_setup(RANKED_SETUPS, || {
        tracer.span("solve_ranked.setup", || {
            let grid = tracer.span("geometry.build", || {
                AortaSpec::default()
                    .with_resolution(RANKED_RESOLUTION)
                    .build()
            });
            let mesh = tracer.span("lbm.mesh_build", || FluidMesh::build(&grid));
            let owner = tracer.span("decomp.rcb", || {
                RcbPartition::new(&grid, RANKS).assign_fluid_cells(&grid)
            });
            let mut r = tracer.span("lbm.ranked_new", || {
                RankedSolver::new(mesh, RankAssignment::new(owner, RANKS), cfg)
            });
            tracer.span("lbm.warmup", || (0..WARMUP_STEPS).for_each(|_| r.step()));
            r
        })
    });
    let mesh = FluidMesh::build(&grid);
    let cells = mesh.len();
    eprintln!(
        "solve_ranked: {cells} cells, {RANKS} ranks, {:.1} MiB distributions, simd {}",
        mib(ranked.distribution_bytes()),
        ranked.simd_label()
    );
    let timed = harness::timed_phase(args, tracer, "solve_ranked.op", || {
        tracer.span("lbm.ranked_step", || ranked.step());
        true
    });
    let rss = harness::peak_rss_mib();
    timed.count_into(out);
    if !tracer.enabled() {
        let work = (cells * timed.ops.len()) as f64;
        harness::end_to_end(out, &setups, &timed.ops, work, rss);
    }

    // The checks, on a fresh ranked solver stepped a fixed number of times.
    let owner = RcbPartition::new(&grid, RANKS).assign_fluid_cells(&grid);
    let mut fresh = RankedSolver::new(mesh.clone(), RankAssignment::new(owner.clone(), RANKS), cfg);
    (0..CHECK_STEPS).for_each(|_| fresh.step());

    // Halo traffic: the ledgers of the last step against a recount.
    let (bytes, messages) = reference::halo_recount(&mesh, &owner, RANKS);
    let ledgers = fresh.ledgers();
    let sent: Vec<u64> = ledgers.iter().map(|l| l.bytes_sent).collect();
    let msgs: Vec<u64> = ledgers.iter().map(|l| l.messages_sent).collect();
    out.check(sent == bytes && msgs == messages, || {
        format!("solve_ranked: halo ledgers bytes {sent:?} messages {msgs:?}, recount {bytes:?} {messages:?}")
    });

    let check = expect_step(args, &mesh, &cfg, fresh.distributions());
    fresh.step();
    check_physics(
        out,
        args,
        "solve_ranked",
        &mesh,
        &cfg,
        &check,
        fresh.distributions(),
    );

    // Decomposition must not change the physics: a global solver on the
    // same mesh and config, after the same number of steps, holds the
    // same bits.
    let mut global = Solver::new(mesh, cfg);
    let global_steps = harness::time_calls(CHECK_STEPS + 1, || global.step());
    let mut got = fresh.distributions().to_vec();
    if args.perturb == Perturb::Distribution {
        let i = got.len() / 2;
        got[i] = f64::from_bits(got[i].to_bits() ^ 1);
    }
    let differing = got
        .iter()
        .zip(global.distributions())
        .filter(|(a, b)| a.to_bits() != b.to_bits())
        .count();
    out.check(
        differing == 0 && got.len() == global.distributions().len(),
        || format!("solve_ranked: {differing} distributions differ from the global solver"),
    );

    if tracer.enabled() {
        let totals = tracer.totals();
        let m = |name: &str| harness::self_mean_s(&totals, name);
        out.metric("solve_ranked.geometry.build_s", m("geometry.build"), "s");
        out.metric("solve_ranked.lbm.mesh_build_s", m("lbm.mesh_build"), "s");
        out.metric("solve_ranked.decomp.rcb_s", m("decomp.rcb"), "s");
        out.metric("solve_ranked.lbm.ranked_new_s", m("lbm.ranked_new"), "s");
        out.metric("solve_ranked.lbm.warmup_s", m("lbm.warmup"), "s");
        let ranked_ms = 1e3 * m("lbm.ranked_step");
        let global_ms = 1e3 * harness::median(&global_steps);
        out.metric("solve_ranked.lbm.ranked_step_ms", ranked_ms, "ms");
        out.metric("solve_ranked.lbm.global_step_ms", global_ms, "ms");
        out.metric(
            "solve_ranked.lbm.exchange_overhead_ms",
            ranked_ms - global_ms,
            "ms",
        );
        harness::closure_rows(out, tracer, "solve_ranked", &timed);
        out.metric(
            "solve_ranked.lbm.halo_bytes_per_step",
            ranked.max_bytes_sent() as f64,
            "B",
        );
        out.metric(
            "solve_ranked.lbm.halo_messages_per_step",
            ranked.max_messages_sent() as f64,
            "count",
        );
        let partition = RcbPartition::new(&grid, RANKS);
        let z = DecompAnalysis::analyze(&grid, &partition).z_factor();
        out.metric("solve_ranked.decomp.z_factor", z, "x");
        out.metric(
            "solve_ranked.lbm.distribution_mib",
            mib(ranked.distribution_bytes()),
            "MiB",
        );
    }
}
