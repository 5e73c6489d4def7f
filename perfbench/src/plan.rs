//! `plan`: the paper's planning path over a fixed reference set of
//! anatomies — RCB decomposition with the Eq. 9 analysis, `Workload`,
//! `DirectModel`, and `Dashboard::build` over the five characterized
//! platforms, ending in `recommend` for each objective. One operation
//! plans the whole set, so every operation does the same work.

use crate::harness::{self, Args, Outcome, Perturb};
use crate::trace::Tracer;
use hemocloud_cluster::platform::Platform;
use hemocloud_cluster::pricing::PriceSheet;
use hemocloud_core::characterize::{characterize_all, PlatformCharacterization};
use hemocloud_core::dashboard::{Dashboard, DashboardEntry, Objective};
use hemocloud_core::direct::DirectModel;
use hemocloud_core::general::GeneralModel;
use hemocloud_core::workload::Workload;
use hemocloud_decomp::halo::DecompAnalysis;
use hemocloud_decomp::rcb::RcbPartition;
use hemocloud_geometry::anatomy::{
    AneurysmSpec, AortaSpec, CerebralSpec, CylinderSpec, StenosisSpec,
};
use hemocloud_geometry::voxel::VoxelGrid;
use hemocloud_rt::rng::Rng;

/// Rank counts offered on the dashboard.
const RANK_OPTIONS: [usize; 7] = [16, 32, 64, 128, 144, 256, 512];
/// Ranks of the standalone RCB decomposition and the direct model.
const PLAN_RANKS: usize = 64;
/// Set-ups per run; `setup_s` is their median. One set-up takes a few
/// milliseconds, so many are needed for a median that repeats.
const SETUPS: usize = 150;

/// The reference set: one sparse tree (mostly solid bounding box) and
/// four dense vessels.
pub fn anatomies() -> Vec<(&'static str, VoxelGrid)> {
    vec![
        (
            "cerebral",
            CerebralSpec::default()
                .with_generations(3)
                .with_resolution(8)
                .build(),
        ),
        (
            "cylinder",
            CylinderSpec::default().with_resolution(12).build(),
        ),
        ("aorta", AortaSpec::default().with_resolution(12).build()),
        (
            "stenosis",
            StenosisSpec::default().with_resolution(12).build(),
        ),
        (
            "aneurysm",
            AneurysmSpec::default().with_resolution(12).build(),
        ),
    ]
}

struct Setup {
    characterizations: Vec<PlatformCharacterization>,
    anatomies: Vec<(&'static str, VoxelGrid)>,
}

/// What one planning pass produced for one anatomy.
struct Plan {
    z_factor: f64,
    points: usize,
    steps: u64,
    dashboard: Dashboard,
    deadline_s: f64,
    picks: [Option<DashboardEntry>; 3],
}

fn plan_one(
    tracer: &Tracer,
    setup: &Setup,
    name: &str,
    grid: &VoxelGrid,
    steps: u64,
    deadline_factor: f64,
) -> Plan {
    let prices = PriceSheet::default();
    let z_factor = tracer.span(&format!("decomp.rcb/{name}"), || {
        let partition = RcbPartition::new(grid, PLAN_RANKS);
        DecompAnalysis::analyze(grid, &partition).z_factor()
    });
    let workload = tracer.span(&format!("core.workload/{name}"), || {
        Workload::harvey(grid, steps)
    });
    tracer.span(&format!("core.direct_model/{name}"), || {
        for c in &setup.characterizations {
            std::hint::black_box(DirectModel::new(c.clone(), workload.clone()).predict(PLAN_RANKS));
        }
    });
    let dashboard = tracer.span(&format!("core.dashboard/{name}"), || {
        Dashboard::build(&setup.characterizations, &workload, &RANK_OPTIONS, &prices)
    });
    let (deadline_s, picks) = tracer.span(&format!("core.recommend/{name}"), || {
        let fastest = dashboard
            .recommend(Objective::MaxThroughput)
            .map_or(f64::NAN, |e| e.time_to_solution_s);
        let deadline_s = fastest * deadline_factor;
        let picks = [
            Objective::MaxThroughput,
            Objective::MinCost,
            Objective::Deadline(deadline_s),
        ]
        .map(|o| dashboard.recommend(o).cloned());
        (deadline_s, picks)
    });
    Plan {
        z_factor,
        points: workload.points(),
        steps,
        dashboard,
        deadline_s,
        picks,
    }
}

/// Index of the first entry minimizing `key` among those `keep` admits.
fn argmin(
    entries: &[DashboardEntry],
    keep: impl Fn(&DashboardEntry) -> bool,
    key: impl Fn(&DashboardEntry) -> f64,
) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, e) in entries.iter().enumerate() {
        if keep(e) && best.is_none_or(|(_, b)| key(e) < b) {
            best = Some((i, key(e)));
        }
    }
    best.map(|(i, _)| i)
}

fn check_plan(out: &mut Outcome, name: &str, plan: &Plan, platforms: &[Platform]) {
    out.check(plan.z_factor >= 1.0, || {
        format!("plan/{name}: z_factor {} < 1", plan.z_factor)
    });
    let entries = &plan.dashboard.entries;
    // Every feasible (platform, ranks) pair exactly once, nothing else.
    let mut expected: Vec<(String, usize)> = Vec::new();
    for p in platforms {
        for &r in &RANK_OPTIONS {
            if r <= p.total_cores {
                expected.push((p.abbrev.to_string(), r));
            }
        }
    }
    let mut got: Vec<(String, usize)> = entries
        .iter()
        .map(|e| (e.platform.clone(), e.ranks))
        .collect();
    expected.sort();
    got.sort();
    out.check(got == expected, || {
        format!(
            "plan/{name}: dashboard has {} entries, expected one per feasible pair ({})",
            got.len(),
            expected.len()
        )
    });
    // Time to solution from predicted MFLUPS and the fluid-point count.
    let updates = plan.points as f64 * plan.steps as f64;
    for e in entries {
        let t = updates / (e.predicted_mflups * 1e6);
        out.check((e.time_to_solution_s - t).abs() <= 1e-9 * t, || {
            format!(
                "plan/{name}: {} @ {} ranks time {} s, recomputed {t} s",
                e.platform, e.ranks, e.time_to_solution_s
            )
        });
    }
    // recommend against an argmax/argmin computed here.
    let want = [
        argmin(entries, |_| true, |e| -e.predicted_mflups),
        argmin(entries, |_| true, |e| e.cost_dollars),
        argmin(
            entries,
            |e| e.time_to_solution_s <= plan.deadline_s,
            |e| e.cost_dollars,
        ),
    ];
    for (k, (pick, want)) in plan.picks.iter().zip(want).enumerate() {
        let want = want.map(|i| &entries[i]);
        out.check(pick.as_ref() == want, || {
            format!("plan/{name}: objective {k} recommended {pick:?}, expected {want:?}")
        });
    }
}

pub fn plan(args: &Args, tracer: &Tracer, out: &mut Outcome) {
    // The seed draws each anatomy's step count and deadline slack: the
    // inputs a user types, which change no work per operation.
    let mut rng = Rng::new(args.seed ^ 0x91a4_0b7e);
    let (setup, setups) = harness::repeated_setup(SETUPS, || {
        tracer.span("plan.setup", || Setup {
            characterizations: tracer.span("core.characterize", || characterize_all(args.seed)),
            anatomies: tracer.span("geometry.build", anatomies),
        })
    });
    let inputs: Vec<(u64, f64)> = setup
        .anatomies
        .iter()
        .map(|_| (rng.range_u64(50_000, 200_000), rng.range_f64(1.2, 3.0)))
        .collect();
    for (name, grid) in &setup.anatomies {
        eprintln!(
            "plan: {name}: {} voxels, {} fluid ({:.3} fluid fraction)",
            grid.len(),
            grid.fluid_count(),
            grid.fluid_count() as f64 / grid.len() as f64
        );
    }
    let mut last: Vec<Plan> = Vec::new();
    // An operation fails if any objective of any anatomy gets no
    // recommendation: every dashboard offers at least one option, and
    // the deadline is never tighter than the fastest one.
    let timed = harness::timed_phase(args, tracer, "plan.op", || {
        last = setup
            .anatomies
            .iter()
            .zip(&inputs)
            .map(|((name, grid), &(steps, slack))| {
                plan_one(tracer, &setup, name, grid, steps, slack)
            })
            .collect();
        last.iter().all(|p| p.picks.iter().all(Option::is_some))
    });
    let rss = harness::peak_rss_mib();
    timed.count_into(out);
    if !tracer.enabled() {
        let work = (setup.anatomies.len() * timed.ops.len()) as f64;
        harness::end_to_end(out, &setups, &timed.ops, work, rss);
    }

    if args.perturb == Perturb::DashboardEntry {
        last[0].dashboard.entries.remove(0);
    }
    let platforms: Vec<Platform> = setup
        .characterizations
        .iter()
        .map(|c| c.platform.clone())
        .collect();
    for ((name, _), plan) in setup.anatomies.iter().zip(&last) {
        check_plan(out, name, plan, &platforms);
    }

    if tracer.enabled() {
        let totals = tracer.totals();
        let m = |name: &str| harness::self_mean_s(&totals, name);
        out.metric("plan.core.characterize_s", m("core.characterize"), "s");
        out.metric("plan.geometry.build_s", m("geometry.build"), "s");
        harness::closure_rows(out, tracer, "plan", &timed);
        // An input, not a measurement: `Dashboard::build` is handed
        // this many characterizations.
        let models = setup.characterizations.len() as f64;
        out.metric("plan.core.general_models_per_dashboard", models, "count");
        let mut sum = [0.0f64; 7];
        for ((name, grid), &(steps, _)) in setup.anatomies.iter().zip(&inputs) {
            // The program's own model fit, one per characterization,
            // timed apart: what `Dashboard::build` would cost if it
            // fitted each platform's model independently.
            let workload = Workload::harvey(grid, steps);
            let fits = harness::time_calls(1, || {
                for c in &setup.characterizations {
                    std::hint::black_box(GeneralModel::from_characterization(c, &workload));
                }
            });
            let dashboard_s = m(&format!("core.dashboard/{name}"));
            let row = [
                m(&format!("decomp.rcb/{name}")),
                m(&format!("core.workload/{name}")),
                m(&format!("core.direct_model/{name}")),
                dashboard_s,
                m(&format!("core.recommend/{name}")),
                fits[0],
                fits[0] / dashboard_s,
            ];
            emit_row(out, name, &row);
            for (s, v) in sum.iter_mut().zip(row) {
                *s += v;
            }
        }
        sum[6] = sum[5] / sum[3];
        emit_row(out, "total", &sum);
    }
}

/// One anatomy's per-layer row (or the set's total): the self times of
/// the op's layer spans, which with `plan.unattributed_s` add up to the
/// op wall time, then the per-platform model fits timed apart and their
/// share of the dashboard time.
fn emit_row(out: &mut Outcome, which: &str, row: &[f64; 7]) {
    out.metric(format!("plan.decomp.rcb_s.{which}"), row[0], "s");
    out.metric(format!("plan.core.workload_s.{which}"), row[1], "s");
    out.metric(format!("plan.core.direct_model_s.{which}"), row[2], "s");
    out.metric(format!("plan.core.dashboard_s.{which}"), row[3], "s");
    out.metric(format!("plan.core.recommend_s.{which}"), row[4], "s");
    out.metric(format!("plan.core.model_fit_s.{which}"), row[5], "s");
    out.metric(
        format!("plan.core.model_fit_share.{which}"),
        row[6],
        "share",
    );
}
