//! `campaign`: a synthetic multi-pool job mix through
//! `sched::Campaign` (`new`, `submit`, `run`, report JSON), with node
//! faults, guard kills and admission rejections on. One pool is routed
//! through a `Spread` fabric and has 8-core nodes; the rank options start
//! at 16, so every job placed there spans several nodes and puts
//! `fabric` on the path. One operation is one whole campaign.

use crate::harness::{self, Args, Outcome, Perturb};
use crate::trace::Tracer;
use hemocloud_cluster::exec::{Overheads, PreparedRun};
use hemocloud_cluster::platform::Platform;
use hemocloud_cluster::topology::{build_topology, CommModel, TopologyVariant};
use hemocloud_core::characterize::characterize;
use hemocloud_core::dashboard::Objective;
use hemocloud_core::general::GeneralModel;
use hemocloud_core::workload::Workload;
use hemocloud_geometry::anatomy::{AortaSpec, CylinderSpec, StenosisSpec};
use hemocloud_rt::rng::Rng;
use hemocloud_sched::{Campaign, CampaignConfig, CampaignReport, JobSpec, PoolSpec};
use std::collections::HashMap;
use std::sync::Arc;

/// Jobs per campaign.
const JOBS: usize = 4000;
/// Jobs sharing one submit tick.
const BATCH: usize = 64;
/// Every this many jobs is a runaway (3× hidden steps, tight guard),
/// and every `DOOMED_EVERY` an unaffordable budget admission rejects.
const RUNAWAY_EVERY: usize = 97;
const DOOMED_EVERY: usize = 101;
/// Set-ups per run; `setup_s` is their median. One set-up takes a few
/// milliseconds, so many are needed for a median that repeats.
const SETUPS: usize = 250;
/// Shard count of the timed campaign and of the determinism re-run.
const SHARDS: usize = 1;
const CHECK_SHARDS: usize = 3;
/// Calls averaged for the `run_slice` and `exchange` rows.
const PROBE_CALLS: usize = 2000;
/// The routed pool's platform.
const ROUTED: &str = "CSP-2 Small";

fn pools() -> Vec<PoolSpec> {
    vec![
        PoolSpec {
            platform: Platform::trc(),
            nodes: 8,
            overheads: Overheads::default(),
            topology: None,
        },
        PoolSpec {
            platform: Platform::csp1(),
            nodes: 3,
            overheads: Overheads {
                lbm_bandwidth_efficiency: 0.80,
                ..Overheads::default()
            },
            topology: None,
        },
        PoolSpec {
            platform: Platform::csp2_small(),
            nodes: 16,
            overheads: Overheads {
                message_software_overhead_us: 2.5,
                ..Overheads::default()
            },
            topology: Some(TopologyVariant::Spread),
        },
        PoolSpec {
            platform: Platform::csp2(),
            nodes: 4,
            overheads: Overheads {
                lbm_bandwidth_efficiency: 0.72,
                ..Overheads::default()
            },
            topology: None,
        },
    ]
}

fn config(seed: u64, shards: usize) -> CampaignConfig {
    CampaignConfig {
        seed,
        characterization_seed: 2023,
        rank_options: vec![16, 32, 64],
        slice_steps: 400_000,
        fault_rate_per_node_hour: 0.5,
        retry_backoff_s: 30.0,
        max_retry_backoff_s: 1800.0,
        min_calibration_obs: 6,
        prices: Default::default(),
        shards,
        max_placement_log: usize::MAX,
        max_job_reports: usize::MAX,
    }
}

/// Four geometry classes × eight step counts, shared by `Arc`.
fn workloads() -> Vec<(String, Arc<Workload>)> {
    let geoms = [
        ("cyl6", CylinderSpec::default().with_resolution(6).build()),
        ("cyl8", CylinderSpec::default().with_resolution(8).build()),
        ("aorta6", AortaSpec::default().with_resolution(6).build()),
        ("sten8", StenosisSpec::default().with_resolution(8).build()),
    ];
    let mut out = Vec::with_capacity(32);
    for (key, grid) in &geoms {
        for s in 0..8u64 {
            let steps = 150_000 + 50_000 * s;
            out.push((key.to_string(), Arc::new(Workload::harvey(grid, steps))));
        }
    }
    out
}

/// The seeded job mix: the seed picks each job's workload; the planted
/// runaways and doomed budgets sit at fixed indices, so every seed turns
/// on the guard and admission paths.
fn jobs(seed: u64, workloads: &[(String, Arc<Workload>)]) -> Vec<JobSpec> {
    let mut rng = Rng::new(seed ^ 0xca3b_a16e);
    let objectives = [
        Objective::MinCost,
        Objective::MaxThroughput,
        Objective::Deadline(24.0 * 3600.0),
    ];
    (0..JOBS)
        .map(|i| {
            let (key, workload) = &workloads[rng.range_usize(0, workloads.len())];
            let runaway = i % RUNAWAY_EVERY == 0;
            let doomed = !runaway && i % DOOMED_EVERY == 0;
            JobSpec {
                name: format!("job-{i:05}-{key}"),
                workload: Arc::clone(workload),
                model_key: key.clone(),
                objective: objectives[i % objectives.len()],
                tolerance: if runaway { 0.5 } else { 7.0 },
                budget_dollars: if doomed { 1.0e-6 } else { 500.0 },
                max_retries: 3,
                checkpoint_steps: 200_000,
                hidden_steps_factor: if runaway { 3.0 } else { 1.0 },
                submit_s: (i / BATCH) as f64 * 30.0,
            }
        })
        .collect()
}

fn run_campaign(
    tracer: &Tracer,
    seed: u64,
    shards: usize,
    jobs: &[JobSpec],
) -> (CampaignReport, String) {
    let mut campaign = tracer.span("sched.campaign_new", || {
        Campaign::new(config(seed, shards), pools())
    });
    tracer.span("sched.submit", || {
        for job in jobs {
            campaign.submit(job.clone());
        }
    });
    let report = tracer.span("sched.run", || campaign.run());
    let json = tracer.span("sched.report_json", || report.to_json());
    (report, json)
}

fn attempts(report: &CampaignReport) -> usize {
    report.platforms.iter().map(|p| p.attempts).sum()
}

/// Placements on the routed pool spanning at least two nodes.
fn routed_multi_node(report: &CampaignReport) -> usize {
    report
        .placements
        .iter()
        .filter(|p| p.platform == ROUTED && p.nodes >= 2)
        .count()
}

fn check_report(out: &mut Outcome, report: &CampaignReport, jobs: &[JobSpec]) {
    let outcomes = report.completed + report.guard_kills + report.failed + report.rejected;
    out.check(outcomes == jobs.len() && report.jobs == jobs.len(), || {
        format!(
            "campaign: outcomes {outcomes} (completed {} + guard-killed {} + failed {} + rejected {}) != {} jobs submitted",
            report.completed, report.guard_kills, report.failed, report.rejected, jobs.len()
        )
    });
    for p in &report.platforms {
        out.check(p.billed_node_seconds as f64 >= p.busy_node_seconds, || {
            format!(
                "campaign: {} billed {} node-s < busy {} node-s",
                p.platform, p.billed_node_seconds, p.busy_node_seconds
            )
        });
    }
    let budgets: HashMap<&str, f64> = jobs
        .iter()
        .map(|j| (j.name.as_str(), j.budget_dollars))
        .collect();
    out.check(report.job_reports.len() == jobs.len(), || {
        format!(
            "campaign: {} job reports for {} jobs",
            report.job_reports.len(),
            jobs.len()
        )
    });
    for j in &report.job_reports {
        if j.outcome == "completed" {
            let budget = budgets.get(j.name.as_str()).copied().unwrap_or(f64::NAN);
            out.check(j.cost_dollars <= budget, || {
                format!(
                    "campaign: completed job {} cost {} over budget {budget}",
                    j.name, j.cost_dollars
                )
            });
        }
    }
    out.check(
        report.guard_kills > 0 && report.rejected > 0 && report.faults > 0,
        || {
            format!(
                "campaign: guard kills {}, rejections {}, faults {}: each path must fire",
                report.guard_kills, report.rejected, report.faults
            )
        },
    );
    out.check(routed_multi_node(report) > 0, || {
        format!("campaign: no multi-node placement on the routed pool {ROUTED}")
    });
}

pub fn campaign(args: &Args, tracer: &Tracer, out: &mut Outcome) {
    let (jobs, setups) = harness::repeated_setup(SETUPS, || {
        tracer.span("campaign.setup", || {
            let workloads = tracer.span("core.workloads", workloads);
            tracer.span("sched.jobs", || jobs(args.seed, &workloads))
        })
    });
    let mut last = None;
    // An operation fails if the campaign reports no outcome for a job.
    let timed = harness::timed_phase(args, tracer, "campaign.op", || {
        // Drop the previous campaign's report first: one report at a
        // time keeps the peak footprint that of a single campaign.
        last = None;
        let (report, json) = run_campaign(tracer, args.seed, SHARDS, &jobs);
        let whole = report.job_reports.len() == jobs.len();
        last = Some((report, json));
        whole
    });
    let rss = harness::peak_rss_mib();
    let (mut report, json) = last.expect("at least one campaign");
    timed.count_into(out);
    let events = report.events_processed as f64;
    eprintln!(
        "campaign: {} jobs, {} events, {} attempts; completed {}, guard-killed {}, failed {}, rejected {}, faults {}; {} routed multi-node placements",
        report.jobs,
        report.events_processed,
        attempts(&report),
        report.completed,
        report.guard_kills,
        report.failed,
        report.rejected,
        report.faults,
        routed_multi_node(&report)
    );
    let mut by_pool: std::collections::BTreeMap<(&str, usize), usize> = Default::default();
    for p in &report.placements {
        *by_pool.entry((p.platform.as_str(), p.nodes)).or_default() += 1;
    }
    eprintln!("campaign: placements by (pool, nodes): {by_pool:?}");
    if !tracer.enabled() {
        harness::end_to_end(
            out,
            &setups,
            &timed.ops,
            events * timed.ops.len() as f64,
            rss,
        );
    }

    // The report must not depend on the event queue's shard count.
    let tracing = tracer.enabled();
    tracer.set_enabled(false);
    let (_, json_sharded) = run_campaign(tracer, args.seed, CHECK_SHARDS, &jobs);
    tracer.set_enabled(tracing);
    out.check(json == json_sharded, || {
        format!("campaign: report differs between {SHARDS} and {CHECK_SHARDS} shards")
    });
    if args.perturb == Perturb::OutcomeCount {
        report.completed += 1;
    }
    check_report(out, &report, &jobs);

    if tracer.enabled() {
        let totals = tracer.totals();
        let m = |name: &str| harness::self_mean_s(&totals, name);
        out.metric(
            "campaign.sched.campaign_new_s",
            m("sched.campaign_new"),
            "s",
        );
        out.metric("campaign.sched.submit_s", m("sched.submit"), "s");
        out.metric("campaign.sched.run_s", m("sched.run"), "s");
        out.metric("campaign.sched.report_json_s", m("sched.report_json"), "s");
        harness::closure_rows(out, tracer, "campaign", &timed);
        let attempts = attempts(&report) as f64;
        out.metric("campaign.sched.events", events, "count");
        out.metric(
            "campaign.sched.events_per_job",
            events / report.jobs as f64,
            "count",
        );
        out.metric("campaign.sched.attempts", attempts, "count");
        out.metric(
            "campaign.sched.completed_per_attempt",
            report.completed as f64 / attempts,
            "share",
        );
        out.metric(
            "campaign.sched.routed_attempt_share",
            routed_multi_node(&report) as f64 / report.placements_total as f64,
            "share",
        );
        let (slice_us, exchange_us) = probes(&jobs);
        out.metric("campaign.cluster.run_slice_us", slice_us, "us");
        out.metric("campaign.fabric.exchange_us", exchange_us, "us");
        out.metric("campaign.core.model_fits_s", model_fits_s(&jobs), "s");
    }
}

/// The general models a campaign fits before it can place: one per
/// (pool, geometry), each running the two RCB calibration sweeps. Timed
/// apart, so the decomp share of a campaign shows next to `sched.run_s`.
fn model_fits_s(jobs: &[JobSpec]) -> f64 {
    let mut keys: Vec<&JobSpec> = Vec::new();
    for job in jobs {
        if keys.iter().all(|k| k.model_key != job.model_key) {
            keys.push(job);
        }
    }
    let characters: Vec<_> = pools()
        .iter()
        .map(|p| characterize(&p.platform, config(0, SHARDS).characterization_seed))
        .collect();
    let t = std::time::Instant::now();
    for c in &characters {
        for job in &keys {
            std::hint::black_box(GeneralModel::from_characterization(c, &job.workload));
        }
    }
    t.elapsed().as_secs_f64()
}

/// `PreparedRun::run_slice` on the mix's workloads, and one
/// `fabric::exchange` of a multi-node job on the routed pool's fabric,
/// each averaged over `PROBE_CALLS` calls and timed apart from the
/// campaign.
fn probes(jobs: &[JobSpec]) -> (f64, f64) {
    let platform = Platform::csp2_small();
    let overheads = Overheads::default();
    let mut prepared = Vec::new();
    let mut seen = Vec::new();
    for job in jobs {
        if !seen.contains(&job.model_key) {
            seen.push(job.model_key.clone());
            let w = &job.workload;
            prepared.push(
                PreparedRun::new(&platform, &w.grid, &w.kernel, 16, &overheads)
                    .expect("16 ranks fit every mix geometry"),
            );
        }
    }
    let t = std::time::Instant::now();
    for i in 0..PROBE_CALLS {
        let run = &prepared[i % prepared.len()];
        std::hint::black_box(run.run_slice(400_000, i as u64, i as f64 / 60.0));
    }
    let slice_us = 1e6 * t.elapsed().as_secs_f64() / PROBE_CALLS as f64;

    let w = &jobs[0].workload;
    let routed = PreparedRun::new_with_comm(
        &platform,
        &w.grid,
        &w.kernel,
        32,
        &overheads,
        CommModel::Routed(TopologyVariant::Spread),
    )
    .expect("32 ranks fit every mix geometry");
    let topology = build_topology(&platform, TopologyVariant::Spread, 16);
    let node_map: Vec<usize> = (0..routed.nodes()).collect();
    let flows = routed.flows(&node_map, 0);
    let t = std::time::Instant::now();
    for _ in 0..PROBE_CALLS {
        std::hint::black_box(hemocloud_fabric::exchange(&topology, &flows));
    }
    let exchange_us = 1e6 * t.elapsed().as_secs_f64() / PROBE_CALLS as f64;
    (slice_us, exchange_us)
}
