//! Command line, timing loops, result collection and the one-line JSON
//! result every workload prints last.

use crate::trace::{Totals, Tracer};
use std::collections::BTreeMap;
use std::time::Instant;

/// The four workloads; each runs in its own process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SolveDram,
    SolveRanked,
    Plan,
    Campaign,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "solve_dram" => Some(Self::SolveDram),
            "solve_ranked" => Some(Self::SolveRanked),
            "plan" => Some(Self::Plan),
            "campaign" => Some(Self::Campaign),
            _ => None,
        }
    }
}

/// A deliberate corruption of one program output, applied after the
/// program produced it and before the benchmark checks it. Used only to
/// show that each check fires; a normal run uses `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Perturb {
    None,
    /// Alter one distribution value read out of the solver.
    Distribution,
    /// Drop one dashboard entry.
    DashboardEntry,
    /// Miscount one campaign outcome.
    OutcomeCount,
    /// Make the first operation of the timed phase panic before it calls
    /// the program, to show a failed operation is counted.
    OpPanic,
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<String>,
    pub perturb: Perturb,
}

const USAGE: &str =
    "usage: hemocloud-perfbench --workload <solve_dram|solve_ranked|plan|campaign> \
--seed <u64> --seconds <s> --trace <0|1> [--trace-out <path>] \
[--perturb <none|distribution|dashboard|outcome|op-panic>]";

impl Args {
    pub fn parse() -> Result<Self, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut trace_out = None;
        let mut perturb = Perturb::None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload {value:?}\n{USAGE}"))?,
                    )
                }
                "--seed" => {
                    seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?)
                }
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value:?}"))?;
                    if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds must be in (0, 600], got {s}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    }
                }
                "--trace-out" => trace_out = Some(value.clone()),
                "--perturb" => {
                    perturb = match value.as_str() {
                        "none" => Perturb::None,
                        "distribution" => Perturb::Distribution,
                        "dashboard" => Perturb::DashboardEntry,
                        "outcome" => Perturb::OutcomeCount,
                        "op-panic" => Perturb::OpPanic,
                        _ => return Err(format!("unknown --perturb {value:?}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag:?}\n{USAGE}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?,
            seed: seed.ok_or_else(|| format!("--seed is required\n{USAGE}"))?,
            seconds: seconds.ok_or_else(|| format!("--seconds is required\n{USAGE}"))?,
            trace,
            trace_out,
            perturb,
        })
    }
}

/// Everything one run reports: operation counts, metrics, and the
/// output checks that failed.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    failures: Vec<String>,
}

impl Outcome {
    pub fn new() -> Self {
        Self {
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            failures: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Record an output check; a failing check makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("CHECK FAILED: {msg}");
            self.failures.push(msg);
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Print the result line (the last line of standard output) and
    /// return the process exit code.
    pub fn finish(self) -> i32 {
        let mut s = String::from("{\"correct\": ");
        s.push_str(if self.correct() { "true" } else { "false" });
        s.push_str(&format!(
            ", \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        ));
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            // Non-finite values are not JSON; they also fail the run.
            let v = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_string()
            };
            s.push_str(&format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        s.push_str("}}");
        println!("{s}");
        let finite = self.metrics.iter().all(|(_, v, _)| v.is_finite());
        if self.correct() && finite && self.attempted > 0 {
            0
        } else {
            1
        }
    }
}

/// Peak resident set of this process (VmHWM), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Run `op` `count` times back to back; returns each call's wall time
/// in seconds. For layers timed apart from the op loop.
pub fn time_calls(count: usize, mut op: impl FnMut()) -> Vec<f64> {
    (0..count)
        .map(|_| {
            let t = Instant::now();
            op();
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// Perform the set-up `repeats` times from scratch, dropping each result
/// before building the next so the peak footprint stays that of one
/// set-up; returns the last result and every set-up's wall time.
pub fn repeated_setup<T>(repeats: usize, mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

/// The four end-to-end metrics every workload reports.
pub fn end_to_end(out: &mut Outcome, setup_times: &[f64], op_times: &[f64], work: f64, rss: f64) {
    let busy: f64 = op_times.iter().sum();
    let mut sorted = op_times.to_vec();
    sorted.sort_by(f64::total_cmp);
    let q = |p: f64| 1e3 * sorted[((sorted.len() - 1) as f64 * p).round() as usize];
    let (lo, hi) = setup_times
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), &t| {
            (lo.min(t), hi.max(t))
        });
    eprintln!(
        "{} ops in {busy:.3} s: op ms min {:.3} p25 {:.3} p50 {:.3} p75 {:.3} max {:.3}; {} set-ups {lo:.6}..{hi:.6} s",
        sorted.len(),
        q(0.0),
        q(0.25),
        q(0.5),
        q(0.75),
        q(1.0),
        setup_times.len()
    );
    out.metric("setup_s", median(setup_times), "s");
    out.metric("work_per_s", work / busy, "1/s");
    out.metric("latency_ms_p50", 1e3 * median(op_times), "ms");
    out.metric("peak_rss_mib", rss, "MiB");
}

/// Operations of the timed phase. An operation fails when it panics
/// or reports that it produced no result; only the operations that
/// succeeded are timed. With tracing on, ops alternate between untraced
/// and traced (each traced op inside a root span), so both halves see the
/// same drift of the host; `untraced` then holds the untraced ops' times,
/// for the tracing-overhead row.
pub struct Timed {
    pub ops: Vec<f64>,
    pub untraced: Option<Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
}

impl Timed {
    /// Record the operation counts of the run.
    pub fn count_into(&self, out: &mut Outcome) {
        out.attempted = self.attempted;
        out.failed = self.failed;
    }

    /// Run one operation; `Some(wall time)` if it succeeded.
    fn attempt(&mut self, panic_first: bool, op: impl FnOnce() -> bool) -> Option<f64> {
        let first = self.attempted == 0;
        self.attempted += 1;
        let t = Instant::now();
        let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if panic_first && first {
                panic!("perturbed: first operation of the timed phase panics");
            }
            op()
        }));
        let wall = t.elapsed().as_secs_f64();
        if ok.unwrap_or(false) {
            Some(wall)
        } else {
            self.failed += 1;
            None
        }
    }
}

/// Operations that must succeed in every timed phase, however short.
const MIN_OPS: usize = 3;

/// Run `op` back to back for `args.seconds` (and at least `MIN_OPS`
/// successful times); `op` returns whether it produced its result.
pub fn timed_phase(
    args: &Args,
    tracer: &Tracer,
    root: &str,
    mut op: impl FnMut() -> bool,
) -> Timed {
    let panic_first = args.perturb == Perturb::OpPanic;
    let traced = tracer.enabled();
    let mut timed = Timed {
        ops: Vec::new(),
        untraced: traced.then(Vec::new),
        attempted: 0,
        failed: 0,
    };
    let start = Instant::now();
    while timed.ops.len() < MIN_OPS || start.elapsed().as_secs_f64() < args.seconds {
        if traced {
            tracer.set_enabled(false);
            let t = timed.attempt(panic_first, &mut op);
            timed.untraced.as_mut().unwrap().extend(t);
            tracer.set_enabled(true);
            let t = timed.attempt(panic_first, || tracer.span(root, &mut op));
            timed.ops.extend(t);
        } else {
            let t = timed.attempt(panic_first, &mut op);
            timed.ops.extend(t);
        }
    }
    timed
}

/// The closure rows of a traced workload, per traced op: mean op wall
/// time as the timed phase clocked it, and the part of it no layer span
/// covers; plus the tracing overhead against the untraced half. Checks
/// that the recorder's root spans account for the op wall time: their
/// summed duration (layer self times plus the roots' own self time) may
/// fall short of the phase's own clock only by the cost of opening and
/// closing one span per op.
pub fn closure_rows(out: &mut Outcome, tracer: &Tracer, workload: &str, timed: &Timed) {
    let (spans, attributed, root_self) = tracer.closure(&format!("{workload}.op"));
    let wall: f64 = timed.ops.iter().sum();
    let ops = timed.ops.len() as f64;
    let slack = wall - (attributed + root_self);
    out.check(
        slack >= -1e-9 * wall && slack <= 1e-3 * wall + 20e-6 * ops,
        || {
            format!(
                "{workload}: root spans {spans} s (layers {attributed} + own {root_self}) against op wall {wall} s"
            )
        },
    );
    out.metric(format!("{workload}.op_wall_s"), wall / ops, "s");
    out.metric(
        format!("{workload}.unattributed_s"),
        (wall - attributed) / ops,
        "s",
    );
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    if let Some(untraced) = &timed.untraced {
        out.metric(
            format!("{workload}.trace_overhead_pct"),
            100.0 * (mean(&timed.ops) / mean(untraced) - 1.0),
            "%",
        );
    }
}

/// Mean self time of the spans named `name`, in seconds (NaN if none).
pub fn self_mean_s(totals: &BTreeMap<String, Totals>, name: &str) -> f64 {
    totals
        .get(name)
        .map_or(f64::NAN, |t| t.self_s / t.count as f64)
}
