//! End-to-end benchmark of the hemocloud workspace: one workload per
//! process, inputs drawn from `--seed`, outputs checked against
//! computations made here, and one JSON result line printed last.
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` records spans
//! around the calls into each layer and reports the per-layer metrics
//! instead. See `README.md` in this directory.

mod campaign;
mod harness;
mod plan;
mod reference;
mod solve;
mod trace;

use harness::{Args, Outcome, Workload};
use trace::Tracer;

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    let mut out = Outcome::new();
    match args.workload {
        Workload::SolveDram => solve::solve_dram(&args, &tracer, &mut out),
        Workload::SolveRanked => solve::solve_ranked(&args, &tracer, &mut out),
        Workload::Plan => plan::plan(&args, &tracer, &mut out),
        Workload::Campaign => campaign::campaign(&args, &tracer, &mut out),
    }
    if let Some(path) = &args.trace_out {
        if let Err(e) = tracer.write(path) {
            out.check(false, || format!("writing spans to {path}: {e}"));
        }
    }
    std::process::exit(out.finish());
}
