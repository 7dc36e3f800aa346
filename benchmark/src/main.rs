//! The repository benchmark: one command that runs a named workload from a
//! seed, checks every output, and prints every metric by name and unit.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload batch-huge --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Each workload does a fixed amount of deterministic work, sized from
//! `--seconds` by a constant per workload (never by watching the clock), so
//! a slow stretch of the machine changes the timings but not the work mix.
//! Untraced runs (`--trace 0`) print the end-to-end metrics; traced runs
//! (`--trace 1`) repeat the same work with a span around every layer call
//! and print the per-layer metrics. Progress goes to standard error; the
//! last line of standard output is the result object. See `README.md`
//! next to this file for the workloads, the metrics and what each layer
//! metric is predicted to move.

mod batch;
mod check;
mod report;
mod serve;
mod stats;
mod trace;

use check::CheckReport;
use report::{Report, METRICS};
use rp_bench::alloc_track;
use rp_tree::{Dist, Requests, Solution, TreeArena};
use std::time::Instant;
use trace::Tracer;

#[global_allocator]
static ALLOC: alloc_track::CountingAlloc = alloc_track::CountingAlloc;

/// The workloads, by name.
const WORKLOADS: &[&str] = &["batch-huge", "batch-spine-nod", "serve-nod"];

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number =
            || value.parse::<u64>().map_err(|_| format!("{flag}: `{value}` is not a number"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (one of {})", WORKLOADS.join(", ")));
    }
    let seconds = seconds.unwrap_or(25);
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    Ok(Args { workload, seed: seed.ok_or("--seed is required")?, seconds, trace })
}

/// State shared by every phase of one run: the tracer, the metrics, and
/// the tally of checked outputs.
pub struct Run {
    /// Span recorder (off for untraced runs).
    pub tracer: Tracer,
    /// Metric values.
    pub report: Report,
    /// The `--seed` argument.
    pub seed: u64,
    /// The `--seconds` argument, which sizes the fixed work.
    pub seconds: u64,
    /// Whether this is a traced run.
    pub traced: bool,
    outputs: u64,
    outputs_failed: u64,
    checks: CheckReport,
    check_s: f64,
}

impl Run {
    /// Sub-seed `i` of the run seed (splitmix64), so each generated input
    /// of a run is independent and fixed by `--seed` alone.
    pub fn sub_seed(&self, i: u64) -> u64 {
        let mut z = self.seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i + 1));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Runs `f` in a span named `layer` and returns its result and its
    /// duration in seconds.
    pub fn timed<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.tracer.begin(layer);
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        self.tracer.end(open);
        (out, secs)
    }

    /// Runs the linear checker on one output, outside every timed window,
    /// and adds what it found to the run's totals. Counting the output as
    /// passed or failed is left to [`Run::output`], since an output can
    /// also fail by differing from its reference.
    pub fn check(
        &mut self,
        arena: &TreeArena,
        w: Requests,
        dmax: Option<Dist>,
        single: bool,
        solution: &Solution,
    ) -> CheckReport {
        let (found, secs) = self.timed("bench", || check::check(arena, w, dmax, single, solution));
        self.check_s += secs;
        self.checks.absorb(&found);
        found
    }

    /// Counts one checked output, failed unless `ok`; `what` names the
    /// check in the progress log when it fails.
    pub fn output(&mut self, ok: bool, what: &str) {
        self.outputs += 1;
        if !ok {
            self.outputs_failed += 1;
            if self.outputs_failed <= 5 {
                eprintln!("check failed: {what}");
            }
        }
    }

    fn finish(mut self, workload: &str, wall_s: f64) -> String {
        let checks = self.checks;
        let r = &mut self.report;
        r.set("peak_heap_mb", alloc_track::peak_bytes() as f64 / (1024.0 * 1024.0));
        r.set("bench.check_s", self.check_s);
        r.set("bench.outputs_checked", self.outputs as f64);
        r.set("bench.failed_share", self.outputs_failed as f64 / self.outputs.max(1) as f64);
        r.set("bench.check.underserved_clients", checks.underserved_clients as f64);
        r.set("bench.check.underserved_requests", checks.underserved_requests as f64);
        r.set("bench.check.capacity_violations", checks.capacity_violations as f64);
        r.set("bench.check.distance_violations", checks.distance_violations as f64);
        r.set(
            "bench.check.other_violations",
            (checks.placement_violations + checks.overserved_clients + checks.split_clients) as f64,
        );
        r.set("bench.check.idle_replicas", checks.idle_replicas as f64);
        if self.traced {
            let own = self.tracer.self_seconds();
            for m in METRICS.iter().filter(|m| m.name.starts_with("self_s.")) {
                r.set(m.name, own.get(m.layer).copied().unwrap_or(0.0));
            }
            r.set("trace.coverage", self.tracer.coverage());
            let path = std::path::PathBuf::from(".bench_trace")
                .join(format!("{workload}-seed{}.jsonl", self.seed));
            match self.tracer.write_jsonl(&path) {
                Ok(()) => {
                    eprintln!("{} spans written to {}", self.tracer.spans().len(), path.display())
                }
                Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
            }
        }
        eprintln!(
            "{workload}: {} outputs checked, {} failed, {:.1} s wall",
            self.outputs, self.outputs_failed, wall_s
        );
        r.result_line(self.traced, self.outputs_failed == 0, self.outputs, self.outputs_failed)
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: rp-benchmark --workload <{}> --seed <n> [--seconds <n>] [--trace <0|1>]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let start = Instant::now();
    alloc_track::reset_peak();
    let run_id = format!("{}-seed{}-pid{}", args.workload, args.seed, std::process::id());
    let mut run = Run {
        tracer: Tracer::new(run_id, args.trace),
        report: Report::default(),
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        outputs: 0,
        outputs_failed: 0,
        checks: CheckReport::default(),
        check_s: 0.0,
    };
    match args.workload.as_str() {
        "batch-huge" => batch::run(&mut run, batch::HUGE),
        "batch-spine-nod" => batch::run(&mut run, batch::SPINE_NOD),
        "serve-nod" => serve::run(&mut run),
        _ => unreachable!("workload names are checked by parse_args"),
    }
    let line = run.finish(&args.workload, start.elapsed().as_secs_f64());
    println!("{line}");
}
