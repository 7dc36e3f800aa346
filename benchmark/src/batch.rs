//! The batch workloads: generate an instance, load it into a solver
//! scratch, and solve it again and again with `multiple-bin` on one thread.
//!
//! A run works through a few instances drawn from the seed. For each one
//! it times the set-up (generation, arena load, first cold solve on a fresh
//! scratch), checks the first solution with the linear checker, round-trips
//! it through the text format, and then times repeated solves on the same
//! scratch; every repeat must reproduce the first solution and its stage
//! counters exactly. Traced runs of `batch-huge` also solve the last
//! instance with the frontier-parallel driver and with the two Single
//! heuristics.
//!
//! `batch-huge` instances are the scaling bench's 262144-client huge-tier
//! tree under a numbering drawn from the seed (see [`relabel`]): every seed
//! poses the same placement problem. Drawing a fresh random tree per seed
//! instead makes the solve time swing from 0.7 s to 6.5 s between seeds,
//! because the enumeration budget reacts to small input changes, and no
//! affordable number of instances per run averages that out.

use crate::stats::{median, quantile, throughput};
use crate::Run;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rp_core::{SolverScratch, StageStats};
use rp_instances::{
    binary_tree_len, instance_params_from_arena, stream_binary_tree, EdgeDist, RequestDist,
};
use rp_tree::{io, Dist, Requests, Solution, StreamNode};
use std::time::Instant;

/// Which instance family a batch workload solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    /// The huge-tier streamed binary tree, renumbered per seed, `dmax` at
    /// 0.7 of the span.
    Huge,
    /// `long_spine_instance` without a distance bound.
    SpineNod,
}

/// A batch workload's definition.
#[derive(Debug, Clone, Copy)]
pub struct Batch {
    family: Family,
    clients: usize,
    /// Instances per run; each is set up once and then re-solved.
    instances: usize,
    /// Nominal seconds per solve on a 2-vCPU x86-64 machine: with
    /// `--seconds`, it fixes how many timed solves a run makes. The count
    /// depends on nothing measured, so every run does the same work.
    nominal_solve_s: f64,
}

/// `batch-huge`: 262144 clients, enumeration-bound.
pub const HUGE: Batch =
    Batch { family: Family::Huge, clients: 262_144, instances: 3, nominal_solve_s: 1.5 };

/// `batch-spine-nod`: one maximal chain stage over 4096 clients. A solve's
/// peak heap grows with the square of the spine: about 200 MB here, but
/// about 3 GB at 16384 clients, whose runs moved by up to a third between
/// two sets of runs of the same code.
pub const SPINE_NOD: Batch =
    Batch { family: Family::SpineNod, clients: 4_096, instances: 5, nominal_solve_s: 0.23 };

impl Batch {
    /// Timed solves per instance for a `--seconds` budget (at least one).
    fn timed_per_instance(&self, seconds: u64) -> usize {
        let per = seconds as f64 / (self.nominal_solve_s * self.instances as f64);
        (per.round() as usize).max(1)
    }
}

/// Seed of the scaling bench's 262144-client huge-tier tree.
const HUGE_TIER_SEED: u64 = 0xE6 ^ 262_144u64.rotate_left(17) ^ 1;

/// Re-emits a parents-first node stream in pre-order, visiting each
/// node's children in an order drawn from `rng`: an isomorphic tree with
/// the same distances and demands under another numbering. Its optimum is
/// the same for every draw, so replica counts that differ between seeds
/// show that the solver's output depends on node numbering.
fn relabel(nodes: &[StreamNode], rng: &mut StdRng) -> Vec<StreamNode> {
    let n = nodes.len();
    let mut start = vec![0u32; n + 1];
    for node in &nodes[1..] {
        start[node.parent as usize + 1] += 1;
    }
    for v in 0..n {
        start[v + 1] += start[v];
    }
    let mut fill = start.clone();
    let mut children = vec![0u32; n.saturating_sub(1)];
    for (v, node) in nodes.iter().enumerate().skip(1) {
        children[fill[node.parent as usize] as usize] = v as u32;
        fill[node.parent as usize] += 1;
    }
    let mut out = Vec::with_capacity(n);
    let mut new_id = vec![0u32; n];
    let mut stack = vec![0u32];
    while let Some(v) = stack.pop() {
        let mut node = nodes[v as usize];
        if v != 0 {
            node.parent = new_id[node.parent as usize];
        }
        new_id[v as usize] = out.len() as u32;
        out.push(node);
        let kids = &mut children[start[v as usize] as usize..start[v as usize + 1] as usize];
        for i in (1..kids.len()).rev() {
            kids.swap(i, rng.gen_range(0..=i));
        }
        stack.extend(kids.iter().rev());
    }
    out
}

/// One generated instance, before its arena is loaded.
enum Input {
    Stream(Vec<StreamNode>),
    Tree(rp_tree::Instance),
}

/// Generates one instance of `family` (the `instances` layer). The
/// huge-tier stream is the same for every seed; [`relabel`] renumbers it
/// afterwards.
fn generate(family: Family, clients: usize, seed: u64) -> Input {
    match family {
        Family::Huge => {
            let edges = EdgeDist::Uniform { lo: 1, hi: 3 };
            let requests = RequestDist::Uniform { lo: 1, hi: 9 };
            let mut tier = StdRng::seed_from_u64(HUGE_TIER_SEED);
            Input::Stream(stream_binary_tree(clients, &edges, &requests, &mut tier).collect())
        }
        Family::SpineNod => Input::Tree(rp_bench::long_spine_instance(clients, false, seed)),
    }
}

/// Adds `s` into `total` (`router_carried_peak` is a maximum).
pub fn add_stage_stats(total: &mut StageStats, s: &StageStats) {
    total.stages += s.stages;
    total.subsets_enumerated += s.subsets_enumerated;
    total.subsets_routed += s.subsets_routed;
    total.subsets_pruned += s.subsets_pruned;
    total.prefix_routes += s.prefix_routes;
    total.dp_sizes_skipped += s.dp_sizes_skipped;
    total.dp_bound_skips += s.dp_bound_skips;
    total.dp_fallbacks += s.dp_fallbacks;
    total.dp_node_visits += s.dp_node_visits;
    total.repairs += s.repairs;
    total.commit_touched += s.commit_touched;
    total.commit_skipped += s.commit_skipped;
    total.router_carry_merges += s.router_carry_merges;
    total.router_carried_peak = total.router_carried_peak.max(s.router_carried_peak);
    total.scope_cache_hits += s.scope_cache_hits;
    total.warm_seeds_used += s.warm_seeds_used;
}

/// Records the `core.stage.*` counters.
pub fn report_stage_stats(run: &mut Run, s: &StageStats) {
    let r = &mut run.report;
    r.set("core.stage.stages", s.stages as f64);
    r.set("core.stage.subsets_enumerated", s.subsets_enumerated as f64);
    r.set("core.stage.subsets_routed", s.subsets_routed as f64);
    r.set("core.stage.subsets_pruned", s.subsets_pruned as f64);
    r.set("core.stage.prefix_routes", s.prefix_routes as f64);
    let share = if s.subsets_enumerated == 0 {
        0.0
    } else {
        s.subsets_routed as f64 / s.subsets_enumerated as f64
    };
    r.set("core.stage.route_share", share);
    r.set("core.stage.router_carry_merges", s.router_carry_merges as f64);
    r.set("core.stage.router_carried_peak", s.router_carried_peak as f64);
    r.set("core.stage.commit_touched", s.commit_touched as f64);
    r.set("core.stage.commit_skipped", s.commit_skipped as f64);
    r.set("core.stage.dp_node_visits", s.dp_node_visits as f64);
    r.set("core.stage.dp_fallbacks", s.dp_fallbacks as f64);
    r.set("core.stage.dp_sizes_skipped", s.dp_sizes_skipped as f64);
    r.set("core.stage.dp_bound_skips", s.dp_bound_skips as f64);
    r.set("core.stage.scope_cache_hits", s.scope_cache_hits as f64);
    r.set("core.stage.warm_seeds_used", s.warm_seeds_used as f64);
    r.set("core.stage.repairs", s.repairs as f64);
}

/// Writes `solution` in the text format and parses it back (the
/// `treenet.io` layer); returns write and parse seconds and the replicas
/// the round trip lost.
pub fn io_roundtrip(run: &mut Run, solution: &Solution) -> (f64, f64, u64) {
    let (text, write_s) = run.timed("treenet", || io::write_solution(solution));
    let (parsed, parse_s) = run.timed("treenet", || io::parse_solution(&text));
    let lost = match parsed {
        Ok(parsed) => {
            (solution.replica_count() as u64).saturating_sub(parsed.replica_count() as u64)
        }
        Err(e) => {
            run.output(false, &format!("written solution does not parse: {e}"));
            solution.replica_count() as u64
        }
    };
    (write_s, parse_s, lost)
}

/// Per-run tallies of the batch loop.
#[derive(Default)]
struct Tally {
    setup_s: Vec<f64>,
    gen_s: Vec<f64>,
    load_s: Vec<f64>,
    first_s: Vec<f64>,
    solve_s: Vec<f64>,
    write_s: Vec<f64>,
    parse_s: Vec<f64>,
    replicas: Vec<f64>,
    replicas_lost: u64,
    stages: StageStats,
    /// Wall time of whole timed iterations, traced and untraced, for the
    /// tracing overhead.
    traced_iter_s: Vec<f64>,
    untraced_iter_s: Vec<f64>,
}

/// Runs a batch workload.
pub fn run(run: &mut Run, batch: Batch) {
    let timed = batch.timed_per_instance(run.seconds);
    eprintln!(
        "{:?}: {} clients, {} instances x (set-up + {timed} timed solves)",
        batch.family, batch.clients, batch.instances
    );
    let mut t = Tally::default();
    for index in 0..batch.instances {
        let seed = run.sub_seed(index as u64);
        let (input, gen_s) = run.timed("instances", || generate(batch.family, batch.clients, seed));
        // Renumbering is the benchmark's own work, so it stays out of set-up.
        let input = match input {
            Input::Stream(nodes) => Input::Stream(
                run.timed("bench", || relabel(&nodes, &mut StdRng::seed_from_u64(seed))).0,
            ),
            tree => tree,
        };
        let mut scratch = SolverScratch::new();
        let mut params_s = 0.0;
        let (w, dmax): (Requests, Option<Dist>) = match input {
            Input::Stream(nodes) => {
                let len = binary_tree_len(batch.clients);
                let (loaded, load_s) =
                    run.timed("treenet", || scratch.load_arena_from_stream(len, nodes));
                loaded.expect("generated binary trees are well formed");
                t.load_s.push(load_s);
                let ((w, dmax), secs) = run.timed("instances", || {
                    instance_params_from_arena(scratch.arena(), 3.0, Some(0.7))
                });
                params_s = secs;
                (w, dmax)
            }
            Input::Tree(instance) => {
                let ((), load_s) = run.timed("treenet", || scratch.load_arena(instance.tree()));
                t.load_s.push(load_s);
                (instance.capacity(), instance.dmax())
            }
        };
        t.gen_s.push(gen_s + params_s);
        let (first, first_s) =
            run.timed("core.multiple_bin", || rp_core::multiple_bin_arena(&mut scratch, w, dmax));
        let first = first.expect("batch instances are binary with r_i <= W");
        let first_stats = *scratch.stage_stats();
        t.first_s.push(first_s);
        t.setup_s.push(gen_s + params_s + t.load_s[index] + first_s);
        add_stage_stats(&mut t.stages, &first_stats);

        let found = run.check(scratch.arena(), w, dmax, false, &first);
        let first_ok = found.is_valid();
        run.output(first_ok, &format!("instance {index}: first solution infeasible: {found:?}"));
        t.replicas.push(found.replicas as f64);
        let (write_s, parse_s, lost) = io_roundtrip(run, &first);
        t.write_s.push(write_s);
        t.parse_s.push(parse_s);
        t.replicas_lost += lost;

        for j in 0..timed {
            // Traced runs alternate traced and untraced solves across the
            // whole run, which compares like with like: the instances are
            // renumberings, or spines that differ only in demand.
            let traced_turn = t.solve_s.len() % 2 == 0;
            if run.traced {
                run.tracer.set_enabled(traced_turn);
            }
            let iteration = Instant::now();
            let (solution, secs) = run
                .timed("core.multiple_bin", || rp_core::multiple_bin_arena(&mut scratch, w, dmax));
            let iteration_s = iteration.elapsed().as_secs_f64();
            if run.traced {
                let side = if traced_turn { &mut t.traced_iter_s } else { &mut t.untraced_iter_s };
                side.push(iteration_s);
                run.tracer.set_enabled(true);
            }
            t.solve_s.push(secs);
            let same = match &solution {
                Ok(s) => *s == first && *scratch.stage_stats() == first_stats,
                Err(_) => false,
            };
            run.output(same, &format!("instance {index}: repeat {j} differs or failed"));
        }

        eprintln!(
            "instance {index}: set-up {:.3} s (first solve {first_s:.3} s), timed solves {:?} s, \
             {} replicas, {} stages",
            t.setup_s[index],
            &t.solve_s[t.solve_s.len() - timed..],
            found.replicas,
            first_stats.stages
        );
        if run.traced && batch.family == Family::Huge && index + 1 == batch.instances {
            extra_solvers(run, &mut scratch, w, dmax, &first, &first_stats, median(&t.solve_s));
        }
    }

    let clients = batch.clients as f64;
    let r = &mut run.report;
    r.set("setup_s", median(&t.setup_s));
    r.set("clients_per_s", throughput(clients * t.solve_s.len() as f64, &t.solve_s));
    r.set("replicas", t.replicas.iter().sum::<f64>() / t.replicas.len() as f64);
    r.set("instances.gen_s", median(&t.gen_s));
    r.set("treenet.arena_load_s", median(&t.load_s));
    r.set("treenet.io.write_s", median(&t.write_s));
    r.set("treenet.io.parse_s", median(&t.parse_s));
    r.set("treenet.io.replicas_lost", t.replicas_lost as f64);
    r.set("core.multiple_bin.first_solve_s", median(&t.first_s));
    r.set("core.multiple_bin.solve_s_p50", median(&t.solve_s));
    r.set("core.multiple_bin.solve_s_p90", quantile(&t.solve_s, 0.9));
    r.set("core.multiple_bin.solves", (t.solve_s.len() + t.first_s.len()) as f64);
    r.set("trace.overhead_share", overhead_share(&t.traced_iter_s, &t.untraced_iter_s));
    report_stage_stats(run, &t.stages);
    run.report.skip_layer("core.serve");
    run.report.skip_layer("core.serve.persist");
    if batch.family != Family::Huge {
        for layer in ["core.par", "core.single_gen", "core.single_nod"] {
            run.report.skip_layer(layer);
        }
    }
}

/// Mean traced iteration over mean untraced iteration, minus one (0 when
/// either side has no sample).
pub fn overhead_share(traced: &[f64], untraced: &[f64]) -> f64 {
    if traced.is_empty() || untraced.is_empty() {
        return 0.0;
    }
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    mean(traced) / mean(untraced) - 1.0
}

/// The traced-run extras of `batch-huge`: the frontier-parallel driver
/// against the serial solution, and the two Single heuristics on the same
/// arena.
fn extra_solvers(
    run: &mut Run,
    scratch: &mut SolverScratch,
    w: Requests,
    dmax: Option<Dist>,
    serial: &Solution,
    serial_stats: &StageStats,
    serial_s: f64,
) {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()).min(4);
    let (par, par_s) =
        run.timed("core.par", || rp_core::multiple_bin_par(scratch, w, dmax, threads));
    let matches = matches!(&par, Ok(p) if p == serial) && scratch.stage_stats() == serial_stats;
    run.output(matches, "parallel solution differs from serial");
    let r = &mut run.report;
    r.set("core.par.threads", threads as f64);
    r.set("core.par.solve_s", par_s);
    r.set("core.par.speedup", serial_s / par_s);
    r.set("core.par.mismatches", if matches { 0.0 } else { 1.0 });

    let (sg, sg_s) = run.timed("core.single_gen", || rp_core::single_gen_arena(scratch, w, dmax));
    let sg = sg.expect("r_i <= W");
    let found = run.check(scratch.arena(), w, dmax, true, &sg);
    run.output(found.is_valid(), &format!("single-gen infeasible: {found:?}"));
    run.report.set("core.single_gen.solve_s", sg_s);
    run.report.set("core.single_gen.replicas", found.replicas as f64);

    // Single-NoD ignores the distance bound by definition.
    let (sn, sn_s) = run.timed("core.single_nod", || rp_core::single_nod_arena(scratch, w));
    let sn = sn.expect("r_i <= W");
    let found = run.check(scratch.arena(), w, None, true, &sn);
    run.output(found.is_valid(), &format!("single-nod infeasible: {found:?}"));
    run.report.set("core.single_nod.solve_s", sn_s);
    run.report.set("core.single_nod.replicas", found.replicas as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_core::SolverScratch;

    /// Per-client (depth, distance to the root, requests), sorted: equal
    /// for isomorphic trees with the same edge lengths and demands.
    fn client_profile(nodes: Vec<StreamNode>) -> Vec<(u32, u64, u64)> {
        let mut scratch = SolverScratch::new();
        let len = nodes.len();
        scratch.load_arena_from_stream(len, nodes).expect("parents come first");
        let arena = scratch.arena();
        let mut out: Vec<_> = (0..len as u32)
            .filter(|&v| arena.is_client(v))
            .map(|v| (arena.depth(v), arena.root_dist(v), arena.requests(v)))
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn relabeling_renumbers_without_changing_the_tree() {
        let edges = EdgeDist::Uniform { lo: 1, hi: 3 };
        let requests = RequestDist::Uniform { lo: 1, hi: 9 };
        let nodes: Vec<StreamNode> =
            stream_binary_tree(64, &edges, &requests, &mut StdRng::seed_from_u64(5)).collect();
        let a = relabel(&nodes, &mut StdRng::seed_from_u64(1));
        let b = relabel(&nodes, &mut StdRng::seed_from_u64(2));
        assert_eq!(a, relabel(&nodes, &mut StdRng::seed_from_u64(1)), "same seed, same input");
        assert_ne!(a, b, "another seed renumbers");
        assert!(a.iter().skip(1).enumerate().all(|(i, n)| (n.parent as usize) <= i));
        let profile = client_profile(nodes);
        assert_eq!(client_profile(a), profile);
        assert_eq!(client_profile(b), profile);
    }
}
