//! The `serve-nod` workload: a warm `ServeEngine` with its write-ahead
//! log attached, driven by one closed-loop caller.
//!
//! Each round the caller applies a batch of demand deltas, asks for a
//! re-solve and waits for it. Every round's placement goes through the
//! linear checker, and at fixed rounds it is also compared with a cold
//! solve of the same demands. After the loop, fresh engines are revived
//! from the state directory the loop wrote, and each revived engine's
//! demand and first placement are compared with the live engine's.

use crate::batch::{add_stage_stats, io_roundtrip, overhead_share, report_stage_stats};
use crate::stats::{median, quantile, throughput};
use crate::Run;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rp_core::serve::persist::{self, FsyncPolicy, PersistConfig, Recovery};
use rp_core::{DemandDelta, ServeEngine, SolverScratch, StageStats};
use rp_tree::{Solution, StreamNode};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

const CLIENTS: usize = 16_384;
/// The serve soak bench's instance seed: every run serves the same
/// network, and `--seed` draws the delta stream.
const SOAK_SEED: u64 = 0xE6 ^ (CLIENTS as u64).rotate_left(17) ^ 1;
/// No distance bound: every request may travel to the root, so each
/// re-solve re-searches one root stage and its cost barely depends on the
/// delta stream. The serve soak's own `dmax` fraction, 0.3, is not used:
/// there `multiple-bin` returns placements that leave clients underserved
/// (the `underserved-placements` defect in `README.md`), and a benchmark
/// only times work whose outputs are correct. At 0.7 the placements are
/// feasible, but the cost of re-searching the giant stages near the root
/// follows the demand's path, so runs on different seeds differed by up to
/// 1.7x in throughput.
const DMAX_FRACTION: Option<f64> = None;
const DELTAS_PER_ROUND: usize = 8;
/// Fewest rounds a run makes: p95 then has ten samples beyond it, and the
/// WAL reaches `rp serve`'s default snapshot interval at least once.
const MIN_ROUNDS: usize = 200;
/// Share of `--seconds` given to each round: with `--seconds` it fixes the
/// round count without looking at a clock. A round takes about 0.026 s on a
/// 2-vCPU x86-64 machine, so the loop alone runs a little under `--seconds`.
const NOMINAL_ROUND_S: f64 = 0.03;
/// Every this many rounds the placement is also compared with a cold solve.
const COLD_CHECK_EVERY: usize = 64;
/// Engines set up per run (the median is `setup_s`). A set-up takes less
/// than 0.05 s, so many of them keep the median steady.
const SETUPS: usize = 15;
/// Engines revived from the state directory per run (the median is
/// `core.serve.recovery_s`).
const REVIVALS: usize = 3;

/// `rp serve`'s defaults, but without fsync: fsync latency measures the
/// machine's disk, not the code.
const PERSIST: PersistConfig = PersistConfig { fsync: FsyncPolicy::Never, snapshot_every: 1024 };

/// One always-valid delta: adds never exceed capacity and subtractions
/// never go below zero (the generator of the serve soak bench).
fn next_delta(rng: &mut StdRng, clients: &[u32], demand: &mut [u64], w: u64) -> (u32, DemandDelta) {
    let i = rng.gen_range(0..clients.len());
    let cur = demand[i];
    let headroom = w - cur;
    let roll: u8 = rng.gen_range(0..10);
    let (delta, new) = if roll < 6 && headroom > 0 {
        let k = rng.gen_range(1..=headroom.min(9));
        (DemandDelta::Add(k), cur + k)
    } else if roll < 9 && cur > 0 {
        let k = rng.gen_range(1..=cur.min(9));
        (DemandDelta::Sub(k), cur - k)
    } else {
        let k = rng.gen_range(0..=w.min(9));
        (DemandDelta::Set(k), k)
    };
    demand[i] = new;
    (clients[i], delta)
}

/// A cold `multiple-bin` solve of the engine's current demands on a fresh
/// scratch (the arena is re-streamed outside the timed window).
fn cold_solve(run: &mut Run, engine: &ServeEngine) -> (Option<Solution>, f64) {
    let arena = engine.arena();
    let mut scratch = SolverScratch::new();
    scratch
        .load_arena_from_stream(
            arena.len(),
            (0..arena.len() as u32).map(|v| StreamNode {
                parent: arena.parent(v),
                edge: arena.edge(v),
                requests: arena.requests(v),
                is_client: arena.is_client(v),
            }),
        )
        .expect("re-streaming a valid arena is valid");
    let (solution, secs) = run.timed("core.multiple_bin", || {
        rp_core::multiple_bin_arena(&mut scratch, engine.capacity(), engine.dmax())
    });
    (solution.ok(), secs)
}

/// Removes the run's state directory when dropped, however the run ends.
struct StateDir(PathBuf);

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run's directory is left in it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Times of the run's set-ups, one entry per set-up.
#[derive(Default)]
struct SetupTimes {
    /// Generation + arena load + engine build + `attach_persist` + first
    /// solve: `setup_s`.
    total: Vec<f64>,
    generate: Vec<f64>,
    load: Vec<f64>,
    first_solve: Vec<f64>,
}

/// One set-up: generates the instance, loads the arena, builds the engine,
/// attaches a fresh state directory at `dir` and solves once (cold).
fn set_up(run: &mut Run, dir: &Path, times: &mut SetupTimes) -> (ServeEngine, rp_tree::Instance) {
    let (instance, g) =
        run.timed("instances", || rp_bench::binary_instance(CLIENTS, DMAX_FRACTION, SOAK_SEED));
    let mut scratch = SolverScratch::new();
    let ((), l) = run.timed("treenet", || scratch.load_arena(instance.tree()));
    let (engine, e) = run.timed("core.serve", || {
        ServeEngine::from_scratch(scratch, instance.capacity(), instance.dmax())
    });
    let mut engine = engine.expect("binary instances with r_i <= W");
    let (recovery, a) = run.timed("core.serve.persist", || engine.attach_persist(dir, PERSIST));
    assert_eq!(recovery.expect("a fresh state directory attaches"), Recovery::Cold);
    let (first, s) = run.timed("core.serve", || engine.solve());
    first.expect("the generated instance is feasible");
    times.total.push(g + l + e + a + s);
    times.generate.push(g);
    times.load.push(l);
    times.first_solve.push(s);
    (engine, instance)
}

/// Runs `serve-nod`.
pub fn run(run: &mut Run) {
    let rounds = ((run.seconds as f64 / NOMINAL_ROUND_S).round() as usize).max(MIN_ROUNDS);
    eprintln!(
        "serve-nod: {CLIENTS} clients, {SETUPS} set-ups, {rounds} rounds of \
         {DELTAS_PER_ROUND} deltas, {REVIVALS} revivals"
    );
    let state =
        StateDir(PathBuf::from(".bench_state").join(format!("serve-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&state.0);

    // Set-up. The first engine serves the loop; the other set-ups are
    // spread over the loop, so that their median covers the whole run and
    // not only its first second.
    let mut setups = SetupTimes::default();
    let live_dir = state.0.join("setup-0");
    let (mut engine, instance) = set_up(run, &live_dir, &mut setups);
    let first_solution = engine.solution();
    let setup_every = rounds / SETUPS;
    let (w, dmax) = (instance.capacity(), instance.dmax());
    let found = run.check(engine.arena(), w, dmax, false, &first_solution);
    run.output(found.is_valid(), &format!("first placement infeasible: {found:?}"));
    run.report.set("core.serve.replicas", found.replicas as f64);

    // The closed loop.
    let clients: Vec<u32> =
        (0..engine.arena().len() as u32).filter(|&v| engine.arena().is_client(v)).collect();
    let mut demand: Vec<u64> = clients.iter().map(|&c| engine.arena().requests(c)).collect();
    let mut rng = StdRng::seed_from_u64(run.sub_seed(0));
    let before = *engine.stats();
    let mut apply_s = Vec::with_capacity(rounds * DELTAS_PER_ROUND);
    let mut resolve_s = Vec::with_capacity(rounds);
    let mut round_s = Vec::with_capacity(rounds);
    let mut cold_s = Vec::new();
    let (mut traced_iter_s, mut untraced_iter_s) = (Vec::new(), Vec::new());
    let mut stages = StageStats::default();
    let mut dirty = 0u64;
    let mut invalid_rounds = 0u64;
    let mut replicas = 0u64;
    for round in 0..rounds {
        if run.traced {
            run.tracer.set_enabled(round % 2 == 0);
        }
        let started = Instant::now();
        let mut applied = true;
        for _ in 0..DELTAS_PER_ROUND {
            let (node, delta) = next_delta(&mut rng, &clients, &mut demand, w);
            let (result, secs) = run.timed("core.serve", || engine.apply_delta(node, delta));
            applied &= result.is_ok();
            apply_s.push(secs);
        }
        let (outcome, secs) = run.timed("core.serve", || engine.solve());
        let iteration_s = started.elapsed().as_secs_f64();
        resolve_s.push(secs);
        round_s.push(iteration_s);
        if run.traced {
            let side = if round % 2 == 0 { &mut traced_iter_s } else { &mut untraced_iter_s };
            side.push(iteration_s);
            run.tracer.set_enabled(true);
        }
        add_stage_stats(&mut stages, engine.stage_stats());
        if let Ok(o) = &outcome {
            dirty += o.dirty_clients;
        }

        let placement = engine.solution();
        let found = run.check(engine.arena(), w, dmax, false, &placement);
        invalid_rounds += u64::from(!found.is_valid());
        replicas += found.replicas;
        let mut ok = applied && outcome.is_ok() && found.is_valid();
        if (round + 1) % COLD_CHECK_EVERY == 0 {
            let (cold, secs) = cold_solve(run, &engine);
            cold_s.push(secs);
            ok &= cold.as_ref() == Some(&placement);
        }
        run.output(ok, &format!("round {round}: {found:?}, outcome {outcome:?}"));
        if (round + 1) % setup_every == 0 && setups.total.len() < SETUPS {
            let dir = state.0.join(format!("setup-{}", setups.total.len()));
            let (other, _) = set_up(run, &dir, &mut setups);
            let same = other.solution() == first_solution;
            run.output(same, "set-ups of one instance solved differently");
        }
    }
    run.tracer.set_enabled(run.traced);
    eprintln!("{invalid_rounds} of {rounds} warm placements infeasible");
    let after = *engine.stats();
    let counters = engine.persist_counters().expect("persistence is attached");
    let final_solution = engine.solution();
    let (write_s, parse_s, lost) = io_roundtrip(run, &final_solution);

    // Recovery: revive fresh engines over the loop's state directory.
    let (recovery_s, recover_s) =
        revive(run, &engine, &instance, &live_dir, &clients, &final_solution);
    drop(engine);

    let reused = after.stages_reused - before.stages_reused;
    let recomputed = after.stages_recomputed - before.stages_recomputed;
    let r = &mut run.report;
    r.set("setup_s", median(&setups.total));
    r.set("clients_per_s", throughput(CLIENTS as f64 * rounds as f64, &round_s));
    r.set("replicas", replicas as f64 / rounds as f64);
    r.set("core.serve.resolve_ms_p50", median(&resolve_s) * 1e3);
    r.set("instances.gen_s", median(&setups.generate));
    r.set("treenet.arena_load_s", median(&setups.load));
    r.set("treenet.io.write_s", write_s);
    r.set("treenet.io.parse_s", parse_s);
    r.set("treenet.io.replicas_lost", lost as f64);
    r.set("core.multiple_bin.first_solve_s", median(&setups.first_solve));
    r.set("core.multiple_bin.solve_s_p50", median(&cold_s));
    r.set("core.multiple_bin.solve_s_p90", quantile(&cold_s, 0.9));
    r.set("core.multiple_bin.solves", cold_s.len() as f64);
    r.set("core.serve.apply_s_p50", median(&apply_s));
    r.set("core.serve.apply_s_p95", quantile(&apply_s, 0.95));
    r.set("core.serve.resolve_ms_p95", quantile(&resolve_s, 0.95) * 1e3);
    r.set("core.serve.deltas_per_s", throughput(apply_s.len() as f64, &round_s));
    r.set("core.serve.rounds", rounds as f64);
    r.set("core.serve.stages_reused", reused as f64);
    r.set("core.serve.stages_recomputed", recomputed as f64);
    r.set("core.serve.reuse_share", reused as f64 / (reused + recomputed).max(1) as f64);
    r.set("core.serve.dirty_clients_per_solve", dirty as f64 / rounds as f64);
    r.set("core.serve.full_solves", (after.full_solves - before.full_solves) as f64);
    r.set(
        "core.serve.incremental_solves",
        (after.incremental_solves - before.incremental_solves) as f64,
    );
    r.set("core.serve.stale_served", (after.stale_served - before.stale_served) as f64);
    r.set("core.serve.cold_solve_s", median(&cold_s));
    r.set("core.serve.warm_speedup", median(&cold_s) / median(&resolve_s));
    r.set("core.serve.recovery_s", median(&recovery_s));
    r.set("core.serve.persist.recover_s", median(&recover_s));
    r.set("core.serve.persist.wal_bytes", counters.wal_bytes as f64);
    r.set("core.serve.persist.snapshot_bytes", counters.snapshot_bytes as f64);
    r.set("core.serve.persist.snapshots_written", counters.snapshots_written as f64);
    r.set("core.serve.persist.snapshot_failures", counters.snapshot_failures as f64);
    r.set("trace.overhead_share", overhead_share(&traced_iter_s, &untraced_iter_s));
    report_stage_stats(run, &stages);
    for layer in ["core.par", "core.single_gen", "core.single_nod"] {
        run.report.skip_layer(layer);
    }
}

/// Revives engines from `dir` and compares each with the live one;
/// returns the revival times (`new` + `attach_persist` + first solve) and
/// the times of `persist::recover` alone.
fn revive(
    run: &mut Run,
    live: &ServeEngine,
    instance: &rp_tree::Instance,
    dir: &Path,
    clients: &[u32],
    live_solution: &Solution,
) -> (Vec<f64>, Vec<f64>) {
    let mut recovery_s = Vec::new();
    let mut recover_s = Vec::new();
    for _ in 0..REVIVALS {
        // One span for the whole revival, with the layer calls inside it.
        let revival = run.tracer.begin("core.serve");
        let (engine, a) = run.timed("core.serve", || ServeEngine::new(instance));
        let mut engine = engine.expect("the live instance builds an engine");
        let (recovery, b) = run.timed("core.serve.persist", || engine.attach_persist(dir, PERSIST));
        let (solved, c) = run.timed("core.serve", || engine.solve());
        run.tracer.end(revival);
        recovery_s.push(a + b + c);
        let replayed = matches!(recovery, Ok(Recovery::Replayed { .. }));
        let same_demand = clients.iter().all(|&c| engine.requests_of(c) == live.requests_of(c));
        run.output(replayed && same_demand, "recovered demand differs from live demand");
        let same_placement = solved.is_ok() && engine.solution() == *live_solution;
        run.output(same_placement, "revived engine solved differently from the live one");

        let (recovered, secs) = run.timed("core.serve.persist", || persist::recover(dir));
        recover_s.push(secs);
        // The loop wrote a snapshot, which holds every client, so the
        // recovered map must name each one with its live demand.
        let complete = recovered.is_ok_and(|r| {
            let demands: HashMap<u32, u64> = r.demands.into_iter().collect();
            demands.len() == clients.len()
                && clients.iter().all(|&c| demands.get(&c).copied() == live.requests_of(c))
        });
        run.output(complete, "persist::recover disagrees with live demand");
    }
    (recovery_s, recover_s)
}
