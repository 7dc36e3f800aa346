//! Property tests for the pooled, active-forest-restricted strict stage DP
//! (`rp_core::stage::dp_testing`, the convex segment pass behind both the
//! enumeration's lower bound and the oversized-stage fallback): on random
//! trees with **partial** demand — so the active forest is a strict
//! sub-forest of the stage subtree — the pass must produce
//!
//! * exactly the `m_j(r)` table of a naive, unpooled, **full-subtree**
//!   reference DP (allocating dense `Vec`s per node, no segment form, no
//!   forest restriction), entry for entry over the pass's table and flat
//!   beyond it. The reference deliberately stays **128-bit wide** — it
//!   doubles as the width cross-check for the 64-bit production slabs;
//! * the same minimal replica count `rmin`, with a chosen placement of
//!   exactly that size on free nodes that the reference confirms serves
//!   the whole volume.

use proptest::prelude::*;
use rp_core::stage::dp_testing::strict_dp;
use rp_tree::{Tree, TreeBuilder};

/// Infeasibility sentinel of the reference's min-plus initialisation.
const INFEASIBLE: u128 = u128::MAX / 4;

/// A generated stage scenario: tree, stage root, capacity, existing
/// replicas with loads, and stuck demand on a subset of the clients.
#[derive(Debug, Clone)]
struct Scenario {
    tree: Tree,
    j: u32,
    cap: u64,
    replicas: Vec<(u32, u64)>,
    demand: Vec<(u32, u64)>,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        prop::collection::vec((any::<u16>(), 1u64..4), 1..24), // internal nodes
        prop::collection::vec((any::<u16>(), 1u64..4, 1u64..10), 1..20), // clients
        5u64..25,                                              // capacity
        prop::collection::vec((any::<u16>(), 0u64..25), 0..6), // replica picks
        prop::collection::vec((any::<u16>(), 1u64..10), 0..12), // demand picks
        any::<u16>(),                                          // stage-root pick
    )
        .prop_map(|(internals, clients, cap, replicas, demand, j_pick)| {
            let mut b = TreeBuilder::new();
            let mut nodes = vec![b.root()];
            for (pick, edge) in internals {
                let parent = nodes[pick as usize % nodes.len()];
                nodes.push(b.add_internal(parent, edge));
            }
            let mut client_ids = Vec::new();
            for (pick, edge, req) in clients {
                let parent = nodes[pick as usize % nodes.len()];
                client_ids.push(b.add_client(parent, edge, req));
            }
            let tree = b.freeze().expect("builder trees are valid");

            // Stage root: any node with a subtree (internal or root); the
            // demand is then restricted to clients inside it.
            let j = nodes[j_pick as usize % nodes.len()].index() as u32;
            let in_subtree = |mut v: u32| loop {
                if v == j {
                    break true;
                }
                match tree.parent(rp_tree::NodeId(v)) {
                    Some(p) => v = p.index() as u32,
                    None => break false,
                }
            };

            let mut rep: Vec<(u32, u64)> = Vec::new();
            for (pick, load) in replicas {
                let u = (pick as usize % tree.len()) as u32;
                if rep.iter().all(|&(v, _)| v != u) {
                    rep.push((u, load.min(cap)));
                }
            }
            let mut dem: Vec<(u32, u64)> = Vec::new();
            for (pick, w) in demand {
                let c = client_ids[pick as usize % client_ids.len()].index() as u32;
                if in_subtree(c) {
                    dem.push((c, w));
                }
            }
            Scenario { tree, j, cap, replicas: rep, demand: dem }
        })
}

/// The naive reference: recursive full-subtree DP with per-node `Vec`s and
/// no size caps — `m_v(r)` for `r` up to the subtree's natural length.
/// The recurrence `stage/dp.rs` documents, in its plain dense form
/// (min-plus children, spare for existing replicas, one slot per free
/// node, monotonicity fix-up).
fn naive_m(
    tree: &Tree,
    v: u32,
    cap: u128,
    in_r: &[bool],
    load: &[u64],
    demand: &[u128],
) -> Vec<u128> {
    let mut base = vec![demand[v as usize]];
    for &c in tree.children(rp_tree::NodeId(v)) {
        let mc = naive_m(tree, c.index() as u32, cap, in_r, load, demand);
        let mut next = vec![INFEASIBLE; base.len() + mc.len() - 1];
        for (rp, &vp) in base.iter().enumerate() {
            for (sc, &vc) in mc.iter().enumerate() {
                let val = vp.saturating_add(vc);
                if val < next[rp + sc] {
                    next[rp + sc] = val;
                }
            }
        }
        base = next;
    }
    let vi = v as usize;
    let own_slot = usize::from(!in_r[vi]);
    let mut m = vec![INFEASIBLE; base.len() + own_slot];
    for (r, slot) in m.iter_mut().enumerate() {
        if in_r[vi] {
            if r < base.len() {
                *slot = base[r].saturating_sub(cap - load[vi] as u128).min(INFEASIBLE);
            }
        } else {
            let keep = if r < base.len() { base[r] } else { INFEASIBLE };
            let place = if r >= 1 && r - 1 < base.len() {
                base[r - 1].saturating_sub(cap)
            } else {
                INFEASIBLE
            };
            *slot = keep.min(place);
        }
    }
    for r in 1..m.len() {
        m[r] = m[r].min(m[r - 1]);
    }
    m
}

fn naive_tables(s: &Scenario, extra_replicas: &[u32]) -> Vec<u128> {
    let n = s.tree.len();
    let mut in_r = vec![false; n];
    let mut load = vec![0u64; n];
    let mut demand = vec![0u128; n];
    for &(u, l) in &s.replicas {
        in_r[u as usize] = true;
        load[u as usize] = l;
    }
    for &u in extra_replicas {
        assert!(!in_r[u as usize], "the DP only opens replicas on free nodes");
        in_r[u as usize] = true;
        load[u as usize] = 0;
    }
    for &(c, w) in &s.demand {
        demand[c as usize] += w as u128;
    }
    naive_m(&s.tree, s.j, s.cap as u128, &in_r, &load, &demand)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn pooled_forest_dp_matches_naive_full_subtree_dp(s in scenario()) {
        let run = strict_dp(&s.tree, s.j, s.cap, &s.replicas, &s.demand);
        let naive = naive_tables(&s, &[]);

        // Entry-for-entry agreement over the pass's table (one entry per
        // free node of the active forest, plus r = 0)…
        prop_assert!(!run.m_root.is_empty());
        prop_assert!(run.m_root.len() <= naive.len());
        for (r, &m) in run.m_root.iter().enumerate() {
            prop_assert_eq!(m as u128, naive[r], "m_j({}) diverged", r);
        }
        // …and flatness beyond it: extra replicas (necessarily off the
        // active forest in the reference) never reduce the pass-up volume.
        let tail = *run.m_root.last().unwrap() as u128;
        for (r, &value) in naive.iter().enumerate().skip(run.m_root.len()) {
            prop_assert_eq!(value, tail, "the reference tail was not flat at r={}", r);
        }

        let naive_rmin = naive.iter().position(|&m| m == 0);
        prop_assert_eq!(run.rmin, naive_rmin);

        // The chosen placement has exactly rmin free nodes and, grafted as
        // replicas into the reference DP, serves the whole volume with
        // zero new replicas.
        if let Some(rmin) = run.rmin {
            prop_assert_eq!(run.chosen.len(), rmin);
            let mut sorted = run.chosen.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), rmin, "chosen nodes must be distinct");
            let served = naive_tables(&s, &run.chosen);
            prop_assert_eq!(served[0], 0, "chosen placement must serve the volume");
        }
    }
}
