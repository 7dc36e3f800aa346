//! The fungible stage dynamic program, used two ways by the stage engine:
//!
//! * **Lower bound** ([`lower_bound`], relaxed mode): over the full
//!   *scoped* stage demand (the affected-scope pool of `crate::stage`)
//!   with the scope's replicas contributing their whole capacity (the
//!   stage may re-route them), dropping the deadline constraints. Any
//!   routable placement of `r` new replicas induces a fungible flow of the
//!   same shape, so the smallest `r` with zero leftover is a true lower
//!   bound on the enumeration — subset sizes below it are pruned without
//!   routing a single candidate set, and the minimising placement seeds the
//!   enumeration's incumbent.
//! * **Fallback** ([`fallback_placement`], strict mode): for stages whose
//!   candidate space exceeds the enumeration cost model — the dynamic
//!   program over the (then fungible) stuck volume with existing
//!   assignments kept fixed, exactly as in the paper's oversized-stage
//!   regime.
//!
//! Both modes run one pass of the same recurrence over the stage's
//! **active forest** — the union of the demand clients' paths to the stage
//! root, computed once per stage in `stage/mod.rs` — never the whole
//! subtree. The restriction is exact: a free node whose subtree holds no
//! stage demand can never reduce pass-up volume (its `m ≡ 0` already), and
//! an off-forest existing replica is an ancestor of no demanding client, so
//! its spare is unusable under the Multiple policy.
//!
//! # The recurrence and its convex representation
//!
//! `m_u(r)` is the minimal volume that must leave `u`'s part of the forest
//! when `r` new replicas are opened inside it, given the replicas already
//! placed. Children combine by min-plus convolution; a free node may spend
//! one replica to subtract `W`; an existing replica contributes for free —
//! its spare capacity in strict mode, its whole capacity in the re-routing
//! relaxation. Exact for the fungible volume because distances never bind
//! moving towards a client. A part with `f` free nodes has an `f + 1`-entry
//! vector (it cannot host more new replicas than it has free nodes).
//!
//! Every such vector is **convex, non-increasing, and drops by at most `W`
//! per step**:
//!
//! * a client singleton `[own]` has no steps;
//! * a free-node apply shifts the vector by one slot and subtracts `W`,
//!   creating exactly one new step `min(W, m(0))` — the largest step the
//!   vector can hold, so convexity is preserved;
//! * an existing replica subtracts its spare with a clamp at zero, which
//!   only shortens the step tail (one partial crossing step, zeros after);
//! * min-plus convolution of two convex sequences is the sorted merge of
//!   their step multisets (the classic convex-conjugacy fact), again convex
//!   with the same step bound.
//!
//! A vector is therefore fully described by its value at `r = 0`, its
//! length, and a list of `(count, step)` segments with strictly decreasing
//! steps, and the pass works on that form alone. On a maximal chain or a
//! caterpillar (the spine families, and most near-chain stage forests of
//! the huge tier) the segment count stays O(1), because every free node
//! contributes the *same* step `W`, which merges into one segment, while
//! clamp residuals are cut away as soon as the value floors at zero.
//!
//! **No size cap is needed.** Every segment holds at least one step, and
//! every step was created by one free node of the part (merges add counts,
//! clamps only remove), so a node's segment count is at most its strict
//! step count, which is at most the free nodes in its part — the length a
//! size-capped dense table would need anyway. A convolution is a linear
//! merge of the two segment lists, so the pass is never asymptotically
//! worse than the dense O(|active| · rmax) tree knapsack, and on the chain
//! shapes it is O(|active|). Debug builds assert the bound at every node.
//!
//! # The chosen placement
//!
//! When the root's table reaches zero, the smallest such `r` is `rmin`
//! and a backtrack unwinds one minimum placement into
//! [`SolverScratch::best_set`] with fixed tie-breaks (the placements the
//! pinned bench counts rest on):
//!
//! * extra replicas beyond the strict prefix are left unused: a queried
//!   `r` is redirected to `r₀ = min(r, strict)`;
//! * a free node prefers placing on ties — capacity high in the subtree
//!   can also serve travelling requests later — so it opens a replica iff
//!   `r₀ ≥ 1` (the step bound `≤ W` makes placing never worse);
//! * a convolution split gives the child the *largest* optimal share: the
//!   split objective `G(rp) = base(rp) + child(r − rp)` is convex, and the
//!   split is the first `rp` where `ΔG(rp) ≥ 0`, found by binary search
//!   over the two step sequences.
//!
//! All DP state lives in the pooled [`SparseDp`] inside [`SolverScratch`]:
//! every buffer keeps its capacity across stages and solves, so a
//! steady-state pass performs no heap allocation.

use crate::error::SolveError;
use crate::scratch::SolverScratch;
use crate::stage::PendingRequest;
use rp_tree::{NodeId, Requests};

/// Runs the relaxed dynamic program as a lower bound on the enumeration:
/// the smallest `r ≤ rmax` for which the full stage demand fits `r` new
/// replicas plus the existing ones at full capacity, ignoring deadlines.
/// Runs over the stage's active forest — the enumeration only ever places
/// on active nodes, so the bound stays valid (and tighter). The minimising
/// placement is left in `scratch.best_set` (a seed for the incumbent).
/// `None` when every `r ≤ rmax` leaves volume unserved.
pub(crate) fn lower_bound(
    scratch: &mut SolverScratch,
    cap: u64,
    j: u32,
    rmax: usize,
) -> Option<usize> {
    let SolverScratch {
        arena,
        in_r,
        load,
        demand,
        best_set,
        active_nodes,
        active_pos,
        active_mark,
        stage_id,
        sdp,
        stats,
        ..
    } = scratch;
    let stamp = *stage_id;
    sparse_dp(
        arena,
        in_r,
        load,
        demand,
        best_set,
        sdp,
        active_nodes,
        j,
        cap,
        true,
        rmax,
        &mut stats.dp_node_visits,
        &|v| active_pos[v as usize] as usize,
        &|c| active_mark[c as usize] == stamp,
    )
    .ok()
}

/// Reassignment-free fallback for oversized stages: dynamic program over the
/// (then fungible) stuck volume, existing spare included. Writes the chosen
/// placement into `scratch.best_set`.
///
/// # Errors
///
/// [`SolveError::StageDpExhausted`] when even a replica on every free node
/// of the active forest leaves stuck volume unserved — a modelling bug
/// (the sweep only creates feasible stages), surfaced as a structured
/// error instead of aborting a long solve.
pub(crate) fn fallback_placement(
    scratch: &mut SolverScratch,
    w: Requests,
    j: u32,
    stuck: &[PendingRequest],
) -> Result<(), SolveError> {
    {
        let s = &mut *scratch;
        s.dp_clients.clear();
        for t in stuck {
            if s.dp_demand[t.client as usize] == 0 {
                s.dp_clients.push(t.client);
            }
            s.dp_demand[t.client as usize] += t.w;
        }
    }
    // Narrow the forest to the *stuck* clients' paths for the DP pass:
    // a free node off every stuck path has `m ≡ 0` and an off-path
    // existing replica's spare absorbs no stuck volume, so neither can be
    // part of a minimum placement (handing either a replica share would
    // make the stage feasible with fewer — contradicting `rmin`'s
    // first-zero minimality). The DP therefore returns the same `rmin`
    // and the same placement as over the stage's full scope forest, at a
    // fraction of the cost. The caller restores the scope forest before
    // the commit route.
    scratch.stage_id += 1;
    let dp_clients = std::mem::take(&mut scratch.dp_clients);
    scratch.build_active_forest(j, &dp_clients);
    scratch.dp_clients = dp_clients;
    // No `r` beyond the active forest's free-node count can help: the root
    // table ends there.
    let free_active = scratch.active_nodes.iter().filter(|&&u| !scratch.in_r[u as usize]).count();
    let found = {
        let SolverScratch {
            arena,
            in_r,
            load,
            dp_demand,
            best_set,
            active_nodes,
            active_pos,
            active_mark,
            stage_id,
            sdp,
            stats,
            ..
        } = &mut *scratch;
        let stamp = *stage_id;
        sparse_dp(
            arena,
            in_r,
            load,
            dp_demand,
            best_set,
            sdp,
            active_nodes,
            j,
            w,
            false,
            free_active,
            &mut stats.dp_node_visits,
            &|v| active_pos[v as usize] as usize,
            &|c| active_mark[c as usize] == stamp,
        )
        .is_ok()
    };
    let s = &mut *scratch;
    for &c in s.dp_clients.iter() {
        s.dp_demand[c as usize] = 0;
    }
    s.dp_clients.clear();
    if found {
        Ok(())
    } else {
        Err(SolveError::StageDpExhausted { node: NodeId(j), rmax: free_active as u64 })
    }
}

/// One convex vector: `m(r) = v0 − Σ` of the first `min(r, strict)` steps,
/// for `r` in `0..len`, where the steps are `cnt[i]` copies of `step[i]`
/// (steps strictly decreasing, all positive) and `strict = Σ cnt[i]`.
/// Borrowed views into the pooled slabs of [`SparseDp`].
#[derive(Clone, Copy)]
struct Rep<'a> {
    v0: u64,
    len: usize,
    cnt: &'a [u32],
    step: &'a [u64],
}

impl Rep<'_> {
    /// Number of strictly decreasing entries (`m(strict)` is the floor).
    fn strict(&self) -> usize {
        self.cnt.iter().map(|&c| c as usize).sum()
    }

    /// The decrement `m(i) − m(i+1)` (zero beyond the strict prefix).
    fn step_at(&self, i: usize) -> u64 {
        let mut at = i;
        for (&c, &s) in self.cnt.iter().zip(self.step) {
            if at < c as usize {
                return s;
            }
            at -= c as usize;
        }
        0
    }

    /// `m(r)` (the vector is flat at its floor beyond the strict prefix).
    fn value_at(&self, r: usize) -> u64 {
        let mut left = r;
        let mut v = self.v0;
        for (&c, &s) in self.cnt.iter().zip(self.step) {
            let take = left.min(c as usize);
            v -= take as u64 * s;
            left -= take;
            if left == 0 {
                break;
            }
        }
        v
    }
}

/// Pooled storage of the stage DP: per-position reps plus the working
/// buffers of one convolution and of the backtracking walk. All capacity
/// survives across stages, so steady-state passes allocate nothing.
#[derive(Debug, Default)]
pub(crate) struct SparseDp {
    /// Per-position `v0` (value at `r = 0`).
    v0: Vec<u64>,
    /// Per-position vector length (free nodes in the part + 1).
    len: Vec<u32>,
    /// Per-position segment range into `cnt`/`step` (`off[p]..off[p+1]`).
    off: Vec<u32>,
    /// Flattened segment counts.
    cnt: Vec<u32>,
    /// Flattened segment steps (strictly decreasing within a node).
    step: Vec<u64>,
    /// Working rep of the node under construction.
    wcnt: Vec<u32>,
    wstep: Vec<u64>,
    /// Merge target of one convolution (swapped with `wcnt`/`wstep`).
    tcnt: Vec<u32>,
    tstep: Vec<u64>,
    /// Backtrack: per-layer reps of the node being unwound.
    lv0: Vec<u64>,
    llen: Vec<u32>,
    loff: Vec<u32>,
    lcnt: Vec<u32>,
    lstep: Vec<u64>,
    /// Backtrack: participating children of the node being unwound.
    kids: Vec<u32>,
    /// Backtrack stack of `(node, replicas)` frames.
    stack: Vec<(u32, usize)>,
}

impl SparseDp {
    fn reset(&mut self, nodes: usize) {
        self.v0.clear();
        self.len.clear();
        self.off.clear();
        self.cnt.clear();
        self.step.clear();
        self.v0.reserve(nodes);
        self.len.reserve(nodes);
        self.off.reserve(nodes + 1);
        self.off.push(0);
    }

    fn rep(&self, p: usize) -> Rep<'_> {
        let (a, b) = (self.off[p] as usize, self.off[p + 1] as usize);
        Rep {
            v0: self.v0[p],
            len: self.len[p] as usize,
            cnt: &self.cnt[a..b],
            step: &self.step[a..b],
        }
    }

    /// Release slab capacity (see `SolverScratch::shrink_to_fit_slabs`).
    pub(crate) fn shrink_to_fit(&mut self) {
        self.v0.shrink_to_fit();
        self.len.shrink_to_fit();
        self.off.shrink_to_fit();
        self.cnt.shrink_to_fit();
        self.step.shrink_to_fit();
        self.lcnt.shrink_to_fit();
        self.lstep.shrink_to_fit();
    }
}

/// Truncates the working segments so their total drop is at most `budget`
/// (the value clamp at zero): the crossing segment keeps its full steps
/// that fit plus one partial remainder step, everything beyond is dropped.
fn clamp_total(cnt: &mut Vec<u32>, step: &mut Vec<u64>, budget: u64) {
    let mut left = budget;
    for i in 0..cnt.len() {
        let seg = cnt[i] as u64 * step[i];
        if seg <= left {
            left -= seg;
            continue;
        }
        let fit = (left / step[i]) as u32;
        let rem = left - fit as u64 * step[i];
        cnt.truncate(i + 1);
        step.truncate(i + 1);
        cnt[i] = fit;
        if rem > 0 {
            cnt.push(1);
            step.push(rem);
        }
        if cnt[i] == 0 {
            cnt.remove(i);
            step.remove(i);
        }
        return;
    }
}

/// One pass of the stage DP over `order` (a post-order node sequence;
/// `pos` maps a node to its index, `child_ok` filters the children that
/// participate), with existing replicas contributing their whole capacity
/// when `full_cap_existing` is set and their spare otherwise. Returns
/// `Ok(rmin)` with the placement in `best_set` when `rmin ≤ r_budget`, and
/// otherwise `Err(leftover)` — the volume still unserved with `r_budget`
/// replicas (or with one on every free node, if fewer) — leaving
/// `best_set` untouched.
#[allow(clippy::too_many_arguments)]
fn sparse_dp(
    arena: &rp_tree::arena::TreeArena,
    in_r: &[bool],
    load: &[Requests],
    demand: &[u64],
    best_set: &mut Vec<u32>,
    sp: &mut SparseDp,
    order: &[u32],
    j: u32,
    cap: u64,
    full_cap_existing: bool,
    r_budget: usize,
    node_visits: &mut u64,
    pos: &impl Fn(u32) -> usize,
    child_ok: &impl Fn(u32) -> bool,
) -> Result<usize, u64> {
    sp.reset(order.len());
    for &v in order {
        *node_visits += 1;
        let vi = v as usize;
        let own = demand[vi];

        // --- min-plus convolution over the participating children ---
        // The working rep starts as the `[own]` singleton; each child
        // merges its step segments in (sorted merge = convex min-plus).
        let mut wv0 = own;
        let mut wlen = 1usize;
        sp.wcnt.clear();
        sp.wstep.clear();
        for &c in arena.children(v) {
            if !child_ok(c) {
                continue;
            }
            let cp = pos(c);
            let (a, b) = (sp.off[cp] as usize, sp.off[cp + 1] as usize);
            wv0 += sp.v0[cp];
            wlen += sp.len[cp] as usize - 1;
            // Sorted merge of the two step lists, coalescing equal steps.
            sp.tcnt.clear();
            sp.tstep.clear();
            let (mut i, mut k) = (0usize, a);
            while i < sp.wcnt.len() || k < b {
                let (c2, s2) = if k >= b || (i < sp.wcnt.len() && sp.wstep[i] >= sp.step[k]) {
                    let pair = (sp.wcnt[i], sp.wstep[i]);
                    i += 1;
                    pair
                } else {
                    let pair = (sp.cnt[k], sp.step[k]);
                    k += 1;
                    pair
                };
                if let (Some(lc), Some(&ls)) = (sp.tcnt.last_mut(), sp.tstep.last()) {
                    if ls == s2 {
                        *lc += c2;
                        continue;
                    }
                }
                sp.tcnt.push(c2);
                sp.tstep.push(s2);
            }
            std::mem::swap(&mut sp.wcnt, &mut sp.tcnt);
            std::mem::swap(&mut sp.wstep, &mut sp.tstep);
        }

        // --- apply the node itself ---
        if in_r[vi] {
            // Existing replica: spare in strict mode, full capacity in the
            // re-routing relaxation; subtract with a clamp at zero.
            let spare = if full_cap_existing { cap } else { cap - load[vi] };
            wv0 = wv0.saturating_sub(spare);
            clamp_total(&mut sp.wcnt, &mut sp.wstep, wv0);
        } else {
            // Free node: one new slot whose step is the largest the vector
            // can hold, then re-clamp the tail at zero.
            let s = cap.min(wv0);
            wlen += 1;
            if s > 0 {
                debug_assert!(sp.wstep.first().is_none_or(|&f| f <= s));
                if sp.wstep.first() == Some(&s) {
                    sp.wcnt[0] += 1;
                } else {
                    sp.wcnt.insert(0, 1);
                    sp.wstep.insert(0, s);
                }
            }
            clamp_total(&mut sp.wcnt, &mut sp.wstep, wv0);
        }
        // The size bound of the module docs: segments ≤ strict steps ≤
        // free nodes in the part.
        debug_assert!({
            let strict: usize = sp.wcnt.iter().map(|&c| c as usize).sum();
            sp.wcnt.len() <= strict && strict < wlen
        });

        sp.v0.push(wv0);
        sp.len.push(wlen as u32);
        sp.cnt.extend_from_slice(&sp.wcnt);
        sp.step.extend_from_slice(&sp.wstep);
        sp.off.push(sp.cnt.len() as u32);
    }

    let root = sp.rep(order.len() - 1);
    let strict = root.strict();
    let floor = root.value_at(strict);
    if floor != 0 {
        return Err(floor);
    }
    let rmin = strict;
    if rmin > r_budget {
        return Err(root.value_at(r_budget));
    }

    // --- backtrack: unwind the tie-broken placement (module docs) ---
    best_set.clear();
    sp.stack.clear();
    sp.stack.push((j, rmin));
    while let Some((v, r)) = sp.stack.pop() {
        let p = pos(v);
        let rep = sp.rep(p);
        // Replicas beyond the strict prefix are left unused.
        let r0 = r.min(rep.strict());
        let placed = !in_r[v as usize] && r0 >= 1;
        if placed {
            best_set.push(v);
        }
        let mut rest = r0 - usize::from(placed);
        sp.kids.clear();
        sp.kids.extend(arena.children(v).iter().copied().filter(|&c| child_ok(c)));
        if sp.kids.is_empty() {
            debug_assert_eq!(rest, 0);
            continue;
        }
        // Recompute the convolution layers (L₀ = [own], Lₖ₊₁ = Lₖ ⊗ m_c),
        // storing each rep so the reverse walk below can query them.
        sp.lv0.clear();
        sp.llen.clear();
        sp.loff.clear();
        sp.lcnt.clear();
        sp.lstep.clear();
        sp.loff.push(0);
        sp.lv0.push(demand[v as usize]);
        sp.llen.push(1);
        sp.loff.push(0);
        for ki in 0..sp.kids.len() - 1 {
            let cp = pos(sp.kids[ki]);
            let (a, b) = (sp.off[cp] as usize, sp.off[cp + 1] as usize);
            let prev = sp.loff[sp.loff.len() - 2] as usize;
            let prev_end = sp.loff[sp.loff.len() - 1] as usize;
            sp.lv0.push(sp.lv0[ki] + sp.v0[cp]);
            sp.llen.push(sp.llen[ki] + sp.len[cp] - 1);
            let (mut i, mut k) = (prev, a);
            let start = sp.lcnt.len();
            while i < prev_end || k < b {
                let (c2, s2) = if k >= b || (i < prev_end && sp.lstep[i] >= sp.step[k]) {
                    let pair = (sp.lcnt[i], sp.lstep[i]);
                    i += 1;
                    pair
                } else {
                    let pair = (sp.cnt[k], sp.step[k]);
                    k += 1;
                    pair
                };
                if sp.lcnt.len() > start && sp.lstep[sp.lstep.len() - 1] == s2 {
                    let at = sp.lcnt.len() - 1;
                    sp.lcnt[at] += c2;
                } else {
                    sp.lcnt.push(c2);
                    sp.lstep.push(s2);
                }
            }
            sp.loff.push(sp.lcnt.len() as u32);
        }
        for ki in (0..sp.kids.len()).rev() {
            let c = sp.kids[ki];
            let cp = pos(c);
            let child = sp.rep(cp);
            let (a, b) = (sp.loff[ki] as usize, sp.loff[ki + 1] as usize);
            let layer = Rep {
                v0: sp.lv0[ki],
                len: sp.llen[ki] as usize,
                cnt: &sp.lcnt[a..b],
                step: &sp.lstep[a..b],
            };
            let rp = argmin_min_rp(&layer, &child, rest);
            sp.stack.push((c, rest - rp));
            rest = rp;
        }
        debug_assert_eq!(rest, 0);
    }
    Ok(rmin)
}

/// The split at cell `r` of `base ⊗ child`: the smallest `rp` minimising
/// `base(rp) + child(r − rp)`, i.e. ties keep the largest child share.
/// `G(rp)` is convex, so the answer is the first `rp` with
/// `ΔG(rp) = child.step(r−1−rp) − base.step(rp) ≥ 0` — the predicate is
/// monotone in `rp` (child steps re-read at *earlier* indices only grow,
/// base steps at later indices only shrink), hence the binary search.
fn argmin_min_rp(base: &Rep<'_>, child: &Rep<'_>, r: usize) -> usize {
    if r == 0 {
        return 0;
    }
    let lo = r.saturating_sub(child.len - 1);
    let hi = r.min(base.len - 1);
    debug_assert!(lo <= hi);
    let (mut l, mut h) = (lo, hi);
    while l < h {
        let mid = l + (h - l) / 2;
        if child.step_at(r - 1 - mid) >= base.step_at(mid) {
            h = mid;
        } else {
            l = mid + 1;
        }
    }
    l
}

/// Test-only window into the strict stage DP, so the integration proptests
/// in `crates/core/tests/` can pin the forest-restricted pass against a
/// naive full-subtree reference. Hidden: not part of the crate's API
/// surface.
#[doc(hidden)]
pub mod testing {
    use super::*;
    use rp_tree::Tree;

    /// Result of one [`strict_dp`] run.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StrictDpRun {
        /// The stage root's full `m_j(r)` table: one entry per free node
        /// of the active forest, plus `r = 0`.
        pub m_root: Vec<u64>,
        /// Smallest `r` with `m_j(r) = 0`, if any reaches zero.
        pub rmin: Option<usize>,
        /// The chosen placement (raw node indices) when `rmin` exists.
        pub chosen: Vec<u32>,
    }

    /// Runs the strict stage DP through the oversized-stage fallback
    /// itself ([`fallback_placement`]): `demand` rows as the stuck volume,
    /// existing `replicas` (node, load) contributing their spare.
    pub fn strict_dp(
        tree: &Tree,
        j: u32,
        cap: u64,
        replicas: &[(u32, u64)],
        demand: &[(u32, u64)],
    ) -> StrictDpRun {
        let injected: u128 = demand.iter().map(|&(_, w)| w as u128).sum();
        assert!(
            injected <= Tree::MAX_REQUESTS as u128,
            "harness demand must respect the tree-wide volume bound the u64 slabs rest on"
        );
        let mut scratch = SolverScratch::new();
        scratch.load_arena(tree);
        scratch.prepare_multiple_bin();
        for &(u, l) in replicas {
            scratch.in_r[u as usize] = true;
            scratch.load[u as usize] = l;
        }
        let stuck: Vec<PendingRequest> =
            demand.iter().map(|&(client, w)| PendingRequest { d: 0, w, client }).collect();
        let found = fallback_placement(&mut scratch, cap, j, &stuck).is_ok();
        let root = scratch.sdp.rep(scratch.active_nodes.len() - 1);
        let m_root: Vec<u64> = (0..root.len).map(|r| root.value_at(r)).collect();
        StrictDpRun {
            rmin: m_root.iter().position(|&m| m == 0),
            m_root,
            chosen: if found { scratch.best_set.clone() } else { Vec::new() },
        }
    }
}
