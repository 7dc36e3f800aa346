//! `bench.check`: a linear-time output checker.
//!
//! `rp_tree::validate` walks each fragment's client-to-server path and
//! keeps its tallies in ordered maps, which is fine for tests and far too
//! slow for a 262144-client solution. This checker tests the same
//! constraints in O(fragments + nodes) plus one sort of the replica set:
//! ancestry comes from the arena's pre-order intervals
//! ([`TreeArena::is_ancestor_or_self`]), distance from the difference of
//! two `root_dist` values, and loads and served volume from dense per-node
//! arrays. Unlike `validate` it does not stop at the first violation: it
//! counts every one, so a report says how wrong an output is, not only
//! that it is wrong.

use rp_tree::{Dist, Requests, Solution, TreeArena};

/// Every violation found in one solution, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// The objective: distinct replica nodes, forced ones included.
    pub replicas: u64,
    /// Clients assigned fewer requests than they issue.
    pub underserved_clients: u64,
    /// Requests of those clients left unassigned.
    pub underserved_requests: u64,
    /// Clients assigned more requests than they issue.
    pub overserved_clients: u64,
    /// Servers loaded beyond the capacity `W`.
    pub capacity_violations: u64,
    /// Fragments whose client-server distance exceeds `dmax`.
    pub distance_violations: u64,
    /// Fragments naming an unknown node or a non-client, or whose server
    /// is not on the client's path to the root.
    pub placement_violations: u64,
    /// Under the Single policy: clients served by more than one server.
    pub split_clients: u64,
    /// Replicas that serve no request. They do not make a solution
    /// infeasible, but each one inflates the objective.
    pub idle_replicas: u64,
}

impl CheckReport {
    /// Whether the solution is feasible (idle replicas allowed).
    pub fn is_valid(&self) -> bool {
        self.underserved_clients == 0
            && self.overserved_clients == 0
            && self.capacity_violations == 0
            && self.distance_violations == 0
            && self.placement_violations == 0
            && self.split_clients == 0
    }

    /// Adds every count of `other` into `self`.
    pub fn absorb(&mut self, other: &CheckReport) {
        self.replicas += other.replicas;
        self.underserved_clients += other.underserved_clients;
        self.underserved_requests += other.underserved_requests;
        self.overserved_clients += other.overserved_clients;
        self.capacity_violations += other.capacity_violations;
        self.distance_violations += other.distance_violations;
        self.placement_violations += other.placement_violations;
        self.split_clients += other.split_clients;
        self.idle_replicas += other.idle_replicas;
    }
}

/// Checks `solution` against the instance loaded in `arena` with capacity
/// `w` and distance bound `dmax`; `single` adds the Single policy's
/// one-server-per-client rule.
pub fn check(
    arena: &TreeArena,
    w: Requests,
    dmax: Option<Dist>,
    single: bool,
    solution: &Solution,
) -> CheckReport {
    let n = arena.len();
    let mut report = CheckReport::default();
    let mut load = vec![0u64; n];
    let mut served = vec![0u64; n];
    let mut servers = vec![0u32; n];
    for f in solution.fragments() {
        let (client, server) = (f.client.0, f.server.0);
        let known = (client as usize) < n && (server as usize) < n;
        if !known || !arena.is_client(client) || !arena.is_ancestor_or_self(server, client) {
            report.placement_violations += 1;
        } else if dmax.is_some_and(|d| arena.root_dist(client) - arena.root_dist(server) > d) {
            report.distance_violations += 1;
        }
        // Misplaced fragments still load their server and count as service,
        // so each violation is reported once, under its own kind.
        if let Some(l) = load.get_mut(server as usize) {
            *l = l.saturating_add(f.amount);
        }
        if let Some(s) = served.get_mut(client as usize) {
            *s = s.saturating_add(f.amount);
            servers[client as usize] += 1;
        }
    }
    report.capacity_violations = load.iter().filter(|&&l| l > w).count() as u64;
    for v in 0..n as u32 {
        if !arena.is_client(v) {
            continue;
        }
        let (got, want) = (served[v as usize], arena.requests(v));
        if got < want {
            report.underserved_clients += 1;
            report.underserved_requests += want - got;
        } else if got > want {
            report.overserved_clients += 1;
        }
        if single && servers[v as usize] > 1 {
            report.split_clients += 1;
        }
    }
    for r in solution.replicas() {
        report.replicas += 1;
        if r.index() >= n {
            report.placement_violations += 1;
        } else if load[r.index()] == 0 {
            report.idle_replicas += 1;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_tree::{validate, Instance, NodeId, Policy, TreeBuilder, ValidationError};

    fn check_instance(inst: &Instance, policy: Policy, solution: &Solution) -> CheckReport {
        let arena = TreeArena::new(inst.tree());
        check(&arena, inst.capacity(), inst.dmax(), policy == Policy::Single, solution)
    }

    /// The checker and `validate` must agree on feasibility, and every
    /// `validate` error must be a kind the checker counted.
    fn assert_agrees(inst: &Instance, policy: Policy, solution: &Solution) -> CheckReport {
        let report = check_instance(inst, policy, solution);
        let verdict = validate(inst, policy, solution);
        assert_eq!(report.is_valid(), verdict.is_ok(), "{report:?} vs {verdict:?}");
        if let Err(e) = verdict {
            let counted = match e {
                ValidationError::UnknownNode(_)
                | ValidationError::NotAClient(_)
                | ValidationError::NotAnAncestor { .. } => report.placement_violations,
                ValidationError::DistanceExceeded { .. } => report.distance_violations,
                ValidationError::CapacityExceeded { .. } => report.capacity_violations,
                ValidationError::ClientNotServed { assigned, required, .. } => {
                    if assigned < required {
                        report.underserved_clients
                    } else {
                        report.overserved_clients
                    }
                }
                ValidationError::MultipleServersForClient { .. } => report.split_clients,
                other => panic!("unexpected validation error {other:?}"),
            };
            assert!(counted > 0, "{e:?} not counted in {report:?}");
        }
        // Idle replicas, recounted the slow way.
        let idle = solution.replicas().into_iter().filter(|&r| solution.load(r) == 0).count();
        assert_eq!(report.idle_replicas, idle as u64);
        assert_eq!(report.replicas, solution.replica_count() as u64);
        report
    }

    /// root ── n1 (edge 1) ── c2 (edge 2, 6 req)
    ///      └─ c3 (edge 5, 4 req)
    fn tiny(w: Requests, dmax: Option<Dist>) -> Instance {
        let mut b = TreeBuilder::new();
        let root = b.root();
        let n1 = b.add_internal(root, 1);
        b.add_client(n1, 2, 6);
        b.add_client(root, 5, 4);
        Instance::new(b.freeze().unwrap(), w, dmax).unwrap()
    }

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn hand_built_violations_are_each_counted() {
        let inst = tiny(10, Some(5));
        let mut ok = Solution::new();
        ok.assign(n(2), n(1), 6);
        ok.assign(n(3), n(0), 4);
        assert!(assert_agrees(&inst, Policy::Single, &ok).is_valid());

        let mut far = Solution::new();
        far.assign(n(2), n(0), 6); // distance 3
        far.assign(n(3), n(3), 4);
        let r = assert_agrees(&tiny(10, Some(2)), Policy::Multiple, &far);
        assert_eq!(r.distance_violations, 1);

        let mut heavy = Solution::new();
        heavy.assign(n(2), n(0), 6);
        heavy.assign(n(3), n(0), 4);
        let r = assert_agrees(&tiny(9, None), Policy::Multiple, &heavy);
        assert_eq!(r.capacity_violations, 1);

        let mut short = Solution::new();
        short.assign(n(2), n(1), 5);
        short.assign(n(3), n(0), 1);
        let r = assert_agrees(&inst, Policy::Multiple, &short);
        assert_eq!((r.underserved_clients, r.underserved_requests), (2, 4));

        let mut over = Solution::new();
        over.assign(n(2), n(1), 7);
        over.assign(n(3), n(0), 4);
        assert_eq!(assert_agrees(&inst, Policy::Multiple, &over).overserved_clients, 1);

        let mut stray = Solution::new();
        stray.assign(n(3), n(1), 4); // n1 is not on c3's root path
        stray.assign(n(2), n(2), 6);
        assert_eq!(assert_agrees(&inst, Policy::Multiple, &stray).placement_violations, 1);

        let mut internal = Solution::new();
        internal.assign(n(1), n(0), 1);
        assert!(assert_agrees(&inst, Policy::Multiple, &internal).placement_violations >= 1);

        let mut unknown = Solution::new();
        unknown.assign(n(42), n(0), 1);
        assert!(assert_agrees(&inst, Policy::Multiple, &unknown).placement_violations >= 1);

        let mut split = Solution::new();
        split.assign(n(2), n(1), 3);
        split.assign(n(2), n(0), 3);
        split.assign(n(3), n(3), 4);
        assert!(assert_agrees(&tiny(5, None), Policy::Multiple, &split).is_valid());
        assert_eq!(assert_agrees(&tiny(5, None), Policy::Single, &split).split_clients, 1);

        let mut idle = ok.clone();
        idle.force_replica(n(2));
        let r = assert_agrees(&inst, Policy::Multiple, &idle);
        assert!(r.is_valid());
        assert_eq!((r.replicas, r.idle_replicas), (3, 1));
    }

    #[test]
    fn agrees_with_validate_on_the_idle_replica_reproducer() {
        // `rp gen --kind binary --clients 64 --seed 45 --capacity-factor 3.0
        // --dmax-fraction 0.7`, solved by `multiple-bin`.
        let inst = rp_bench::binary_instance(64, Some(0.7), 45);
        let solution = rp_core::multiple_bin(&inst).expect("binary, r_i <= W");
        assert_agrees(&inst, Policy::Multiple, &solution);
    }

    #[test]
    fn agrees_with_validate_on_small_shallow_binary_instances() {
        // Short deadlines on 1024 clients: the regime in which the solver
        // has been seen to leave requests unserved on some seeds.
        for seed in 0..6 {
            let inst = rp_bench::binary_instance(1024, Some(0.2), seed);
            let solution = rp_core::multiple_bin(&inst).expect("binary, r_i <= W");
            assert_agrees(&inst, Policy::Multiple, &solution);
            let single = rp_core::single_gen(&inst).expect("r_i <= W");
            assert_agrees(&inst, Policy::Single, &single);
        }
    }

    #[test]
    fn agrees_with_validate_on_the_spine_family() {
        for dmax in [true, false] {
            let inst = rp_bench::long_spine_instance(96, dmax, 7);
            let solution = rp_core::multiple_bin(&inst).expect("binary, r_i <= W");
            assert_agrees(&inst, Policy::Multiple, &solution);
        }
    }
}
