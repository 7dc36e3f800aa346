//! Solutions of the replica placement problem: the replica set `R` and the
//! assignment of client requests to servers.

use crate::tree::NodeId;
use crate::Requests;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// One assignment fragment: `amount` requests of `client` processed by
/// `server` (`r_{i,s}` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fragment {
    /// The client issuing the requests.
    pub client: NodeId,
    /// The server processing them (must lie on the client's root path).
    pub server: NodeId,
    /// Number of requests of `client` processed by `server`.
    pub amount: Requests,
}

/// A complete solution: which nodes hold replicas and how each client's
/// requests are distributed over them.
///
/// The replica set is derived from the assignment: a node is a replica iff it
/// processes at least one request, plus any node explicitly added through
/// [`Solution::force_replica`] (used by algorithms that may place an idle
/// replica, which still counts towards the objective).
///
/// Fragments for the same `(client, server)` pair are merged automatically.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Solution {
    /// Assignment fragments keyed by `(client, server)`.
    fragments: BTreeMap<(NodeId, NodeId), Requests>,
    /// Replicas placed without any assigned request (still counted). A set,
    /// not a `Vec`: solvers emit hundreds of thousands of replicas and the
    /// historical linear dedup scan made building the solution quadratic —
    /// it dominated the million-client profiles once the solver itself got
    /// fast. (Serde shape is unchanged: both serialize as a sequence.)
    forced: BTreeSet<NodeId>,
}

impl Solution {
    /// Creates an empty solution (no replicas, nothing assigned).
    pub fn new() -> Self {
        Solution::default()
    }

    /// Assigns `amount` requests of `client` to `server`, merging with any
    /// existing fragment for the same pair. Zero amounts are ignored.
    pub fn assign(&mut self, client: NodeId, server: NodeId, amount: Requests) {
        if amount == 0 {
            return;
        }
        *self.fragments.entry((client, server)).or_insert(0) += amount;
    }

    /// Marks `node` as holding a replica even if no request is assigned to it.
    ///
    /// Algorithms normally never need this, but it allows representing
    /// solutions in which a placed replica ends up unused (it still counts in
    /// the objective `|R|`).
    pub fn force_replica(&mut self, node: NodeId) {
        self.forced.insert(node);
    }

    /// All fragments, ordered by `(client, server)`.
    pub fn fragments(&self) -> impl Iterator<Item = Fragment> + '_ {
        self.fragments.iter().map(|(&(client, server), &amount)| Fragment {
            client,
            server,
            amount,
        })
    }

    /// Number of fragments (distinct `(client, server)` pairs).
    pub fn fragment_count(&self) -> usize {
        self.fragments.len()
    }

    /// The replica set `R`, sorted by node id.
    pub fn replicas(&self) -> Vec<NodeId> {
        let mut r: Vec<NodeId> = self.fragments.keys().map(|&(_, s)| s).collect();
        r.extend(self.forced.iter().copied());
        r.sort_unstable();
        r.dedup();
        r
    }

    /// Replicas that process no request — nodes added through
    /// [`Solution::force_replica`] without any fragment on them — sorted by
    /// node id.
    pub fn idle_replicas(&self) -> Vec<NodeId> {
        let mut served: Vec<NodeId> = self.fragments.keys().map(|&(_, s)| s).collect();
        served.sort_unstable();
        served.dedup();
        self.forced.iter().copied().filter(|n| served.binary_search(n).is_err()).collect()
    }

    /// The objective value `|R|`: number of distinct nodes holding a replica.
    pub fn replica_count(&self) -> usize {
        self.replicas().len()
    }

    /// Whether `node` holds a replica in this solution.
    pub fn is_replica(&self, node: NodeId) -> bool {
        self.forced.contains(&node) || self.fragments.keys().any(|&(_, s)| s == node)
    }

    /// Total requests processed by `server` across all clients.
    pub fn load(&self, server: NodeId) -> Requests {
        self.fragments.iter().filter(|(&(_, s), _)| s == server).map(|(_, &amount)| amount).sum()
    }

    /// Per-server load map (only servers with at least one request).
    pub fn loads(&self) -> BTreeMap<NodeId, Requests> {
        let mut out = BTreeMap::new();
        for (&(_, server), &amount) in &self.fragments {
            *out.entry(server).or_insert(0) += amount;
        }
        out
    }

    /// Total requests of `client` covered by this solution.
    pub fn assigned_to_client(&self, client: NodeId) -> Requests {
        self.fragments.iter().filter(|(&(c, _), _)| c == client).map(|(_, &amount)| amount).sum()
    }

    /// The distinct servers serving `client` (`servers(i)` in the paper).
    pub fn servers_of(&self, client: NodeId) -> Vec<NodeId> {
        let mut out: Vec<NodeId> =
            self.fragments.keys().filter(|&&(c, _)| c == client).map(|&(_, s)| s).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Total number of requests assigned across all fragments.
    pub fn total_assigned(&self) -> u128 {
        self.fragments.values().map(|&a| a as u128).sum()
    }

    /// Whether the solution assigns nothing and places no replica.
    pub fn is_empty(&self) -> bool {
        self.fragments.is_empty() && self.forced.is_empty()
    }

    /// Merges another solution into this one (fragments are added, forced
    /// replicas are unioned). Useful when solving independent subtrees
    /// separately.
    pub fn merge(&mut self, other: &Solution) {
        for f in other.fragments() {
            self.assign(f.client, f.server, f.amount);
        }
        for &n in &other.forced {
            self.force_replica(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn fragments_merge_per_pair() {
        let mut s = Solution::new();
        s.assign(n(3), n(1), 4);
        s.assign(n(3), n(1), 2);
        s.assign(n(3), n(0), 1);
        assert_eq!(s.fragment_count(), 2);
        assert_eq!(s.assigned_to_client(n(3)), 7);
        assert_eq!(s.load(n(1)), 6);
        assert_eq!(s.servers_of(n(3)), vec![n(0), n(1)]);
    }

    #[test]
    fn zero_amounts_are_ignored() {
        let mut s = Solution::new();
        s.assign(n(2), n(0), 0);
        assert!(s.is_empty());
        assert_eq!(s.fragment_count(), 0);
    }

    #[test]
    fn replica_set_includes_forced_nodes() {
        let mut s = Solution::new();
        s.assign(n(4), n(1), 3);
        s.force_replica(n(2));
        s.force_replica(n(2));
        assert_eq!(s.replicas(), vec![n(1), n(2)]);
        assert_eq!(s.replica_count(), 2);
        assert!(s.is_replica(n(2)));
        assert!(s.is_replica(n(1)));
        assert!(!s.is_replica(n(4)));
    }

    #[test]
    fn loads_map_and_totals() {
        let mut s = Solution::new();
        s.assign(n(5), n(1), 3);
        s.assign(n(6), n(1), 4);
        s.assign(n(6), n(0), 2);
        let loads = s.loads();
        assert_eq!(loads[&n(1)], 7);
        assert_eq!(loads[&n(0)], 2);
        assert_eq!(s.total_assigned(), 9);
    }

    #[test]
    fn merge_combines_solutions() {
        let mut a = Solution::new();
        a.assign(n(3), n(1), 5);
        let mut b = Solution::new();
        b.assign(n(3), n(1), 1);
        b.assign(n(4), n(2), 2);
        b.force_replica(n(9));
        a.merge(&b);
        assert_eq!(a.assigned_to_client(n(3)), 6);
        assert_eq!(a.replicas(), vec![n(1), n(2), n(9)]);
    }

    #[test]
    fn serde_roundtrip_via_clone_semantics() {
        // Solutions are plain data; equality and clone behave structurally.
        let mut s = Solution::new();
        s.assign(n(1), n(0), 2);
        let t = s.clone();
        assert_eq!(s, t);
    }
}
