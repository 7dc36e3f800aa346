//! Property-based tests of the tree substrate: structural invariants of
//! arbitrary trees built through `TreeBuilder`, and the solution validator's
//! behaviour on randomly perturbed solutions.

use proptest::prelude::*;
use rp_tree::{validate, Instance, NodeId, Policy, Solution, Tree, TreeBuilder};

/// Builds an arbitrary tree from a compact description: for every node after
/// the root, a `(parent_choice, edge, kind)` triple where `parent_choice`
/// indexes into the already-created internal nodes.
fn arbitrary_tree() -> impl Strategy<Value = Tree> {
    prop::collection::vec((any::<u16>(), 0u64..20, any::<bool>(), 0u64..50), 0..60).prop_map(
        |nodes| {
            let mut builder = TreeBuilder::new();
            let mut internals = vec![builder.root()];
            for (parent_choice, edge, is_client, requests) in nodes {
                let parent = internals[parent_choice as usize % internals.len()];
                if is_client {
                    builder.add_client(parent, edge, requests);
                } else {
                    let id = builder.add_internal(parent, edge);
                    internals.push(id);
                }
            }
            builder.freeze().expect("builder-constructed trees are always valid")
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn structural_invariants(tree in arbitrary_tree()) {
        // Traversals cover every node exactly once.
        prop_assert_eq!(tree.postorder().len(), tree.len());
        prop_assert_eq!(tree.preorder().len(), tree.len());
        let mut seen = vec![false; tree.len()];
        for id in tree.postorder() {
            prop_assert!(!seen[id.index()]);
            seen[id.index()] = true;
        }
        // Depth and distance are consistent with the parent links.
        for id in tree.node_ids() {
            match tree.parent(id) {
                None => {
                    prop_assert_eq!(id, tree.root());
                    prop_assert_eq!(tree.depth(id), 0);
                    prop_assert_eq!(tree.dist_to_root(id), 0);
                }
                Some(p) => {
                    prop_assert_eq!(tree.depth(id), tree.depth(p) + 1);
                    prop_assert_eq!(tree.dist_to_root(id), tree.dist_to_root(p) + tree.edge(id));
                    prop_assert!(tree.children(p).contains(&id));
                }
            }
        }
        // Clients are exactly the nodes with `is_client`, and they are leaves.
        for &c in tree.clients() {
            prop_assert!(tree.is_client(c));
            prop_assert!(tree.children(c).is_empty());
        }
        // Subtree of the root is the whole tree; total requests add up.
        prop_assert_eq!(tree.subtree(tree.root()).len(), tree.len());
        let sum: u128 = tree.clients().iter().map(|c| tree.requests(*c) as u128).sum();
        prop_assert_eq!(tree.total_requests(), sum);
        // Arity is the true maximum number of children.
        let max_children = tree.node_ids().map(|n| tree.children(n).len()).max().unwrap_or(0);
        prop_assert_eq!(tree.arity(), max_children);
    }

    #[test]
    fn ancestor_distance_is_prefix_sum(tree in arbitrary_tree()) {
        for id in tree.node_ids() {
            // Walking the ancestor chain reproduces dist_to_root differences.
            let mut expected = 0u64;
            let mut current = id;
            for ancestor in tree.ancestors_inclusive(id) {
                prop_assert_eq!(tree.distance_to_ancestor(id, ancestor), Some(expected));
                prop_assert!(tree.is_ancestor_or_self(ancestor, id));
                if let Some(p) = tree.parent(current) {
                    expected += tree.edge(current);
                    current = p;
                }
            }
            prop_assert_eq!(
                tree.distance_to_ancestor(id, tree.root()),
                Some(tree.dist_to_root(id))
            );
        }
    }

    #[test]
    fn clients_only_solution_always_validates(tree in arbitrary_tree(), capacity in 50u64..100) {
        let inst = Instance::new(tree, capacity, Some(5)).unwrap();
        let sol = inst.clients_only_solution().expect("capacity ≥ any request by construction");
        let stats = validate(&inst, Policy::Single, &sol).unwrap();
        prop_assert_eq!(stats.max_distance, 0);
        let with_requests =
            inst.tree().clients().iter().filter(|c| inst.tree().requests(**c) > 0).count();
        prop_assert_eq!(stats.replica_count, with_requests);
    }

    #[test]
    fn solution_roundtrip_keeps_idle_replicas(
        fragments in prop::collection::vec((0u32..40, 0u32..40, 0u64..9), 0..30),
        forced in prop::collection::vec(0u32..60, 0..12),
    ) {
        let mut sol = Solution::new();
        for &(client, server, amount) in &fragments {
            sol.assign(NodeId(client), NodeId(server), amount);
        }
        for &node in &forced {
            sol.force_replica(NodeId(node));
        }
        let back = rp_tree::io::parse_solution(&rp_tree::io::write_solution(&sol))
            .expect("written solutions parse");
        prop_assert_eq!(back.replicas(), sol.replicas());
        prop_assert_eq!(back.idle_replicas(), sol.idle_replicas());
        prop_assert_eq!(back.fragments().collect::<Vec<_>>(), sol.fragments().collect::<Vec<_>>());
    }

    #[test]
    fn io_roundtrip_arbitrary_trees(tree in arbitrary_tree(), capacity in 1u64..500) {
        let inst = Instance::new(tree, capacity, None).unwrap();
        let text = rp_tree::io::write_instance(&inst);
        let parsed = rp_tree::io::parse_instance(&text).unwrap();
        prop_assert_eq!(parsed.tree().len(), inst.tree().len());
        for id in inst.tree().node_ids() {
            prop_assert_eq!(parsed.tree().parent(id), inst.tree().parent(id));
            prop_assert_eq!(parsed.tree().edge(id), inst.tree().edge(id));
            prop_assert_eq!(parsed.tree().requests(id), inst.tree().requests(id));
            prop_assert_eq!(parsed.tree().is_client(id), inst.tree().is_client(id));
        }
    }

    #[test]
    fn validator_rejects_overloaded_servers(extra in 1u64..10) {
        // A single server given more than W requests must be rejected,
        // whatever the amounts involved.
        let mut b = TreeBuilder::new();
        let root = b.root();
        let c1 = b.add_client(root, 1, 10 + extra);
        let inst = Instance::new(b.freeze().unwrap(), 10, None).unwrap();
        let mut sol = Solution::new();
        sol.assign(c1, NodeId(0), 10 + extra);
        prop_assert!(validate(&inst, Policy::Multiple, &sol).is_err());
    }
}
