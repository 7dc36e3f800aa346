//! Plain-text serialisation of instances and solutions.
//!
//! The format is line-oriented and human-editable, so that instances used in
//! the experiments can be inspected and re-run from files:
//!
//! ```text
//! # replica-placement instance v1
//! capacity 100
//! dmax 12            # or: dmax none
//! nodes 5
//! 0 - 0 internal 0   # id parent edge kind requests
//! 1 0 2 internal 0
//! 2 1 1 client 5
//! 3 1 3 client 7
//! 4 0 4 client 2
//! ```
//!
//! Node ids must be dense, the root must be node 0 with parent `-`, and a
//! node's parent must appear on an earlier line.
//!
//! Solutions list one `client server amount` line per fragment, plus one
//! `replica <node>` line per replica that processes no request, under a
//! `replicas N` header the parser checks against the replica set it reads:
//!
//! ```text
//! # replica-placement solution v1
//! replicas 2
//! 2 1 5              # client server amount
//! 3 1 7
//! replica 4          # an idle replica: placed, serving nothing
//! ```

use crate::error::TreeError;
use crate::instance::Instance;
use crate::solution::Solution;
use crate::tree::{NodeId, NodeKind, Tree, TreeBuilder};
use std::fmt;

/// Errors produced while parsing the text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A line did not have the expected shape.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// Description of what went wrong.
        reason: String,
    },
    /// A required header (`capacity`, `nodes`, …) was missing.
    MissingHeader(&'static str),
    /// The node section declared a different number of nodes than found.
    NodeCountMismatch {
        /// Number declared in the `nodes` header.
        declared: usize,
        /// Number of node lines actually present.
        found: usize,
    },
    /// A solution's `replicas` header disagrees with the replica set its
    /// fragment and `replica` lines describe.
    ReplicaCountMismatch {
        /// Number declared in the `replicas` header.
        declared: usize,
        /// Number of distinct replicas actually parsed.
        found: usize,
    },
    /// The parsed structure is not a valid tree/instance.
    Tree(TreeError),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Malformed { line, reason } => write!(f, "line {line}: {reason}"),
            ParseError::MissingHeader(h) => write!(f, "missing `{h}` header"),
            ParseError::NodeCountMismatch { declared, found } => {
                write!(f, "declared {declared} nodes but found {found}")
            }
            ParseError::ReplicaCountMismatch { declared, found } => {
                write!(f, "declared {declared} replicas but found {found}")
            }
            ParseError::Tree(e) => write!(f, "invalid tree: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<TreeError> for ParseError {
    fn from(e: TreeError) -> Self {
        ParseError::Tree(e)
    }
}

/// Renders an instance in the plain-text format.
pub fn write_instance(instance: &Instance) -> String {
    let tree = instance.tree();
    let mut out = String::new();
    out.push_str("# replica-placement instance v1\n");
    out.push_str(&format!("capacity {}\n", instance.capacity()));
    match instance.dmax() {
        Some(d) => out.push_str(&format!("dmax {d}\n")),
        None => out.push_str("dmax none\n"),
    }
    out.push_str(&format!("nodes {}\n", tree.len()));
    for id in tree.node_ids() {
        let parent = match tree.parent(id) {
            Some(p) => p.0.to_string(),
            None => "-".to_string(),
        };
        let (kind, req) = match tree.kind(id) {
            NodeKind::Client(r) => ("client", r),
            NodeKind::Internal => ("internal", 0),
        };
        out.push_str(&format!("{} {} {} {} {}\n", id.0, parent, tree.edge(id), kind, req));
    }
    out
}

/// Parses an instance from the plain-text format produced by
/// [`write_instance`].
pub fn parse_instance(text: &str) -> Result<Instance, ParseError> {
    let mut capacity: Option<u64> = None;
    let mut dmax: Option<Option<u64>> = None;
    let mut node_count: Option<usize> = None;
    let mut nodes: Vec<(Option<u32>, u64, bool, u64)> = Vec::new(); // (parent, edge, is_client, req)

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let first = parts.next().unwrap();
        let malformed =
            |reason: &str| ParseError::Malformed { line: lineno + 1, reason: reason.to_string() };
        match first {
            "capacity" => {
                let v = parts
                    .next()
                    .and_then(|s| s.parse::<u64>().ok())
                    .ok_or_else(|| malformed("expected `capacity <u64>`"))?;
                capacity = Some(v);
            }
            "dmax" => {
                let v = parts.next().ok_or_else(|| malformed("expected `dmax <u64|none>`"))?;
                if v == "none" {
                    dmax = Some(None);
                } else {
                    let d = v.parse::<u64>().map_err(|_| malformed("invalid dmax value"))?;
                    dmax = Some(Some(d));
                }
            }
            "nodes" => {
                let v = parts
                    .next()
                    .and_then(|s| s.parse::<usize>().ok())
                    .ok_or_else(|| malformed("expected `nodes <count>`"))?;
                node_count = Some(v);
            }
            id_str => {
                let id: u32 =
                    id_str.parse().map_err(|_| malformed("expected a numeric node id"))?;
                if id as usize != nodes.len() {
                    return Err(malformed("node ids must be dense and in order"));
                }
                let parent_str = parts.next().ok_or_else(|| malformed("missing parent field"))?;
                let parent = if parent_str == "-" {
                    None
                } else {
                    Some(parent_str.parse::<u32>().map_err(|_| malformed("invalid parent id"))?)
                };
                let edge: u64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| malformed("invalid edge length"))?;
                let kind = parts.next().ok_or_else(|| malformed("missing node kind"))?;
                let req: u64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| malformed("invalid request count"))?;
                let is_client = match kind {
                    "client" => true,
                    "internal" => false,
                    _ => return Err(malformed("kind must be `client` or `internal`")),
                };
                if parent.is_none() && id != 0 {
                    return Err(malformed("only node 0 may be the root"));
                }
                if parent.is_some() && id == 0 {
                    return Err(malformed("node 0 must be the root (parent `-`)"));
                }
                if let Some(p) = parent {
                    if p >= id {
                        return Err(malformed("parents must appear before their children"));
                    }
                }
                nodes.push((parent, edge, is_client, req));
            }
        }
    }

    let capacity = capacity.ok_or(ParseError::MissingHeader("capacity"))?;
    let dmax = dmax.ok_or(ParseError::MissingHeader("dmax"))?;
    let declared = node_count.ok_or(ParseError::MissingHeader("nodes"))?;
    if declared != nodes.len() {
        return Err(ParseError::NodeCountMismatch { declared, found: nodes.len() });
    }
    if nodes.is_empty() {
        return Err(ParseError::Tree(TreeError::Empty));
    }
    if nodes[0].2 {
        return Err(ParseError::Tree(TreeError::RootNotInternal));
    }

    let mut builder = TreeBuilder::new();
    for (idx, &(parent, edge, is_client, req)) in nodes.iter().enumerate().skip(1) {
        let parent = NodeId(parent.expect("non-root nodes have parents"));
        let id = if is_client {
            builder.add_client(parent, edge, req)
        } else {
            builder.add_internal(parent, edge)
        };
        debug_assert_eq!(id.index(), idx);
    }
    let tree = builder.freeze()?;
    Ok(Instance::new(tree, capacity, dmax)?)
}

/// Renders a solution: the `replicas N` header, `client server amount`
/// lines, and a `replica <node>` line for each idle replica (see the
/// module docs), so [`parse_solution`] recovers the same replica set.
pub fn write_solution(solution: &Solution) -> String {
    let mut out = String::new();
    out.push_str("# replica-placement solution v1\n");
    out.push_str(&format!("replicas {}\n", solution.replica_count()));
    for f in solution.fragments() {
        out.push_str(&format!("{} {} {}\n", f.client.0, f.server.0, f.amount));
    }
    for node in solution.idle_replicas() {
        out.push_str(&format!("replica {}\n", node.0));
    }
    out
}

/// Parses a solution written by [`write_solution`]. The `replicas` header
/// is optional; when present it must match the parsed replica count.
pub fn parse_solution(text: &str) -> Result<Solution, ParseError> {
    let mut sol = Solution::new();
    let mut declared: Option<usize> = None;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let malformed =
            |reason: &str| ParseError::Malformed { line: lineno + 1, reason: reason.to_string() };
        let node = |s: &str| s.parse::<u32>().map(NodeId).map_err(|_| malformed("invalid node id"));
        match line.split_whitespace().collect::<Vec<_>>()[..] {
            ["replicas", n] => {
                if declared.is_some() {
                    return Err(malformed("duplicate `replicas` header"));
                }
                declared = Some(n.parse().map_err(|_| malformed("expected `replicas <count>`"))?);
            }
            ["replica", v] => sol.force_replica(node(v)?),
            [client, server, amount] => {
                let amount = amount.parse().map_err(|_| malformed("invalid request amount"))?;
                sol.assign(node(client)?, node(server)?, amount);
            }
            _ => {
                return Err(malformed(
                    "expected `client server amount`, `replica <node>` or `replicas <count>`",
                ))
            }
        }
    }
    match declared {
        Some(declared) if declared != sol.replica_count() => {
            Err(ParseError::ReplicaCountMismatch { declared, found: sol.replica_count() })
        }
        _ => Ok(sol),
    }
}

/// Convenience: round-trips a tree through the instance format (useful in
/// tests of generators).
pub fn roundtrip_instance(instance: &Instance) -> Result<Instance, ParseError> {
    parse_instance(&write_instance(instance))
}

/// Re-export used by round-trip helpers and tests.
pub use crate::tree::Tree as TreeAlias;

#[allow(unused)]
fn _assert_tree_alias(t: &Tree) -> &TreeAlias {
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Policy;
    use crate::validate::validate;

    fn sample_instance() -> Instance {
        let mut b = TreeBuilder::new();
        let root = b.root();
        let n1 = b.add_internal(root, 2);
        b.add_client(n1, 1, 5);
        b.add_client(n1, 3, 7);
        b.add_client(root, 4, 2);
        Instance::new(b.freeze().unwrap(), 20, Some(6)).unwrap()
    }

    #[test]
    fn instance_roundtrip_preserves_structure() {
        let inst = sample_instance();
        let text = write_instance(&inst);
        let back = parse_instance(&text).unwrap();
        assert_eq!(back.capacity(), 20);
        assert_eq!(back.dmax(), Some(6));
        assert_eq!(back.tree().len(), inst.tree().len());
        for id in inst.tree().node_ids() {
            assert_eq!(back.tree().parent(id), inst.tree().parent(id));
            assert_eq!(back.tree().edge(id), inst.tree().edge(id));
            assert_eq!(back.tree().requests(id), inst.tree().requests(id));
        }
    }

    #[test]
    fn instance_roundtrip_without_dmax() {
        let mut b = TreeBuilder::new();
        let root = b.root();
        b.add_client(root, 1, 3);
        let inst = Instance::new(b.freeze().unwrap(), 5, None).unwrap();
        let back = roundtrip_instance(&inst).unwrap();
        assert_eq!(back.dmax(), None);
    }

    #[test]
    fn missing_headers_are_reported() {
        assert_eq!(
            parse_instance("nodes 1\n0 - 0 internal 0\n").unwrap_err(),
            ParseError::MissingHeader("capacity")
        );
        assert_eq!(
            parse_instance("capacity 5\nnodes 1\n0 - 0 internal 0\n").unwrap_err(),
            ParseError::MissingHeader("dmax")
        );
    }

    #[test]
    fn node_count_mismatch_detected() {
        let text = "capacity 5\ndmax none\nnodes 2\n0 - 0 internal 0\n";
        assert_eq!(
            parse_instance(text).unwrap_err(),
            ParseError::NodeCountMismatch { declared: 2, found: 1 }
        );
    }

    #[test]
    fn malformed_lines_are_reported_with_line_numbers() {
        let text = "capacity 5\ndmax none\nnodes 1\n0 - x internal 0\n";
        match parse_instance(text).unwrap_err() {
            ParseError::Malformed { line, .. } => assert_eq!(line, 4),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn client_root_rejected() {
        let text = "capacity 5\ndmax none\nnodes 1\n0 - 0 client 3\n";
        assert_eq!(parse_instance(text).unwrap_err(), ParseError::Tree(TreeError::RootNotInternal));
    }

    #[test]
    fn parent_must_precede_child() {
        let text = "capacity 5\ndmax none\nnodes 2\n0 - 0 internal 0\n1 2 1 client 3\n";
        assert!(matches!(parse_instance(text).unwrap_err(), ParseError::Malformed { .. }));
    }

    #[test]
    fn solution_roundtrip() {
        let inst = sample_instance();
        let mut sol = Solution::new();
        sol.assign(NodeId(2), NodeId(1), 5);
        sol.assign(NodeId(3), NodeId(1), 7);
        sol.assign(NodeId(4), NodeId(0), 2);
        let text = write_solution(&sol);
        let back = parse_solution(&text).unwrap();
        assert_eq!(back, sol);
        assert!(validate(&inst, Policy::Single, &back).is_ok());
    }

    #[test]
    fn replica_header_must_match_the_parsed_set() {
        let text = "replicas 3\n2 1 5\nreplica 0\n";
        assert_eq!(
            parse_solution(text).unwrap_err(),
            ParseError::ReplicaCountMismatch { declared: 3, found: 2 }
        );
        assert!(parse_solution("2 1 5\nreplica 0\n").is_ok(), "the header is optional");
        let bad =
            ["replicas 1\nreplicas 1\n2 1 5\n", "replica\n", "replicas x\n", "2 4294967296 5\n"];
        for bad in bad {
            assert!(matches!(parse_solution(bad).unwrap_err(), ParseError::Malformed { .. }));
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text =
            "\n# hello\ncapacity 5\ndmax 3\nnodes 2\n0 - 0 internal 0 # root\n1 0 1 client 2\n\n";
        let inst = parse_instance(text).unwrap();
        assert_eq!(inst.tree().len(), 2);
        assert_eq!(inst.dmax(), Some(3));
    }
}
