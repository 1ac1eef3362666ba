//! Neighbor selection policies (dissertation section 6.5 and the routing-
//! index related work it cites).
//!
//! A node receiving a query chooses which neighbors (other than the one it
//! came from) to forward to. The policy travels in the query scope as a
//! string tag so heterogeneous nodes can interoperate:
//!
//! * `all` — flood to every other neighbor,
//! * `random:k` — forward to k neighbors chosen pseudo-randomly but
//!   deterministically per (transaction, node), so repeated runs and loop-
//!   detected duplicates behave identically,
//! * `hint:<kind>` — forward only to neighbors whose direction is known
//!   (via a precomputed routing index) to lead to content of `<kind>`
//!   within a few hops.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use wsda_net::NodeId;
use wsda_pdp::{Interner, Sym, TransactionId};

use crate::topology::Topology;

/// Per-node hosted content kinds, interned.
///
/// The engine used to carry `Vec<HashSet<String>>` — one hash set and one
/// owned string per (node, kind) pair, which at 10^5+ nodes dominated
/// build-time allocation. Kinds come from a tiny closed vocabulary (the
/// workload generator has five), so each node now holds a small sorted
/// `Vec<Sym>` and all nodes share one [`Interner`].
#[derive(Debug, Clone, Default)]
pub struct NodeKinds {
    interner: Arc<Interner>,
    per_node: Vec<Vec<Sym>>,
}

impl NodeKinds {
    /// Empty kind sets for `n` nodes.
    pub fn new(n: usize) -> Self {
        NodeKinds { interner: Arc::new(Interner::new()), per_node: vec![Vec::new(); n] }
    }

    /// Record that `node` hosts content of `kind`.
    pub fn insert(&mut self, node: NodeId, kind: &str) {
        let sym = self.interner.intern(kind);
        let set = &mut self.per_node[node.0 as usize];
        if let Err(at) = set.binary_search(&sym) {
            set.insert(at, sym);
        }
    }

    /// The sorted kind symbols hosted at `node`.
    pub fn kinds(&self, node: NodeId) -> &[Sym] {
        &self.per_node[node.0 as usize]
    }

    /// Does `node` host `kind`?
    pub fn contains(&self, node: NodeId, kind: &str) -> bool {
        self.interner.get(kind).is_some_and(|sym| self.kinds(node).binary_search(&sym).is_ok())
    }

    /// The symbol for `kind`, if any node ever hosted it.
    pub fn sym(&self, kind: &str) -> Option<Sym> {
        self.interner.get(kind)
    }

    /// The shared kind interner.
    pub fn interner(&self) -> &Arc<Interner> {
        &self.interner
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.per_node.len()
    }

    /// True when no nodes are covered.
    pub fn is_empty(&self) -> bool {
        self.per_node.is_empty()
    }
}

/// A parsed neighbor selection policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NeighborPolicy {
    /// Flood all neighbors.
    All,
    /// Forward to at most `k` random neighbors.
    RandomK(usize),
    /// Forward only toward content of this kind (requires a routing index).
    Hint(String),
}

impl NeighborPolicy {
    /// Parse the scope tag; unknown tags behave as `all` (conservative:
    /// never lose reachability because of a policy typo).
    pub fn parse(tag: &str) -> NeighborPolicy {
        if tag == "all" || tag.is_empty() {
            return NeighborPolicy::All;
        }
        if let Some(k) = tag.strip_prefix("random:") {
            if let Ok(k) = k.parse::<usize>() {
                return NeighborPolicy::RandomK(k);
            }
        }
        if let Some(kind) = tag.strip_prefix("hint:") {
            return NeighborPolicy::Hint(kind.to_owned());
        }
        NeighborPolicy::All
    }

    /// The scope tag form.
    pub fn tag(&self) -> String {
        match self {
            NeighborPolicy::All => "all".to_owned(),
            NeighborPolicy::RandomK(k) => format!("random:{k}"),
            NeighborPolicy::Hint(kind) => format!("hint:{kind}"),
        }
    }

    /// Choose forwarding targets from `candidates` (parent already
    /// excluded by the caller).
    pub fn select(
        &self,
        candidates: &[NodeId],
        node: NodeId,
        transaction: TransactionId,
        index: Option<&RoutingIndex>,
    ) -> Vec<NodeId> {
        match self {
            NeighborPolicy::All => candidates.to_vec(),
            NeighborPolicy::RandomK(k) => {
                if candidates.len() <= *k {
                    return candidates.to_vec();
                }
                // Deterministic per (transaction, node).
                let seed = (transaction.0 as u64)
                    ^ ((transaction.0 >> 64) as u64)
                    ^ ((node.0 as u64) << 32);
                let mut rng = StdRng::seed_from_u64(seed);
                let mut picked: Vec<NodeId> = candidates.to_vec();
                picked.shuffle(&mut rng);
                picked.truncate(*k);
                picked.sort();
                picked
            }
            NeighborPolicy::Hint(kind) => match index {
                Some(idx) => {
                    candidates.iter().copied().filter(|&c| idx.leads_to(node, c, kind)).collect()
                }
                None => candidates.to_vec(),
            },
        }
    }
}

/// A routing index: for each (node, neighbor) edge, the set of content
/// kinds reachable through that neighbor within `horizon` hops without
/// passing back through the node — the summary structure of Crespo &
/// Garcia-Molina-style routing indices the thesis cites for neighbor
/// selection.
#[derive(Debug, Clone)]
pub struct RoutingIndex {
    horizon: u32,
    interner: Arc<Interner>,
    /// (node, neighbor) → sorted reachable kind symbols. Edges reaching
    /// no kinds are simply absent.
    kinds: HashMap<(NodeId, NodeId), Box<[Sym]>>,
}

impl RoutingIndex {
    /// Build an index for `topology` where `node_kinds` carries the set
    /// of content kinds each node hosts.
    pub fn build(topology: &Topology, node_kinds: &NodeKinds, horizon: u32) -> Self {
        let mut kinds = HashMap::new();
        for v in 0..topology.len() as u32 {
            let v = NodeId(v);
            for &nb in topology.neighbors(v) {
                let mut reachable: Vec<Sym> = Vec::new();
                // BFS from nb, never stepping back into v.
                let mut seen: HashSet<NodeId> = [v, nb].into_iter().collect();
                let mut queue = VecDeque::from([(nb, 0u32)]);
                while let Some((u, d)) = queue.pop_front() {
                    reachable.extend_from_slice(node_kinds.kinds(u));
                    if d < horizon {
                        for &w in topology.neighbors(u) {
                            if seen.insert(w) {
                                queue.push_back((w, d + 1));
                            }
                        }
                    }
                }
                reachable.sort_unstable();
                reachable.dedup();
                if !reachable.is_empty() {
                    kinds.insert((v, nb), reachable.into_boxed_slice());
                }
            }
        }
        RoutingIndex { horizon, interner: Arc::clone(node_kinds.interner()), kinds }
    }

    /// Does the edge `node → neighbor` lead to `kind` within the horizon?
    pub fn leads_to(&self, node: NodeId, neighbor: NodeId, kind: &str) -> bool {
        let Some(sym) = self.interner.get(kind) else { return false };
        self.kinds.get(&(node, neighbor)).is_some_and(|s| s.binary_search(&sym).is_ok())
    }

    /// The index's BFS horizon.
    pub fn horizon(&self) -> u32 {
        self.horizon
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txn(n: u64) -> TransactionId {
        TransactionId::derive(1, n)
    }

    #[test]
    fn parse_tags() {
        assert_eq!(NeighborPolicy::parse("all"), NeighborPolicy::All);
        assert_eq!(NeighborPolicy::parse(""), NeighborPolicy::All);
        assert_eq!(NeighborPolicy::parse("random:3"), NeighborPolicy::RandomK(3));
        assert_eq!(NeighborPolicy::parse("hint:executor"), NeighborPolicy::Hint("executor".into()));
        assert_eq!(NeighborPolicy::parse("garbage:x"), NeighborPolicy::All);
        assert_eq!(NeighborPolicy::parse("random:x"), NeighborPolicy::All);
        // roundtrip
        for p in [
            NeighborPolicy::All,
            NeighborPolicy::RandomK(2),
            NeighborPolicy::Hint("monitor".into()),
        ] {
            assert_eq!(NeighborPolicy::parse(&p.tag()), p);
        }
    }

    #[test]
    fn all_selects_everything() {
        let c = [NodeId(1), NodeId(2), NodeId(3)];
        let got = NeighborPolicy::All.select(&c, NodeId(0), txn(1), None);
        assert_eq!(got, c);
    }

    #[test]
    fn random_k_subsets_deterministically() {
        let c: Vec<NodeId> = (1..10).map(NodeId).collect();
        let p = NeighborPolicy::RandomK(3);
        let a = p.select(&c, NodeId(0), txn(1), None);
        let b = p.select(&c, NodeId(0), txn(1), None);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|x| c.contains(x)));
        // different transactions pick differently (overwhelmingly likely)
        let other = p.select(&c, NodeId(0), txn(2), None);
        assert!(a != other || p.select(&c, NodeId(0), txn(3), None) != a);
        // fewer candidates than k: take all
        let small = [NodeId(1)];
        assert_eq!(p.select(&small, NodeId(0), txn(1), None), small);
    }

    #[test]
    fn node_kinds_interns_and_sorts() {
        let mut k = NodeKinds::new(3);
        k.insert(NodeId(1), "storage");
        k.insert(NodeId(1), "executor");
        k.insert(NodeId(1), "storage"); // duplicate, ignored
        assert_eq!(k.kinds(NodeId(1)).len(), 2);
        assert!(k.kinds(NodeId(1)).windows(2).all(|w| w[0] < w[1]), "sorted, deduplicated");
        assert!(k.contains(NodeId(1), "executor"));
        assert!(!k.contains(NodeId(0), "executor"));
        assert!(!k.contains(NodeId(2), "never-seen"));
        assert_eq!(k.interner().len(), 2, "kinds shared across nodes intern once");
    }

    #[test]
    fn routing_index_directs_hints() {
        // line: 0 - 1 - 2, kind "x" only at node 2
        let topo = Topology::line(3);
        let mut kinds = NodeKinds::new(3);
        kinds.insert(NodeId(2), "x");
        let idx = RoutingIndex::build(&topo, &kinds, 4);
        assert!(idx.leads_to(NodeId(0), NodeId(1), "x"));
        assert!(idx.leads_to(NodeId(1), NodeId(2), "x"));
        assert!(!idx.leads_to(NodeId(1), NodeId(0), "x"));
        assert_eq!(idx.horizon(), 4);

        let p = NeighborPolicy::Hint("x".into());
        let from1 = p.select(&[NodeId(0), NodeId(2)], NodeId(1), txn(1), Some(&idx));
        assert_eq!(from1, [NodeId(2)]);
        // Without an index, hint degrades to flooding.
        let blind = p.select(&[NodeId(0), NodeId(2)], NodeId(1), txn(1), None);
        assert_eq!(blind.len(), 2);
    }

    #[test]
    fn routing_index_horizon_limits_visibility() {
        // line of 5, kind at far end
        let topo = Topology::line(5);
        let mut kinds = NodeKinds::new(5);
        kinds.insert(NodeId(4), "x");
        let near = RoutingIndex::build(&topo, &kinds, 1);
        assert!(!near.leads_to(NodeId(0), NodeId(1), "x"), "horizon 1 cannot see node 4");
        let far = RoutingIndex::build(&topo, &kinds, 3);
        assert!(far.leads_to(NodeId(0), NodeId(1), "x"));
    }
}
