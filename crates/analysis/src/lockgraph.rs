//! The global lock-order graph.
//!
//! Nodes are named locks (`file.rs::Struct.field`); a directed edge `a -> b`
//! records that some function acquired `b` while (heuristically) still
//! holding `a`. A consistent global lock order makes this graph acyclic;
//! any strongly connected component — a 2-cycle `a -> b -> a`, a longer
//! ring, or a self-loop (re-acquiring a lock while it is held) — is a
//! potential deadlock and is reported with every witness site inside the
//! component.

use std::collections::{BTreeMap, BTreeSet};

/// Where an edge was observed.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct EdgeSite {
    /// Workspace-relative file of the inner acquisition.
    pub file: String,
    /// 1-based line of the inner acquisition.
    pub line: usize,
    /// The enclosing function, if known.
    pub function: String,
}

/// A directed graph of lock-acquisition ordering, keyed by lock name.
#[derive(Debug, Default)]
pub struct LockGraph {
    edges: BTreeMap<(String, String), Vec<EdgeSite>>,
    /// Every declared lock, by id, with the number of acquisition sites
    /// that resolved to it: a lock the walk cannot see counts zero.
    pub locks: BTreeMap<String, usize>,
}

/// One potential deadlock: the locks of a strongly connected component and
/// the witness edges that close it.
#[derive(Debug)]
pub struct Cycle {
    /// The locks in the component, sorted by name.
    pub locks: Vec<String>,
    /// Every `held -> acquired` edge between component members, with its
    /// witness sites.
    pub edges: Vec<(String, String, Vec<EdgeSite>)>,
}

impl LockGraph {
    /// Create an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `inner` was acquired at `site` while `outer` was held.
    pub fn add_edge(&mut self, outer: &str, inner: &str, site: EdgeSite) {
        self.edges
            .entry((outer.to_owned(), inner.to_owned()))
            .or_default()
            .push(site);
    }

    /// All distinct edges, sorted, with their witness sites.
    pub fn edges(&self) -> impl Iterator<Item = (&str, &str, &[EdgeSite])> {
        self.edges
            .iter()
            .map(|((a, b), sites)| (a.as_str(), b.as_str(), sites.as_slice()))
    }

    /// Find every potential deadlock: strongly connected components with
    /// more than one lock, plus self-loops. Deterministic order.
    pub fn cycles(&self) -> Vec<Cycle> {
        let mut nodes: BTreeSet<&str> = BTreeSet::new();
        for (a, b) in self.edges.keys() {
            nodes.insert(a);
            nodes.insert(b);
        }
        let index_of: BTreeMap<&str, usize> =
            nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let names: Vec<&str> = nodes.into_iter().collect();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); names.len()];
        for (a, b) in self.edges.keys() {
            if let (Some(&ia), Some(&ib)) = (index_of.get(a.as_str()), index_of.get(b.as_str())) {
                adj[ia].push(ib);
            }
        }

        let mut cycles = Vec::new();
        for component in tarjan_sccs(&adj) {
            let in_component: BTreeSet<usize> = component.iter().copied().collect();
            let is_cycle =
                component.len() > 1 || component.first().is_some_and(|&n| adj[n].contains(&n));
            if !is_cycle {
                continue;
            }
            let locks: Vec<String> = component.iter().map(|&n| names[n].to_owned()).collect();
            let mut edges = Vec::new();
            for ((a, b), sites) in &self.edges {
                let (Some(&ia), Some(&ib)) = (index_of.get(a.as_str()), index_of.get(b.as_str()))
                else {
                    continue;
                };
                if in_component.contains(&ia) && in_component.contains(&ib) {
                    let mut sites = sites.clone();
                    sites.sort();
                    sites.dedup();
                    edges.push((a.clone(), b.clone(), sites));
                }
            }
            cycles.push(Cycle { locks, edges });
        }
        cycles.sort_by(|a, b| a.locks.cmp(&b.locks));
        cycles
    }
}

/// Iterative Tarjan strongly-connected components. Returns each component
/// as a sorted list of node indices, components sorted by smallest member.
fn tarjan_sccs(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    #[derive(Clone)]
    struct NodeState {
        index: Option<usize>,
        lowlink: usize,
        on_stack: bool,
    }
    let n = adj.len();
    let mut state = vec![
        NodeState {
            index: None,
            lowlink: 0,
            on_stack: false,
        };
        n
    ];
    let mut next_index = 0usize;
    let mut stack: Vec<usize> = Vec::new();
    let mut sccs: Vec<Vec<usize>> = Vec::new();

    for start in 0..n {
        if state[start].index.is_some() {
            continue;
        }
        // Explicit DFS frames: (node, next child position).
        let mut frames: Vec<(usize, usize)> = vec![(start, 0)];
        state[start].index = Some(next_index);
        state[start].lowlink = next_index;
        state[start].on_stack = true;
        stack.push(start);
        next_index += 1;

        while let Some(&mut (v, ref mut child)) = frames.last_mut() {
            if *child < adj[v].len() {
                let w = adj[v][*child];
                *child += 1;
                if state[w].index.is_none() {
                    state[w].index = Some(next_index);
                    state[w].lowlink = next_index;
                    state[w].on_stack = true;
                    stack.push(w);
                    next_index += 1;
                    frames.push((w, 0));
                } else if state[w].on_stack {
                    state[v].lowlink = state[v].lowlink.min(state[w].index.unwrap_or(0));
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    state[parent].lowlink = state[parent].lowlink.min(state[v].lowlink);
                }
                if state[v].index == Some(state[v].lowlink) {
                    let mut component = Vec::new();
                    while let Some(w) = stack.pop() {
                        state[w].on_stack = false;
                        component.push(w);
                        if w == v {
                            break;
                        }
                    }
                    component.sort_unstable();
                    sccs.push(component);
                }
            }
        }
    }
    sccs.sort_by_key(|c| c.first().copied());
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(line: usize) -> EdgeSite {
        EdgeSite {
            file: "x.rs".into(),
            line,
            function: "f".into(),
        }
    }

    #[test]
    fn two_cycle_is_reported() {
        let mut g = LockGraph::new();
        g.add_edge("a", "b", site(1));
        g.add_edge("b", "a", site(2));
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].locks, vec!["a".to_owned(), "b".to_owned()]);
        assert_eq!(cycles[0].edges.len(), 2);
    }

    #[test]
    fn three_cycle_is_reported() {
        let mut g = LockGraph::new();
        g.add_edge("a", "b", site(1));
        g.add_edge("b", "c", site(2));
        g.add_edge("c", "a", site(3));
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(
            cycles[0].locks,
            vec!["a".to_owned(), "b".to_owned(), "c".to_owned()]
        );
    }

    #[test]
    fn diamond_with_consistent_order_is_not_reported() {
        // a -> b -> d and a -> c -> d: two paths, one consistent order, no
        // cycle — the detector must stay silent.
        let mut g = LockGraph::new();
        g.add_edge("a", "b", site(1));
        g.add_edge("a", "c", site(2));
        g.add_edge("b", "d", site(3));
        g.add_edge("c", "d", site(4));
        assert!(g.cycles().is_empty());
    }

    #[test]
    fn self_loop_is_reported() {
        let mut g = LockGraph::new();
        g.add_edge("a", "a", site(1));
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].locks, vec!["a".to_owned()]);
    }

    #[test]
    fn disjoint_chains_are_not_reported() {
        let mut g = LockGraph::new();
        g.add_edge("a", "b", site(1));
        g.add_edge("c", "d", site(2));
        assert!(g.cycles().is_empty());
    }

    #[test]
    fn cycle_plus_tail_reports_only_the_cycle() {
        let mut g = LockGraph::new();
        g.add_edge("a", "b", site(1));
        g.add_edge("b", "a", site(2));
        g.add_edge("b", "c", site(3));
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].locks, vec!["a".to_owned(), "b".to_owned()]);
    }
}
