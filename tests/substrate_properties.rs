//! Property tests on the simulation substrate: routing optimality, TTL
//! semantics, topology generators, and store invariants — the foundations
//! every experiment result rests on.

use netsim::generators::{prufer_decode, random_connected_graph, random_labeled_tree};
use netsim::routing::SpTree;
use netsim::{LinkId, NodeId, SimDuration, Topology, TopologyBuilder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use srm::{AduName, AduStore, PageId, SeqNo, SourceId};

/// Brute-force all-pairs shortest paths (Floyd–Warshall) for checking.
fn floyd_warshall(topo: &Topology) -> Vec<Vec<f64>> {
    let n = topo.num_nodes();
    let mut d = vec![vec![f64::INFINITY; n]; n];
    for (i, row) in d.iter_mut().enumerate() {
        row[i] = 0.0;
    }
    for (_, l) in topo.links() {
        let w = l.delay.as_secs_f64();
        let (a, b) = (l.a.index(), l.b.index());
        d[a][b] = d[a][b].min(w);
        d[b][a] = d[b][a].min(w);
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                if d[i][k] + d[k][j] < d[i][j] {
                    d[i][j] = d[i][k] + d[k][j];
                }
            }
        }
    }
    d
}

/// A shortest-path tree built the slow, obvious way, for checking
/// [`SpTree`]'s layout: Bellman–Ford distances over the up links in integer
/// nanoseconds, then each node's parent is the smallest `(node, link)` pair
/// on a tight edge — the tie-break [`SpTree`] documents. With every delay
/// positive that is the parent Dijkstra settles first.
struct RefTree {
    parent: Vec<Option<(NodeId, LinkId)>>,
}

impl RefTree {
    fn build(topo: &Topology, root: NodeId, up: &[bool]) -> RefTree {
        let n = topo.num_nodes();
        let mut dist = vec![u64::MAX; n];
        dist[root.index()] = 0;
        for _ in 0..n {
            for (_, l) in topo.links().filter(|(id, _)| up[id.index()]) {
                let w = l.delay.as_nanos();
                for (a, b) in [(l.a, l.b), (l.b, l.a)] {
                    if dist[a.index()] != u64::MAX && dist[a.index()] + w < dist[b.index()] {
                        dist[b.index()] = dist[a.index()] + w;
                    }
                }
            }
        }
        let parent = (0..n)
            .map(|v| {
                if v == root.index() || dist[v] == u64::MAX {
                    return None;
                }
                topo.neighbors(NodeId(v as u32))
                    .iter()
                    .filter(|&&(u, l)| {
                        up[l.index()]
                            && dist[u.index()] != u64::MAX
                            && dist[u.index()] + topo.link(l).delay.as_nanos() == dist[v]
                    })
                    .copied()
                    .min()
            })
            .collect();
        RefTree { parent }
    }

    fn path_links(&self, v: NodeId) -> Vec<LinkId> {
        let mut out = Vec::new();
        let mut cur = v;
        while let Some((p, l)) = self.parent[cur.index()] {
            out.push(l);
            cur = p;
        }
        out.reverse();
        out
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Dijkstra SPT distances equal Floyd–Warshall on arbitrary weighted
    /// connected graphs.
    #[test]
    fn spt_distances_are_optimal(seed in 0u64..100_000, n in 3usize..20, extra in 0usize..10) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = (n - 1 + extra).min(n * (n - 1) / 2);
        let base = random_connected_graph(n, m, &mut rng);
        // Re-weight with varied delays.
        let mut b = TopologyBuilder::new(n);
        let mut w = 1u64;
        for (_, l) in base.links() {
            w = w % 7 + 1;
            b.link_with(l.a, l.b, SimDuration::from_secs(w), 1);
        }
        let topo = b.build();
        let truth = floyd_warshall(&topo);
        for root in 0..n {
            let spt = SpTree::compute(&topo, NodeId(root as u32));
            for v in 0..n {
                let got = spt.distance(NodeId(v as u32)).as_secs_f64();
                prop_assert!((got - truth[root][v]).abs() < 1e-6,
                    "root {root} -> {v}: {got} vs {}", truth[root][v]);
            }
        }
    }

    /// The flat `SpTree` layout answers every structural query the way a
    /// naive tree builder does, on random graphs with random failed links:
    /// same parents, children listed by ascending id, same reachability,
    /// root paths and downstream sets.
    #[test]
    fn spt_structure_matches_reference(
        seed in 0u64..100_000,
        n in 2usize..24,
        extra in 0usize..12,
        down in prop::collection::vec(0u8..4, 0..40),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = (n - 1 + extra).min(n * (n - 1) / 2);
        let base = random_connected_graph(n, m, &mut rng);
        let mut b = TopologyBuilder::new(n);
        for (id, l) in base.links() {
            b.link_with(l.a, l.b, SimDuration::from_secs(id.index() as u64 % 3 + 1), 1);
        }
        let topo = b.build();
        let up: Vec<bool> = (0..topo.num_links()).map(|i| down.get(i) != Some(&0)).collect();
        for root in (0..n as u32).map(NodeId) {
            let spt = SpTree::compute_masked(&topo, root, Some(&up));
            let reference = RefTree::build(&topo, root, &up);
            for v in topo.nodes() {
                prop_assert_eq!(spt.parent(v), reference.parent[v.index()], "parent of {:?}", v);
                let kids: Vec<(NodeId, LinkId)> = topo
                    .nodes()
                    .filter_map(|w| match reference.parent[w.index()] {
                        Some((p, l)) if p == v => Some((w, l)),
                        _ => None,
                    })
                    .collect();
                prop_assert_eq!(spt.children(v), &kids[..], "children of {:?}", v);
                let reachable = v == root || reference.parent[v.index()].is_some();
                prop_assert_eq!(spt.reachable(v), reachable, "reachability of {:?}", v);
                prop_assert_eq!(spt.path_links(v), reference.path_links(v), "path to {:?}", v);
            }
            for (l, _) in topo.links() {
                let downstream: Vec<NodeId> = topo
                    .nodes()
                    .filter(|&v| reference.path_links(v).contains(&l))
                    .collect();
                prop_assert_eq!(spt.downstream_of(l), downstream, "downstream of {:?}", l);
            }
        }
    }

    /// `ttl_reach` is monotone in TTL, and `min_ttl_to_reach` is exact:
    /// reachable at its value, unreachable one below.
    #[test]
    fn ttl_reach_consistency(seed in 0u64..100_000, n in 3usize..30) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = random_labeled_tree(n, &mut rng);
        let spt = SpTree::compute(&topo, NodeId(0));
        let mut prev = 0usize;
        for ttl in 0..=(n as u8) {
            let reach = spt.ttl_reach(&topo, ttl);
            prop_assert!(reach.len() >= prev, "monotone in ttl");
            prev = reach.len();
        }
        for v in 1..n as u32 {
            let need = spt.min_ttl_to_reach(&topo, NodeId(v)).unwrap();
            prop_assert!(spt.ttl_reach(&topo, need).contains(&NodeId(v)));
            if need > 0 {
                prop_assert!(!spt.ttl_reach(&topo, need - 1).contains(&NodeId(v)));
            }
        }
    }

    /// Prüfer decoding always yields a tree whose node degrees equal
    /// 1 + multiplicity in the sequence.
    #[test]
    fn prufer_degree_property(prufer in prop::collection::vec(0usize..12, 10)) {
        let n = 12;
        let edges = prufer_decode(n, &prufer);
        prop_assert_eq!(edges.len(), n - 1);
        let mut deg = vec![0usize; n];
        for (a, b) in &edges {
            deg[*a] += 1;
            deg[*b] += 1;
        }
        for v in 0..n {
            let mult = prufer.iter().filter(|&&p| p == v).count();
            prop_assert_eq!(deg[v], mult + 1, "degree of {}", v);
        }
        // Connectivity via the builder check.
        let mut b = TopologyBuilder::new(n);
        for (x, y) in edges {
            b.link(NodeId(x as u32), NodeId(y as u32));
        }
        prop_assert!(b.build().is_tree());
    }

    /// AduStore: after any interleaving of inserts and existence notes,
    /// `missing_on_page` is exactly the names known but not held, and
    /// `page_state` reports the true high-water mark.
    #[test]
    fn store_invariants(ops in prop::collection::vec((0u8..2, 0u64..3, 0u64..30), 1..60)) {
        let page = PageId::new(SourceId(9), 0);
        let mut store = AduStore::new();
        let mut inserted: std::collections::BTreeSet<(u64, u64)> = Default::default();
        let mut known_high: std::collections::BTreeMap<u64, u64> = Default::default();
        for (kind, src, seq) in ops {
            let name = AduName::new(SourceId(src), page, SeqNo(seq));
            if kind == 0 {
                store.insert(name, bytes::Bytes::new());
                inserted.insert((src, seq));
                let e = known_high.entry(src).or_insert(seq);
                *e = (*e).max(seq);
            } else {
                store.note_exists(SourceId(src), page, SeqNo(seq));
                let e = known_high.entry(src).or_insert(seq);
                *e = (*e).max(seq);
            }
        }
        // Expected missing set.
        let mut expect_missing = Vec::new();
        for (&src, &high) in &known_high {
            for q in 0..=high {
                if !inserted.contains(&(src, q)) {
                    expect_missing.push(AduName::new(SourceId(src), page, SeqNo(q)));
                }
            }
        }
        let mut got = store.missing_on_page(page);
        got.sort();
        expect_missing.sort();
        prop_assert_eq!(got, expect_missing);
        // High-water marks.
        for (src, high) in known_high {
            prop_assert_eq!(
                store.highest_known(SourceId(src), page),
                Some(SeqNo(high))
            );
        }
    }

    /// The timer-interval draw respects `[C1·d, (C1+C2)·d]` for arbitrary
    /// parameters, and backoff scales both ends.
    #[test]
    fn timer_interval_bounds(
        c1 in 0.0f64..10.0,
        c2 in 0.0f64..50.0,
        d_ms in 1u64..10_000,
        k in 0u32..5,
        seed in 0u64..10_000,
    ) {
        use srm::timers::TimerInterval;
        let d = SimDuration::from_secs_f64(d_ms as f64 / 1000.0);
        let base = TimerInterval::request(c1, c2, d);
        let b = base.backed_off(2.0, k);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..20 {
            let v = b.draw(&mut rng).as_secs_f64();
            let f = 2f64.powi(k as i32);
            let lo = c1 * d.as_secs_f64() * f;
            let hi = (c1 + c2) * d.as_secs_f64() * f;
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "{v} in [{lo}, {hi}]");
        }
    }
}
