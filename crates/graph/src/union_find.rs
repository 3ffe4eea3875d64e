//! Union–find (disjoint-set forest) with path halving and union by size.
//!
//! This is the structure the paper cites as "Union-Find algorithm [20]"
//! (Tarjan, JACM 1975) for building the ClusterGraph. Amortized cost per
//! operation is O(α(n)), effectively constant.

/// Disjoint-set forest over dense ids `0..n`.
///
/// Ids are `u32` because entity-resolution candidate sets in this workspace
/// are bounded by the number of records (thousands), and 32-bit parent links
/// halve the memory traffic of the hot find loop (perf-book "smaller
/// integers" guidance).
#[derive(Debug, Clone)]
pub struct UnionFind {
    /// `parent[i]` is the parent of `i`; roots satisfy `parent[i] == i`.
    parent: Vec<u32>,
    /// `size[r]` is the component size; only meaningful for roots.
    size: Vec<u32>,
    /// Number of disjoint components.
    components: usize,
}

impl UnionFind {
    /// Creates `n` singleton components with ids `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds `u32::MAX as usize`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "UnionFind supports at most u32::MAX elements");
        Self { parent: (0..n as u32).collect(), size: vec![1; n], components: n }
    }

    /// Returns to `len()` singleton components, keeping both allocations —
    /// for callers that rebuild a forest over the same universe many times.
    pub fn reset(&mut self) {
        for (i, p) in self.parent.iter_mut().enumerate() {
            *p = i as u32;
        }
        self.size.fill(1);
        self.components = self.parent.len();
    }

    /// Number of elements in the universe.
    #[must_use]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` when the universe is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint components.
    #[must_use]
    pub fn num_components(&self) -> usize {
        self.components
    }

    /// `true` when `x` is a root; `false` for an id outside the universe.
    pub(crate) fn is_root(&self, x: u32) -> bool {
        self.parent.get(x as usize) == Some(&x)
    }

    /// Finds the root of `x`, applying path halving.
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range.
    pub fn find(&mut self, x: u32) -> u32 {
        let mut x = x;
        loop {
            let p = self.parent[x as usize];
            if p == x {
                return x;
            }
            let gp = self.parent[p as usize];
            // Path halving: point x at its grandparent and step there.
            self.parent[x as usize] = gp;
            x = gp;
        }
    }

    /// Read-only root lookup without path compression (usable through `&self`;
    /// slightly slower than [`UnionFind::find`], used where interior
    /// mutability would be awkward).
    #[must_use]
    pub fn find_immutable(&self, x: u32) -> u32 {
        let mut x = x;
        while self.parent[x as usize] != x {
            x = self.parent[x as usize];
        }
        x
    }

    /// `true` when `a` and `b` are in the same component.
    pub fn connected(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Unions the components of `a` and `b` by size.
    ///
    /// Returns `Some((winner_root, absorbed_root))` when two distinct
    /// components were merged, `None` when `a` and `b` were already connected.
    /// The winner is the larger component's root (ties favor `a`'s root); the
    /// caller can use the pair to migrate per-root satellite data.
    pub fn union(&mut self, a: u32, b: u32) -> Option<(u32, u32)> {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return None;
        }
        Some(self.union_roots(ra, rb))
    }

    /// [`Self::union`] for a caller that already holds the two **distinct
    /// roots** (the ClusterGraph resolves them once per insert). Returns
    /// `(winner_root, absorbed_root)`; ties favor `ra`.
    pub(crate) fn union_roots(&mut self, ra: u32, rb: u32) -> (u32, u32) {
        debug_assert!(ra != rb && self.parent[ra as usize] == ra && self.parent[rb as usize] == rb);
        let (winner, absorbed) =
            if self.size[ra as usize] >= self.size[rb as usize] { (ra, rb) } else { (rb, ra) };
        self.parent[absorbed as usize] = winner;
        self.size[winner as usize] += self.size[absorbed as usize];
        self.components -= 1;
        (winner, absorbed)
    }

    /// Size of the component containing `x`.
    pub fn component_size(&mut self, x: u32) -> u32 {
        let r = self.find(x);
        self.size[r as usize]
    }

    /// Dense component labeling: returns `ids` with `ids[x]` a component
    /// index in `0..num_components()`, numbered by first occurrence (so the
    /// labeling is canonical for a given universe). This is the cheap bulk
    /// form of component extraction used by the execution engine's
    /// partitioner — one pass, no hashing.
    pub fn component_ids(&mut self) -> Vec<u32> {
        let n = self.parent.len();
        const UNASSIGNED: u32 = u32::MAX;
        let mut of_root = vec![UNASSIGNED; n];
        let mut ids = Vec::with_capacity(n);
        let mut next = 0u32;
        for x in 0..n as u32 {
            let r = self.find(x) as usize;
            if of_root[r] == UNASSIGNED {
                of_root[r] = next;
                next += 1;
            }
            ids.push(of_root[r]);
        }
        debug_assert_eq!(next as usize, self.components);
        ids
    }

    /// Groups all elements by root; returned groups are sorted internally and
    /// by their smallest member, giving a canonical clustering for tests and
    /// reporting.
    pub fn clusters(&mut self) -> Vec<Vec<u32>> {
        use crowdjoin_util::FxHashMap;
        let mut by_root: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
        for x in 0..self.parent.len() as u32 {
            let r = self.find(x);
            by_root.entry(r).or_default().push(x);
        }
        let mut groups: Vec<Vec<u32>> = by_root.into_values().collect();
        for g in &mut groups {
            g.sort_unstable();
        }
        groups.sort_unstable_by_key(|g| g[0]);
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn singletons_initially() {
        let mut uf = UnionFind::new(4);
        assert_eq!(uf.len(), 4);
        assert_eq!(uf.num_components(), 4);
        for i in 0..4 {
            assert_eq!(uf.find(i), i);
            assert_eq!(uf.component_size(i), 1);
        }
    }

    #[test]
    fn union_merges_and_counts() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1).is_some());
        assert!(uf.union(1, 2).is_some());
        assert!(uf.union(0, 2).is_none(), "already connected");
        assert_eq!(uf.num_components(), 3);
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(0, 3));
        assert_eq!(uf.component_size(2), 3);
    }

    #[test]
    fn union_by_size_reports_winner() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 1); // {0,1}
        uf.union(2, 3); // {2,3}
        uf.union(0, 2); // {0,1,2,3}
                        // Now union size-4 with singleton 4; winner must be the big root.
        let (winner, absorbed) = uf.union(4, 0).unwrap();
        assert_eq!(uf.find(4), winner);
        assert_eq!(uf.find(absorbed), winner);
        assert_eq!(uf.component_size(4), 5);
    }

    #[test]
    fn reset_returns_to_singletons() {
        let mut uf = UnionFind::new(5);
        uf.union(0, 1);
        uf.union(1, 4);
        uf.reset();
        assert_eq!(uf.len(), 5);
        assert_eq!(uf.num_components(), 5);
        for i in 0..5 {
            assert_eq!(uf.find(i), i);
            assert_eq!(uf.component_size(i), 1);
        }
    }

    #[test]
    fn clusters_are_canonical() {
        let mut uf = UnionFind::new(6);
        uf.union(5, 3);
        uf.union(1, 2);
        let clusters = uf.clusters();
        assert_eq!(clusters, vec![vec![0], vec![1, 2], vec![3, 5], vec![4]]);
    }

    #[test]
    fn component_ids_are_dense_and_canonical() {
        let mut uf = UnionFind::new(6);
        uf.union(5, 3);
        uf.union(1, 2);
        let ids = uf.component_ids();
        // First-occurrence numbering: 0→0, 1→1, 2→1, 3→2, 4→3, 5→2.
        assert_eq!(ids, vec![0, 1, 1, 2, 3, 2]);
        assert_eq!(ids.iter().copied().max().unwrap() as usize + 1, uf.num_components());
    }

    #[test]
    fn find_immutable_agrees_with_find() {
        let mut uf = UnionFind::new(10);
        uf.union(0, 1);
        uf.union(1, 2);
        uf.union(3, 4);
        for x in 0..10 {
            assert_eq!(uf.find_immutable(x), uf.clone().find(x));
        }
    }

    #[test]
    fn empty_universe() {
        let uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.num_components(), 0);
    }

    proptest! {
        /// Connectivity in union–find must equal reachability in the
        /// underlying undirected edge set.
        #[test]
        fn matches_naive_connectivity(edges in proptest::collection::vec((0u32..20, 0u32..20), 0..60)) {
            let n = 20usize;
            let mut uf = UnionFind::new(n);
            for &(a, b) in &edges {
                uf.union(a, b);
            }
            // Naive: BFS over adjacency.
            let mut adj = vec![vec![]; n];
            for &(a, b) in &edges {
                adj[a as usize].push(b);
                adj[b as usize].push(a);
            }
            let mut comp = vec![usize::MAX; n];
            let mut next = 0;
            for start in 0..n {
                if comp[start] != usize::MAX {
                    continue;
                }
                let mut queue = vec![start as u32];
                comp[start] = next;
                while let Some(x) = queue.pop() {
                    for &y in &adj[x as usize] {
                        if comp[y as usize] == usize::MAX {
                            comp[y as usize] = next;
                            queue.push(y);
                        }
                    }
                }
                next += 1;
            }
            for a in 0..n as u32 {
                for b in 0..n as u32 {
                    prop_assert_eq!(
                        uf.connected(a, b),
                        comp[a as usize] == comp[b as usize],
                        "disagreement on ({}, {})", a, b
                    );
                }
            }
            prop_assert_eq!(uf.num_components(), next);
        }

        /// Component sizes always sum to the universe size.
        #[test]
        fn sizes_partition_universe(edges in proptest::collection::vec((0u32..16, 0u32..16), 0..40)) {
            let mut uf = UnionFind::new(16);
            for &(a, b) in &edges {
                uf.union(a, b);
            }
            let clusters = uf.clusters();
            let total: usize = clusters.iter().map(Vec::len).sum();
            prop_assert_eq!(total, 16);
            prop_assert_eq!(clusters.len(), uf.num_components());
        }
    }
}
