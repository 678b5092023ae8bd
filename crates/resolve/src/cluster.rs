//! Union-find clustering of matched pairs into entities — of row pairs
//! ([`cluster_pairs`]), or of the class pairs the ER walk keeps, expanded to
//! rows without writing a row pair down.

use crate::blocking::RecordClasses;
use crate::kernel::{Edge, Verdict};

/// Disjoint-set forest with union by rank and path compression.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n).collect(),
            rank: vec![0; n],
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merge the sets of `a` and `b`; returns true if they were separate.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
        true
    }

    /// True if `a` and `b` are in the same set.
    pub fn same(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Materialize all sets, ordered by their smallest member; members sorted.
    /// Walking the elements in order meets each set first at its smallest
    /// member and fills every set in ascending order, so no sort is needed.
    pub fn clusters(&mut self) -> Vec<Vec<usize>> {
        let mut index = vec![usize::MAX; self.len()];
        let mut out: Vec<Vec<usize>> = Vec::new();
        for x in 0..self.len() {
            let r = self.find(x);
            if index[r] == usize::MAX {
                index[r] = out.len();
                out.push(Vec::new());
            }
            out[index[r]].push(x);
        }
        out
    }
}

/// Cluster `n` records given matched pairs.
pub fn cluster_pairs(n: usize, pairs: impl IntoIterator<Item = (usize, usize)>) -> Vec<Vec<usize>> {
    let mut uf = UnionFind::new(n);
    for (i, j) in pairs {
        uf.union(i, j);
    }
    uf.clusters()
}

/// The row pairs `(i, j)`, `i < j`, with `i` a row of class `lo` and `j`
/// one of class `hi`: all of them unless some row of `hi` precedes some row
/// of `lo`, else counted by one merge of the two ascending row lists.
fn forward_pairs(classes: &RecordClasses, lo: usize, hi: usize) -> u64 {
    if !classes.reversed(lo, hi) {
        return classes.size(lo) * classes.size(hi);
    }
    let lo_rows = classes.rows(lo);
    let (mut below, mut total) = (0, 0);
    for &j in classes.rows(hi) {
        while below < lo_rows.len() && lo_rows[below] < j {
            below += 1;
        }
        total += below as u64;
    }
    total
}

/// The row pairs under kept class pair `e` that match: each row pair is
/// decided in the orientation its rows come in.
pub(crate) fn matched_row_pairs(classes: &RecordClasses, e: &Edge) -> u64 {
    let (lo, hi) = (e.lo as usize, e.hi as usize);
    if lo == hi {
        let s = classes.size(lo);
        return if e.fwd == Verdict::Yes {
            s * (s - 1) / 2
        } else {
            0
        };
    }
    let all = classes.size(lo) * classes.size(hi);
    match (e.fwd, e.rev) {
        (Verdict::Yes, Verdict::Yes) => all,
        (Verdict::Yes, _) => forward_pairs(classes, lo, hi),
        (_, Verdict::Yes) => all - forward_pairs(classes, lo, hi),
        _ => 0,
    }
}

/// Join every row pair `(i, j)`, `i < j`, `i` from `a` and `j` from `b` —
/// through two rows: every such `i` precedes `b`'s last row, every such `j`
/// follows `a`'s first, and those two form a pair themselves. At least one
/// pair exists (`a[0] < b[last]`).
fn link(uf: &mut UnionFind, a: &[u32], b: &[u32]) {
    let (Some(&first_a), Some(&last_b)) = (a.first(), b.last()) else {
        return;
    };
    for &i in a.iter().take_while(|&&i| i < last_b) {
        uf.union(i as usize, last_b as usize);
    }
    for &j in b.iter().filter(|&&j| j > first_a) {
        uf.union(first_a as usize, j as usize);
    }
}

/// The entities of a union from its record classes and the class pairs the
/// walk kept: [`cluster_pairs`] over every matching row pair, with one
/// union per class pair. A class that matches itself, or matches every row
/// of a partner class in both orientations the union meets, is *joined* —
/// its rows are one set, united once; such a pair unites the two classes
/// through their first rows. A pair that matches in one orientation only is
/// linked row by row ([`link`]), which decides nothing the classes did not.
pub(crate) fn cluster_classes(classes: &RecordClasses, edges: &[Edge]) -> Vec<Vec<usize>> {
    let mut uf = UnionFind::new(classes.num_rows());
    let mut joined = vec![false; classes.len()];
    for e in edges {
        let (lo, hi) = (e.lo as usize, e.hi as usize);
        if lo == hi {
            joined[lo] |= e.fwd == Verdict::Yes;
        } else if e.fwd == Verdict::Yes && (e.rev == Verdict::Yes || !classes.reversed(lo, hi)) {
            joined[lo] = true;
            joined[hi] = true;
            uf.union(classes.first(lo), classes.first(hi));
        } else if e.fwd == Verdict::Yes {
            link(&mut uf, classes.rows(lo), classes.rows(hi));
        } else if e.rev == Verdict::Yes {
            link(&mut uf, classes.rows(hi), classes.rows(lo));
        }
    }
    for c in (0..classes.len()).filter(|&c| joined[c]) {
        let first = classes.first(c);
        for &r in &classes.rows(c)[1..] {
            uf.union(first, r as usize);
        }
    }
    uf.clusters()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transitive_merging() {
        // 0-1, 1-2 → {0,1,2}; 3 alone.
        let clusters = cluster_pairs(4, [(0, 1), (1, 2)]);
        assert_eq!(clusters, vec![vec![0, 1, 2], vec![3]]);
    }

    #[test]
    fn union_reports_novelty() {
        let mut uf = UnionFind::new(3);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert!(uf.same(0, 1));
        assert!(!uf.same(0, 2));
    }

    #[test]
    fn empty_and_singletons() {
        assert!(cluster_pairs(0, []).is_empty());
        let c = cluster_pairs(3, []);
        assert_eq!(c, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn clusters_deterministic_order() {
        let clusters = cluster_pairs(6, [(4, 5), (0, 3)]);
        assert_eq!(clusters, vec![vec![0, 3], vec![1], vec![2], vec![4, 5]]);
    }

    #[test]
    fn large_chain_compresses() {
        let n = 10_000;
        let pairs: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let clusters = cluster_pairs(n, pairs);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].len(), n);
    }
}
