//! Arena-allocated rooted trees with Euler-tour ancestry and LCA.
//!
//! Both trees of the paper live on this type: the fork/loop hierarchy `T_G`
//! (§3) and the execution plan `T_R` (§4.1). The plan builder creates nodes
//! bottom-up before their parents exist, so nodes start detached and are
//! linked later; child order is the insertion order of [`Tree::set_parent`]
//! calls (this is what makes `T_R` *semi-ordered*: loop-group children are
//! attached in serial order).
//!
//! [`Tree::preorder_by`] drives the three traversals of Algorithm 1, where
//! the per-node child order is chosen by a callback. [`Ancestry`] gives O(1)
//! `is_ancestor` and O(1) LCA (Euler tour + sparse table) — used by the test
//! oracle for Lemma 4.5 and by the LCA-based ablation baseline.

use crate::digraph::NIL;

struct Node<T> {
    parent: u32,
    children: Vec<u32>,
    data: T,
}

/// An arena tree (possibly a forest while under construction).
pub struct Tree<T> {
    nodes: Vec<Node<T>>,
}

/// Child visit order for [`Tree::preorder_by`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChildOrder {
    /// Visit children left to right (insertion order).
    Forward,
    /// Visit children right to left.
    Reverse,
}

impl<T> Default for Tree<T> {
    fn default() -> Self {
        Tree { nodes: Vec::new() }
    }
}

impl<T> Tree<T> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes (attached or detached).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adds a detached node carrying `data`; returns its id.
    pub fn add_node(&mut self, data: T) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push(Node {
            parent: NIL,
            children: Vec::new(),
            data,
        });
        id
    }

    /// Adds a node and immediately attaches it as the last child of `parent`.
    pub fn add_child(&mut self, parent: u32, data: T) -> u32 {
        let id = self.add_node(data);
        self.set_parent(id, parent);
        id
    }

    /// Attaches the detached node `child` as the last child of `parent`.
    /// Panics if `child` already has a parent or if this would self-loop.
    pub fn set_parent(&mut self, child: u32, parent: u32) {
        assert_ne!(child, parent, "node cannot parent itself");
        assert_eq!(
            self.nodes[child as usize].parent, NIL,
            "node {child} already has a parent"
        );
        self.nodes[child as usize].parent = parent;
        self.nodes[parent as usize].children.push(child);
    }

    /// Parent of `x`, or `None` for a root/detached node.
    #[inline]
    pub fn parent(&self, x: u32) -> Option<u32> {
        let p = self.nodes[x as usize].parent;
        (p != NIL).then_some(p)
    }

    /// Children of `x` in insertion order.
    #[inline]
    pub fn children(&self, x: u32) -> &[u32] {
        &self.nodes[x as usize].children
    }

    /// Payload of `x`.
    #[inline]
    pub fn data(&self, x: u32) -> &T {
        &self.nodes[x as usize].data
    }

    /// Mutable payload of `x`.
    #[inline]
    pub fn data_mut(&mut self, x: u32) -> &mut T {
        &mut self.nodes[x as usize].data
    }

    /// All nodes with no parent (a fully built tree has exactly one).
    pub fn roots(&self) -> impl Iterator<Item = u32> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.parent == NIL)
            .map(|(i, _)| i as u32)
    }

    /// The unique root. Panics unless exactly one node is parentless.
    pub fn root(&self) -> u32 {
        let mut it = self.roots();
        let r = it.next().expect("tree has no root");
        assert!(it.next().is_none(), "tree has multiple roots");
        r
    }

    /// Depth of every node below `root` (`root` has depth 0; detached
    /// subtrees keep `u32::MAX`).
    pub fn depths(&self, root: u32) -> Vec<u32> {
        let mut depth = vec![u32::MAX; self.len()];
        depth[root as usize] = 0;
        let mut stack = vec![root];
        while let Some(x) = stack.pop() {
            let d = depth[x as usize];
            for &c in self.children(x) {
                depth[c as usize] = d + 1;
                stack.push(c);
            }
        }
        depth
    }

    /// Iterative preorder traversal from `root`, visiting each node's
    /// children in the order chosen by `order(node)`. Calls `visit` on every
    /// node, parents before descendants.
    ///
    /// This is the engine behind the three traversals of Algorithm 1.
    pub fn preorder_by(
        &self,
        root: u32,
        mut order: impl FnMut(u32) -> ChildOrder,
        mut visit: impl FnMut(u32),
    ) {
        let mut stack = vec![root];
        while let Some(x) = stack.pop() {
            visit(x);
            let kids = self.children(x);
            match order(x) {
                // Stack is LIFO: push reversed so children pop left-to-right.
                ChildOrder::Forward => stack.extend(kids.iter().rev().copied()),
                ChildOrder::Reverse => stack.extend(kids.iter().copied()),
            }
        }
    }

    /// Plain left-to-right preorder listing.
    pub fn preorder(&self, root: u32) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len());
        self.preorder_by(root, |_| ChildOrder::Forward, |x| out.push(x));
        out
    }
}

/// Euler-tour ancestry structure: O(1) `is_ancestor`, O(1) LCA after
/// `O(n log n)` preprocessing.
pub struct Ancestry {
    tin: Vec<u32>,
    tout: Vec<u32>,
    /// euler[i] = node at position i of the Euler tour
    euler: Vec<u32>,
    /// first[v] = first occurrence of v in the tour
    first: Vec<u32>,
    /// sparse[k][i] = tour position with minimum depth in window [i, i+2^k)
    sparse: Vec<Vec<u32>>,
    depth: Vec<u32>,
}

impl Ancestry {
    /// Builds the structure for the subtree rooted at `root`.
    pub fn build<T>(tree: &Tree<T>, root: u32) -> Self {
        let n = tree.len();
        let mut tin = vec![u32::MAX; n];
        let mut tout = vec![u32::MAX; n];
        let mut euler = Vec::with_capacity(2 * n);
        let mut first = vec![u32::MAX; n];
        let depth = tree.depths(root);
        let mut clock = 0u32;

        // Iterative DFS recording entry/exit times and the Euler tour.
        enum Step {
            Enter(u32),
            Exit(u32),
            Touch(u32), // re-visit of a node between children (Euler tour)
        }
        let mut stack = vec![Step::Enter(root)];
        while let Some(step) = stack.pop() {
            match step {
                Step::Enter(x) => {
                    tin[x as usize] = clock;
                    clock += 1;
                    first[x as usize] = euler.len() as u32;
                    euler.push(x);
                    stack.push(Step::Exit(x));
                    let kids = tree.children(x);
                    for (i, &c) in kids.iter().enumerate().rev() {
                        stack.push(Step::Enter(c));
                        if i > 0 {
                            stack.push(Step::Touch(x));
                        }
                    }
                }
                Step::Touch(x) => euler.push(x),
                Step::Exit(x) => {
                    tout[x as usize] = clock;
                    clock += 1;
                }
            }
        }

        // Sparse table over the Euler tour for range-minimum (by depth).
        let m = euler.len();
        let levels = if m <= 1 {
            1
        } else {
            (usize::BITS - (m - 1).leading_zeros()) as usize + 1
        };
        let mut sparse: Vec<Vec<u32>> = Vec::with_capacity(levels);
        sparse.push((0..m as u32).collect());
        let mut k = 1;
        while (1 << k) <= m {
            let half = 1 << (k - 1);
            let prev = &sparse[k - 1];
            let mut row = Vec::with_capacity(m - (1 << k) + 1);
            for i in 0..=(m - (1 << k)) {
                let a = prev[i];
                let b = prev[i + half];
                let pick = if depth[euler[a as usize] as usize] <= depth[euler[b as usize] as usize]
                {
                    a
                } else {
                    b
                };
                row.push(pick);
            }
            sparse.push(row);
            k += 1;
        }

        Ancestry {
            tin,
            tout,
            euler,
            first,
            sparse,
            depth,
        }
    }

    /// Whether `a` is an ancestor of `b` (reflexive: `is_ancestor(x, x)`).
    #[inline]
    pub fn is_ancestor(&self, a: u32, b: u32) -> bool {
        self.tin[a as usize] <= self.tin[b as usize]
            && self.tout[b as usize] <= self.tout[a as usize]
    }

    /// Lowest common ancestor of `a` and `b`.
    pub fn lca(&self, a: u32, b: u32) -> u32 {
        let (mut i, mut j) = (
            self.first[a as usize] as usize,
            self.first[b as usize] as usize,
        );
        if i > j {
            std::mem::swap(&mut i, &mut j);
        }
        let len = j - i + 1;
        let k = (usize::BITS - 1 - len.leading_zeros()) as usize;
        let x = self.sparse[k][i];
        let y = self.sparse[k][j + 1 - (1 << k)];
        let (nx, ny) = (self.euler[x as usize], self.euler[y as usize]);
        if self.depth[nx as usize] <= self.depth[ny as usize] {
            nx
        } else {
            ny
        }
    }

    /// Depth of `x` below the build root.
    #[inline]
    pub fn depth(&self, x: u32) -> u32 {
        self.depth[x as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the tree
    /// ```text
    ///        0
    ///      / | \
    ///     1  2  3
    ///    / \     \
    ///   4   5     6
    /// ```
    fn sample() -> Tree<&'static str> {
        let mut t = Tree::new();
        let r = t.add_node("0");
        let a = t.add_child(r, "1");
        let _b = t.add_child(r, "2");
        let c = t.add_child(r, "3");
        t.add_child(a, "4");
        t.add_child(a, "5");
        t.add_child(c, "6");
        t
    }

    #[test]
    fn structure_accessors() {
        let t = sample();
        assert_eq!(t.len(), 7);
        assert_eq!(t.root(), 0);
        assert_eq!(t.children(0), &[1, 2, 3]);
        assert_eq!(t.parent(4), Some(1));
        assert_eq!(t.parent(0), None);
        assert_eq!(*t.data(6), "6");
    }

    #[test]
    fn preorder_forward_and_reverse() {
        let t = sample();
        assert_eq!(t.preorder(0), vec![0, 1, 4, 5, 2, 3, 6]);
        let mut rev = Vec::new();
        t.preorder_by(0, |_| ChildOrder::Reverse, |x| rev.push(x));
        assert_eq!(rev, vec![0, 3, 6, 2, 1, 5, 4]);
        // mixed: reverse only at the root
        let mut mixed = Vec::new();
        t.preorder_by(
            0,
            |x| {
                if x == 0 {
                    ChildOrder::Reverse
                } else {
                    ChildOrder::Forward
                }
            },
            |x| mixed.push(x),
        );
        assert_eq!(mixed, vec![0, 3, 6, 2, 1, 4, 5]);
    }

    #[test]
    fn depths() {
        let t = sample();
        assert_eq!(t.depths(0), vec![0, 1, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn ancestry_and_lca() {
        let t = sample();
        let anc = Ancestry::build(&t, 0);
        assert!(anc.is_ancestor(0, 6));
        assert!(anc.is_ancestor(1, 4));
        assert!(anc.is_ancestor(4, 4));
        assert!(!anc.is_ancestor(4, 1));
        assert!(!anc.is_ancestor(1, 6));
        assert_eq!(anc.lca(4, 5), 1);
        assert_eq!(anc.lca(4, 6), 0);
        assert_eq!(anc.lca(1, 4), 1);
        assert_eq!(anc.lca(2, 3), 0);
        assert_eq!(anc.lca(0, 6), 0);
        assert_eq!(anc.lca(5, 5), 5);
    }

    #[test]
    fn lca_on_a_path_tree() {
        let mut t = Tree::new();
        let mut prev = t.add_node(0u32);
        let root = prev;
        for i in 1..50u32 {
            prev = t.add_child(prev, i);
        }
        let anc = Ancestry::build(&t, root);
        assert_eq!(anc.lca(10, 40), 10);
        assert!(anc.is_ancestor(10, 40));
        assert_eq!(anc.depth(40), 40);
    }

    #[test]
    fn detached_then_linked() {
        let mut t = Tree::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        assert_eq!(t.roots().count(), 3);
        t.set_parent(b, a);
        t.set_parent(c, a);
        assert_eq!(t.root(), a);
        assert_eq!(t.children(a), &[b, c]);
    }

    #[test]
    #[should_panic(expected = "already has a parent")]
    fn double_link_panics() {
        let mut t = Tree::new();
        let a = t.add_node(());
        let b = t.add_node(());
        let c = t.add_node(());
        t.set_parent(c, a);
        t.set_parent(c, b);
    }
}
