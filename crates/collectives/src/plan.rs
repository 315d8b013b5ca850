//! Mapping an optimized tree onto thread ranks.
//!
//! The paper distinguishes inter-tile from intra-tile communication: the
//! optimized tree spans one *leader* rank per tile, and the remaining ranks
//! of a tile hang off their leader as a flat subtree ("when there is more
//! than one thread per tile, we make a flat tree within the tile"). On the
//! host (no tile information) every rank is its own leader.

use knl_arch::Schedule;
use knl_core::Tree;
use std::fmt;

/// Why a [`RankPlan`] is malformed, with the ranks involved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The plan spans zero ranks.
    Empty,
    /// The root rank index is outside the plan.
    RootOutOfRange { root: usize, num_ranks: usize },
    /// The root has a parent.
    RootHasParent { root: usize, parent: usize },
    /// A parent or child index is outside the plan.
    RankOutOfRange { rank: usize, num_ranks: usize },
    /// `children[parent]` lists `child` but `parent[child]` disagrees.
    ParentMismatch {
        child: usize,
        listed_under: usize,
        actual_parent: Option<usize>,
    },
    /// A rank appears as a child more than once (a cycle or diamond).
    DuplicateRank { rank: usize },
    /// Ranks not reachable from the root.
    Unreachable { ranks: Vec<usize> },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Empty => write!(f, "plan spans zero ranks"),
            PlanError::RootOutOfRange { root, num_ranks } => {
                write!(f, "root rank {root} out of range (plan spans {num_ranks})")
            }
            PlanError::RootHasParent { root, parent } => {
                write!(f, "root rank {root} must have no parent, has {parent}")
            }
            PlanError::RankOutOfRange { rank, num_ranks } => {
                write!(f, "rank {rank} out of range (plan spans {num_ranks})")
            }
            PlanError::ParentMismatch {
                child,
                listed_under,
                actual_parent,
            } => write!(
                f,
                "rank {child} is listed as a child of {listed_under} but its parent \
                 is {actual_parent:?}"
            ),
            PlanError::DuplicateRank { rank } => {
                write!(f, "rank {rank} reachable twice (cycle or diamond)")
            }
            PlanError::Unreachable { ranks } => {
                write!(f, "ranks {ranks:?} unreachable from the root")
            }
        }
    }
}

/// Per-rank parent/children derived from a tree + tile grouping.
#[derive(Debug, Clone)]
pub struct RankPlan {
    /// Parent rank of each rank (`None` for the root).
    pub parent: Vec<Option<usize>>,
    /// Children ranks of each rank, in notification order.
    pub children: Vec<Vec<usize>>,
    /// Rank acting as tree root.
    pub root: usize,
}

impl RankPlan {
    /// Flat mapping: tree node BFS id == rank (a tree that spans every
    /// rank, as the binomial baselines do, or one thread per tile).
    pub fn direct(tree: &Tree) -> Self {
        let parent = tree.bfs_parents();
        let children = tree.bfs_children();
        RankPlan {
            parent,
            children,
            root: 0,
        }
    }

    /// Hierarchical mapping for `n` ranks pinned by `schedule` on a machine
    /// with `num_cores` cores: ranks sharing a tile form a group; the tree
    /// (over `groups.len()` nodes) connects the group leaders; members
    /// attach flat under their leader.
    pub fn hierarchical(tree: &Tree, n: usize, schedule: Schedule, num_cores: usize) -> Self {
        let groups = tile_groups(n, schedule, num_cores);
        assert_eq!(
            tree.size(),
            groups.len(),
            "tree must span one node per tile group"
        );
        let leader_parent = tree.bfs_parents();
        let leader_children = tree.bfs_children();
        let mut parent = vec![None; n];
        let mut children = vec![Vec::new(); n];
        for (g, group) in groups.iter().enumerate() {
            let leader = group[0];
            parent[leader] = leader_parent[g].map(|pg| groups[pg][0]);
            children[leader] = leader_children[g].iter().map(|&cg| groups[cg][0]).collect();
            for &member in &group[1..] {
                parent[member] = Some(leader);
                children[leader].push(member);
            }
        }
        RankPlan {
            parent,
            children,
            root: groups[0][0],
        }
    }

    /// Number of ranks the plan spans.
    pub fn num_ranks(&self) -> usize {
        self.parent.len()
    }

    /// Sanity: every non-root rank has a parent, parent/children agree,
    /// and every rank is reachable from the root exactly once. Returns the
    /// first defect found (root checks, then rank order).
    pub fn validate(&self) -> Result<(), PlanError> {
        let n = self.num_ranks();
        if n == 0 {
            return Err(PlanError::Empty);
        }
        if self.root >= n {
            return Err(PlanError::RootOutOfRange {
                root: self.root,
                num_ranks: n,
            });
        }
        if let Some(p) = self.parent[self.root] {
            return Err(PlanError::RootHasParent {
                root: self.root,
                parent: p,
            });
        }
        let mut seen = vec![false; n];
        seen[self.root] = true;
        for r in 0..n {
            if let Some(p) = self.parent[r] {
                if p >= n {
                    return Err(PlanError::RankOutOfRange {
                        rank: p,
                        num_ranks: n,
                    });
                }
            }
            for &c in &self.children[r] {
                if c >= n {
                    return Err(PlanError::RankOutOfRange {
                        rank: c,
                        num_ranks: n,
                    });
                }
                if self.parent[c] != Some(r) {
                    return Err(PlanError::ParentMismatch {
                        child: c,
                        listed_under: r,
                        actual_parent: self.parent[c],
                    });
                }
                if seen[c] {
                    return Err(PlanError::DuplicateRank { rank: c });
                }
                seen[c] = true;
            }
        }
        let unreachable: Vec<usize> = (0..n).filter(|&r| !seen[r]).collect();
        if !unreachable.is_empty() {
            return Err(PlanError::Unreachable { ranks: unreachable });
        }
        Ok(())
    }

    /// [`validate`](Self::validate), panicking with the defect on failure
    /// (the shape existing call sites expect).
    pub fn assert_valid(&self) {
        if let Err(e) = self.validate() {
            panic!("invalid rank plan: {e}");
        }
    }
}

/// Group ranks by the tile their schedule pin lands on; groups ordered by
/// first appearance, each group led by its first rank.
pub fn tile_groups(n: usize, schedule: Schedule, num_cores: usize) -> Vec<Vec<usize>> {
    let mut groups: Vec<(u16, Vec<usize>)> = Vec::new();
    for rank in 0..n {
        let tile = schedule.core(rank, num_cores).tile().0;
        match groups.iter_mut().find(|(t, _)| *t == tile) {
            Some((_, g)) => g.push(rank),
            None => groups.push((tile, vec![rank])),
        }
    }
    groups.into_iter().map(|(_, g)| g).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use knl_core::tree_opt::{binomial_tree, flat_tree};

    #[test]
    fn direct_plan_valid() {
        for n in [1usize, 2, 7, 16] {
            let p = RankPlan::direct(&binomial_tree(n));
            assert_eq!(p.num_ranks(), n);
            p.validate().unwrap();
        }
    }

    #[test]
    fn tile_groups_fill_tiles() {
        // FillTiles on 64 cores: ranks 0,1 share tile 0; 2,3 tile 1; ...
        let g = tile_groups(8, Schedule::FillTiles, 64);
        assert_eq!(g, vec![vec![0, 1], vec![2, 3], vec![4, 5], vec![6, 7]]);
    }

    #[test]
    fn tile_groups_scatter() {
        // Scatter: first 32 ranks on distinct tiles.
        let g = tile_groups(8, Schedule::Scatter, 64);
        assert_eq!(g.len(), 8);
        assert!(g.iter().all(|grp| grp.len() == 1));
        // 40 ranks: 32 tiles, 8 of them with 2 ranks.
        let g = tile_groups(40, Schedule::Scatter, 64);
        assert_eq!(g.len(), 32);
        assert_eq!(g.iter().filter(|grp| grp.len() == 2).count(), 8);
    }

    #[test]
    fn hierarchical_plan_valid() {
        let n = 16;
        let groups = tile_groups(n, Schedule::FillTiles, 64);
        let tree = binomial_tree(groups.len());
        let p = RankPlan::hierarchical(&tree, n, Schedule::FillTiles, 64);
        p.validate().unwrap();
        // Leader of group 0 is rank 0 = root.
        assert_eq!(p.root, 0);
        // Rank 1 (tile mate of 0) hangs under 0.
        assert_eq!(p.parent[1], Some(0));
    }

    #[test]
    #[should_panic(expected = "one node per tile group")]
    fn mismatched_tree_rejected() {
        let tree = flat_tree(3);
        RankPlan::hierarchical(&tree, 16, Schedule::FillTiles, 64);
    }

    #[test]
    fn empty_plan_rejected() {
        let p = RankPlan {
            parent: vec![],
            children: vec![],
            root: 0,
        };
        assert_eq!(p.validate(), Err(PlanError::Empty));
    }

    #[test]
    fn duplicate_rank_rejected() {
        // Rank 1 listed as a child of both 0 and 2.
        let p = RankPlan {
            parent: vec![None, Some(0), Some(0)],
            children: vec![vec![1, 2], vec![], vec![1]],
            root: 0,
        };
        let err = p.validate().unwrap_err();
        assert!(
            matches!(
                err,
                PlanError::ParentMismatch { child: 1, .. } | PlanError::DuplicateRank { rank: 1 }
            ),
            "{err}"
        );
    }

    #[test]
    fn true_duplicate_rejected() {
        // Rank 1 is a child of rank 0 twice.
        let p = RankPlan {
            parent: vec![None, Some(0)],
            children: vec![vec![1, 1], vec![]],
            root: 0,
        };
        assert_eq!(p.validate(), Err(PlanError::DuplicateRank { rank: 1 }));
    }

    #[test]
    fn out_of_range_parent_rejected() {
        let p = RankPlan {
            parent: vec![None, Some(9)],
            children: vec![vec![], vec![]],
            root: 0,
        };
        let err = p.validate().unwrap_err();
        assert_eq!(
            err,
            PlanError::RankOutOfRange {
                rank: 9,
                num_ranks: 2
            }
        );
    }

    #[test]
    fn root_with_parent_rejected() {
        let p = RankPlan {
            parent: vec![Some(1), None],
            children: vec![vec![], vec![0]],
            root: 0,
        };
        assert_eq!(
            p.validate(),
            Err(PlanError::RootHasParent { root: 0, parent: 1 })
        );
    }

    #[test]
    fn unreachable_rank_rejected() {
        let p = RankPlan {
            parent: vec![None, None],
            children: vec![vec![], vec![]],
            root: 0,
        };
        assert_eq!(p.validate(), Err(PlanError::Unreachable { ranks: vec![1] }));
    }

    #[test]
    #[should_panic(expected = "invalid rank plan")]
    fn assert_valid_panics_with_detail() {
        let p = RankPlan {
            parent: vec![None, None],
            children: vec![vec![], vec![]],
            root: 0,
        };
        p.assert_valid();
    }
}
