//! The one exact search of the workspace: a depth-first branch-and-bound
//! over ordered sequences of distinct closure indices.
//!
//! The exact n-stroll benchmark, Algorithm 4 (optimal placement),
//! Algorithm 6 (optimal migration) and the traffic-scaled placement are all
//! the same enumeration — pick `x₁, x₂, …, x_n` distinct, pay a cost per
//! step and one to close — and differ only in what a step costs. Each is an
//! [`Objective`]; [`branch_and_bound`] owns everything they share:
//!
//! * the expansion count against the budget, and the
//!   [`Exactness::Degraded`] exit that keeps the incumbent;
//! * the incumbent, replaced only by a *strictly* cheaper sequence, so a
//!   tie keeps the first sequence in exploration order;
//! * pruning a prefix whose cost plus the objective's admissible bound
//!   reaches the incumbent;
//! * the nearest-neighbour greedy seed (each step takes the first unused
//!   child in the objective's order);
//! * the sibling cut for objectives whose child order is sorted by step
//!   cost ([`Objective::SORTED_STEPS`]).
//!
//! Costs are `u128`: every objective's terms are products of `u64` rates
//! and `u64` distances, so sums of a few never overflow, and a step that
//! crosses a partition (a distance at the `INFINITY` sentinel) is simply a
//! large number rather than a wrapped or panicking one.

use crate::Exactness;

/// What one exact search minimizes: the cost of an ordered sequence of
/// `seq_len()` distinct indices in `0..size()`, paid step by step and closed
/// once the sequence is complete.
pub trait Objective {
    /// When true, [`Objective::order`] lists children by non-decreasing
    /// [`Objective::step`], so the first child whose step already reaches
    /// the incumbent ends its sibling loop.
    const SORTED_STEPS: bool = false;

    /// The index space: sequences draw from `0..size()`.
    fn size(&self) -> usize;

    /// The sequence length `n`.
    fn seq_len(&self) -> usize;

    /// Indices no sequence may use (e.g. the stroll's terminals).
    fn reserved(&self) -> &[usize] {
        &[]
    }

    /// Children of a prefix ending at `last` (`None`: the empty prefix),
    /// in the order they are tried. Used indices are skipped.
    fn order(&self, last: Option<usize>) -> &[usize];

    /// Cost of appending `x` at position `depth` after `last`.
    fn step(&self, last: Option<usize>, depth: usize, x: usize) -> u128;

    /// Cost of closing a complete sequence that ends at `last`.
    fn close(&self, last: Option<usize>) -> u128;

    /// An admissible lower bound on every step and closing cost still to
    /// come after a prefix of `depth < seq_len()` indices ending at `last`,
    /// with `used` marking the prefix (and the reserved indices).
    fn bound(&self, used: &[bool], last: Option<usize>, depth: usize) -> u128;
}

/// The best sequence found and its cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Incumbent {
    /// The sequence, `seq_len()` indices (empty only if no sequence exists).
    pub seq: Vec<usize>,
    /// Its cost under the objective (`u128::MAX` for an empty sequence).
    pub cost: u128,
}

/// Searches `obj` exhaustively under an expansion budget.
///
/// The incumbent starts at `seed` when given, else at the greedy
/// nearest-neighbour sequence. With `prune` off the search is the literal
/// enumeration of every sequence (no bound, no sibling cut) — the
/// cross-validation oracle of each pruned search. Every visited prefix,
/// the empty one included, counts one expansion; when the count passes
/// `budget` the incumbent comes back [`Exactness::Degraded`].
pub fn branch_and_bound<O: Objective>(
    obj: &O,
    seed: Option<Incumbent>,
    budget: u64,
    prune: bool,
) -> (Incumbent, Exactness) {
    let mut used = vec![false; obj.size()];
    for &r in obj.reserved() {
        used[r] = true;
    }
    let best = match seed {
        Some(s) => s,
        None => greedy(obj, &used),
    };
    let mut dfs = Dfs {
        obj,
        prune,
        budget,
        expansions: 0,
        used,
        seq: Vec::with_capacity(obj.seq_len()),
        best,
    };
    let exactness = match dfs.expand(None, 0) {
        Ok(()) => Exactness::Exact,
        Err(OutOfBudget) => Exactness::Degraded {
            explored: dfs.expansions,
        },
    };
    (dfs.best, exactness)
}

/// Nearest-neighbour seed: each step takes the first unused child.
fn greedy<O: Objective>(obj: &O, used: &[bool]) -> Incumbent {
    let mut used = used.to_vec();
    let mut seq = Vec::with_capacity(obj.seq_len());
    let mut cost: u128 = 0;
    let mut last = None;
    for depth in 0..obj.seq_len() {
        let Some(x) = obj.order(last).iter().copied().find(|&x| !used[x]) else {
            // Fewer unused indices than `seq_len()`: no sequence exists, so no
            // seed — the search itself finds nothing either.
            return Incumbent {
                seq: Vec::new(),
                cost: u128::MAX,
            };
        };
        cost = cost.saturating_add(obj.step(last, depth, x));
        used[x] = true;
        seq.push(x);
        last = Some(x);
    }
    Incumbent {
        cost: cost.saturating_add(obj.close(last)),
        seq,
    }
}

struct OutOfBudget;

struct Dfs<'o, O> {
    obj: &'o O,
    prune: bool,
    budget: u64,
    expansions: u64,
    used: Vec<bool>,
    seq: Vec<usize>,
    best: Incumbent,
}

impl<O: Objective> Dfs<'_, O> {
    /// Expands the prefix `self.seq` (ending at `last`, costing `g`).
    fn expand(&mut self, last: Option<usize>, g: u128) -> Result<(), OutOfBudget> {
        self.expansions += 1;
        if self.expansions > self.budget {
            return Err(OutOfBudget);
        }
        let obj = self.obj;
        let depth = self.seq.len();
        if depth == obj.seq_len() {
            let total = g.saturating_add(obj.close(last));
            if total < self.best.cost {
                self.best.cost = total;
                self.best.seq.clone_from(&self.seq);
            }
            return Ok(());
        }
        if self.prune && g.saturating_add(obj.bound(&self.used, last, depth)) >= self.best.cost {
            return Ok(());
        }
        for &x in obj.order(last) {
            if self.used[x] {
                continue;
            }
            let g = g.saturating_add(obj.step(last, depth, x));
            if O::SORTED_STEPS && self.prune && g >= self.best.cost {
                // Children are step-sorted: every later sibling is dearer.
                break;
            }
            self.used[x] = true;
            self.seq.push(x);
            self.expand(Some(x), g)?;
            self.seq.pop();
            self.used[x] = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sequences of `n` distinct indices of `0..m`, each step costing its
    /// index; children are tried in the fixed `order`.
    struct IndexSum {
        m: usize,
        n: usize,
        order: Vec<usize>,
    }

    impl Objective for IndexSum {
        fn size(&self) -> usize {
            self.m
        }

        fn seq_len(&self) -> usize {
            self.n
        }

        fn order(&self, _last: Option<usize>) -> &[usize] {
            &self.order
        }

        fn step(&self, _last: Option<usize>, _depth: usize, x: usize) -> u128 {
            x as u128
        }

        fn close(&self, _last: Option<usize>) -> u128 {
            0
        }

        fn bound(&self, _used: &[bool], _last: Option<usize>, _depth: usize) -> u128 {
            0
        }
    }

    #[test]
    fn strict_improvement_keeps_the_first_tie_and_the_seed() {
        // Dearest first, so the greedy seed [4, 3] is the worst sequence.
        let obj = IndexSum {
            m: 5,
            n: 2,
            order: vec![4, 3, 2, 1, 0],
        };
        let (best, ex) = branch_and_bound(&obj, None, u64::MAX, true);
        assert_eq!(ex, Exactness::Exact);
        // [1, 0] and [0, 1] both cost 1; [1, 0] is explored first.
        assert_eq!(
            best,
            Incumbent {
                seq: vec![1, 0],
                cost: 1
            }
        );
        let (literal, _) = branch_and_bound(&obj, None, u64::MAX, false);
        assert_eq!(literal, best);
        // A tying seed is never replaced.
        let seed = Incumbent {
            seq: vec![0, 1],
            cost: 1,
        };
        let (kept, _) = branch_and_bound(&obj, Some(seed.clone()), u64::MAX, true);
        assert_eq!(kept, seed);
    }

    #[test]
    fn budget_counts_the_root_and_keeps_the_greedy_seed() {
        let obj = IndexSum {
            m: 5,
            n: 2,
            order: vec![4, 3, 2, 1, 0],
        };
        let (best, ex) = branch_and_bound(&obj, None, 0, true);
        assert_eq!(ex, Exactness::Degraded { explored: 1 });
        assert_eq!(
            best,
            Incumbent {
                seq: vec![4, 3],
                cost: 7
            }
        );
    }
}
