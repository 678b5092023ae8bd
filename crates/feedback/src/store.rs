//! The feedback ledger.

use crate::item::{FeedbackItem, FeedbackTarget};

/// Append-only store of all feedback received, part of the Working Data.
#[derive(Debug, Clone, Default)]
pub struct FeedbackStore {
    items: Vec<FeedbackItem>,
}

impl FeedbackStore {
    /// Empty store.
    pub fn new() -> Self {
        FeedbackStore::default()
    }

    /// Record an item; returns its index.
    pub fn add(&mut self, item: FeedbackItem) -> usize {
        self.items.push(item);
        self.items.len() - 1
    }

    /// All items in arrival order.
    pub fn items(&self) -> &[FeedbackItem] {
        &self.items
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if no feedback has been received.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total cost paid for feedback so far — the "payment" ledger of the
    /// pay-as-you-go model.
    pub fn total_cost(&self) -> f64 {
        self.items.iter().map(|i| i.cost).sum()
    }

    /// All duplicate-pair labels, as (row_a, row_b, is_match, reliability) —
    /// the training set for ER rule refinement.
    pub fn duplicate_labels(&self) -> Vec<(usize, usize, bool, f64)> {
        self.items
            .iter()
            .filter_map(|i| match i.target {
                FeedbackTarget::DuplicatePair { row_a, row_b } => {
                    Some((row_a, row_b, i.verdict.is_positive(), i.reliability))
                }
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Verdict;

    #[test]
    fn ledger_accumulates_and_queries() {
        let mut s = FeedbackStore::new();
        s.add(FeedbackItem::expert(
            FeedbackTarget::Value {
                entity: 1,
                attr: 0,
                value: None,
            },
            Verdict::Negative,
            1.0,
        ));
        s.add(FeedbackItem::expert(
            FeedbackTarget::Source { source: 2 },
            Verdict::Negative,
            1.0,
        ));
        s.add(FeedbackItem::crowd(
            FeedbackTarget::DuplicatePair { row_a: 0, row_b: 9 },
            Verdict::Positive,
            0.8,
            0.1,
        ));
        assert_eq!(s.len(), 3);
        assert!((s.total_cost() - 2.1).abs() < 1e-12);
        assert_eq!(s.duplicate_labels(), vec![(0, 9, true, 0.8)]);
    }
}
