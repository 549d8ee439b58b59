//! Write-path stream ordering policies.
//!
//! Coalesced reads fetch every byte between the first and last wanted stream
//! in a window, so the *order* in which feature streams are laid out on disk
//! determines how much of a coalesced read is useful. Production writers
//! reorder popular feature streams next to each other (§VII), cutting the
//! unnecessary features captured inside each coalesced read.

use dsi_types::FeatureId;
use std::collections::HashMap;

/// Policy for ordering feature columns within a stripe.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum StreamOrder {
    /// Features laid out in ascending feature-id order (the
    /// pre-optimization baseline — effectively insertion order for
    /// monotonically assigned ids).
    #[default]
    ById,
    /// Popular features first, in decreasing popularity rank. Features not
    /// listed retain id order after all ranked features.
    Popularity(Vec<FeatureId>),
}

impl StreamOrder {
    /// Creates a popularity order from `(feature, weight)` pairs,
    /// highest weight first.
    pub fn from_weights(weights: &[(FeatureId, f64)]) -> Self {
        let mut ranked: Vec<_> = weights.to_vec();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("weights are finite"));
        StreamOrder::Popularity(ranked.into_iter().map(|(f, _)| f).collect())
    }

    /// Sorts `items` into the policy's order of the features they belong
    /// to. The sort is stable: items of one feature keep their order.
    pub fn sort_by_feature<T>(&self, items: &mut [T], feature: impl Fn(&T) -> FeatureId) {
        match self {
            StreamOrder::ById => items.sort_by_key(feature),
            StreamOrder::Popularity(rank) => {
                let pos: HashMap<FeatureId, usize> =
                    rank.iter().enumerate().map(|(i, &f)| (f, i)).collect();
                items.sort_by_key(|item| {
                    let f = feature(item);
                    (pos.get(&f).copied().unwrap_or(usize::MAX), f)
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ordered(order: &StreamOrder, mut features: Vec<FeatureId>) -> Vec<FeatureId> {
        order.sort_by_feature(&mut features, |f| *f);
        features
    }

    #[test]
    fn id_order_sorts() {
        let order = StreamOrder::ById;
        let out = ordered(&order, vec![FeatureId(3), FeatureId(1), FeatureId(2)]);
        assert_eq!(out, vec![FeatureId(1), FeatureId(2), FeatureId(3)]);
    }

    #[test]
    fn popularity_puts_ranked_first() {
        let order = StreamOrder::Popularity(vec![FeatureId(9), FeatureId(2)]);
        let out = ordered(
            &order,
            vec![FeatureId(1), FeatureId(2), FeatureId(9), FeatureId(5)],
        );
        assert_eq!(
            out,
            vec![FeatureId(9), FeatureId(2), FeatureId(1), FeatureId(5)]
        );
    }

    #[test]
    fn from_weights_ranks_by_weight() {
        let order = StreamOrder::from_weights(&[
            (FeatureId(1), 0.1),
            (FeatureId(2), 0.9),
            (FeatureId(3), 0.5),
        ]);
        match &order {
            StreamOrder::Popularity(rank) => {
                assert_eq!(rank, &vec![FeatureId(2), FeatureId(3), FeatureId(1)]);
            }
            other => panic!("unexpected order {other:?}"),
        }
    }

    #[test]
    fn unranked_features_keep_id_order() {
        let order = StreamOrder::Popularity(vec![FeatureId(100)]);
        let out = ordered(&order, vec![FeatureId(7), FeatureId(3), FeatureId(100)]);
        assert_eq!(out, vec![FeatureId(100), FeatureId(3), FeatureId(7)]);
    }
}
