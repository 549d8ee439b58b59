//! Strongly-typed identifiers used throughout the DSI pipeline.
//!
//! Newtypes keep the many `u64`-shaped identities in the pipeline from being
//! confused with one another (a [`FeatureId`] is never a [`TableId`]).

use std::fmt;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $prefix:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u64);

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(v: u64) -> Self {
                Self(v)
            }
        }

        impl From<$name> for u64 {
            fn from(v: $name) -> u64 {
                v.0
            }
        }
    };
}

id_type!(
    /// Identifies a single logged feature within a table schema.
    ///
    /// Production tables log tens of thousands of features; each is addressed
    /// by a stable numeric id so schemas can evolve without renames.
    FeatureId,
    "f"
);

id_type!(
    /// Identifies a warehouse table (one per recommendation model family).
    TableId,
    "tbl"
);

id_type!(
    /// Identifies a physical node (storage, compute, or trainer).
    NodeId,
    "node"
);

id_type!(
    /// Identifies a DPP preprocessing session (one per training job).
    SessionId,
    "sess"
);

id_type!(
    /// Identifies a self-contained unit of preprocessing work — a contiguous
    /// run of rows handed from the DPP Master to a Worker.
    SplitId,
    "split"
);

id_type!(
    /// Identifies a DPP Worker within a session.
    WorkerId,
    "w"
);

/// Identifies one date partition of a table (e.g. one day of samples).
///
/// Partitions are ordered by day index; a training job selects a contiguous
/// range of them (the "row filter" dimension of dataset selection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PartitionId {
    /// Days since the table's epoch.
    pub day: u32,
}

impl PartitionId {
    /// Creates a partition id for the given day index.
    pub fn new(day: u32) -> Self {
        Self { day }
    }

    /// Returns the partition `n` days later.
    pub fn plus_days(self, n: u32) -> Self {
        Self { day: self.day + n }
    }

    /// Returns an iterator over the `n` partitions starting at `self`.
    pub fn range(self, n: u32) -> impl Iterator<Item = PartitionId> {
        (self.day..self.day + n).map(PartitionId::new)
    }
}

impl fmt::Display for PartitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ds={}", self.day)
    }
}

impl From<u32> for PartitionId {
    fn from(day: u32) -> Self {
        Self { day }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_uses_prefix() {
        assert_eq!(FeatureId(7).to_string(), "f7");
        assert_eq!(TableId(3).to_string(), "tbl3");
        assert_eq!(PartitionId::new(12).to_string(), "ds=12");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(FeatureId(1));
        set.insert(FeatureId(2));
        set.insert(FeatureId(1));
        assert_eq!(set.len(), 2);
        assert!(FeatureId(1) < FeatureId(2));
    }

    #[test]
    fn partition_range_is_contiguous() {
        let parts: Vec<_> = PartitionId::new(5).range(3).collect();
        assert_eq!(
            parts,
            vec![
                PartitionId::new(5),
                PartitionId::new(6),
                PartitionId::new(7)
            ]
        );
    }

    #[test]
    fn round_trip_u64() {
        let id = SplitId::from(42u64);
        assert_eq!(u64::from(id), 42);
    }

    #[test]
    fn plus_days_advances() {
        assert_eq!(PartitionId::new(3).plus_days(4), PartitionId::new(7));
    }
}
