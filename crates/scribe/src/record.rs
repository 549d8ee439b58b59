//! Raw log records produced at model-serving time.

use dsi_types::Sample;

/// Features logged for one serving request.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureLogRecord {
    /// Correlates the feature log with its outcome event.
    pub request_id: u64,
    /// Serving timestamp in nanoseconds.
    pub ts_ns: u64,
    /// The features the model saw (label unset until joined).
    pub features: Sample,
}

impl FeatureLogRecord {
    /// Creates a feature log record.
    pub fn new(request_id: u64, ts_ns: u64, features: Sample) -> Self {
        Self {
            request_id,
            ts_ns,
            features,
        }
    }
}

/// The observed outcome of one recommendation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventRecord {
    /// Correlates with the feature log.
    pub request_id: u64,
    /// Event timestamp in nanoseconds.
    pub ts_ns: u64,
    /// Label value (e.g. 1.0 = clicked, 0.0 = ignored).
    pub label: f32,
}

impl EventRecord {
    /// A positive-outcome event (e.g. click).
    pub fn positive(request_id: u64, ts_ns: u64) -> Self {
        Self {
            request_id,
            ts_ns,
            label: 1.0,
        }
    }

    /// A negative-outcome event.
    pub fn negative(request_id: u64, ts_ns: u64) -> Self {
        Self {
            request_id,
            ts_ns,
            label: 0.0,
        }
    }
}

/// Any record carried by Scribe streams.
#[derive(Debug, Clone, PartialEq)]
pub enum ScribeRecord {
    /// Raw serving-time features.
    Feature(FeatureLogRecord),
    /// Raw outcome event.
    Event(EventRecord),
    /// A joined, labeled sample ready for storage or online model updates.
    Labeled(Sample),
}

impl ScribeRecord {
    /// The record's timestamp, when it has one.
    pub fn ts_ns(&self) -> Option<u64> {
        match self {
            ScribeRecord::Feature(f) => Some(f.ts_ns),
            ScribeRecord::Event(e) => Some(e.ts_ns),
            ScribeRecord::Labeled(_) => None,
        }
    }
}

impl From<FeatureLogRecord> for ScribeRecord {
    fn from(r: FeatureLogRecord) -> Self {
        ScribeRecord::Feature(r)
    }
}

impl From<EventRecord> for ScribeRecord {
    fn from(r: EventRecord) -> Self {
        ScribeRecord::Event(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsi_types::FeatureId;

    #[test]
    fn constructors_set_labels() {
        assert_eq!(EventRecord::positive(1, 0).label, 1.0);
        assert_eq!(EventRecord::negative(1, 0).label, 0.0);
    }

    #[test]
    fn record_timestamps() {
        let mut s = Sample::new(0.0);
        s.set_dense(FeatureId(1), 1.0);
        assert_eq!(
            ScribeRecord::from(FeatureLogRecord::new(1, 7, s.clone())).ts_ns(),
            Some(7)
        );
        assert_eq!(
            ScribeRecord::from(EventRecord::positive(1, 9)).ts_ns(),
            Some(9)
        );
        assert_eq!(ScribeRecord::Labeled(s).ts_ns(), None);
    }
}
