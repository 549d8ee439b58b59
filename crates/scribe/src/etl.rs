//! ETL: the streaming join/label engine and periodic batch ETL.
//!
//! Streaming engines join feature and event logs by request id within a time
//! window and publish labeled samples (used to update in-production models).
//! Batch engines periodically drain labeled samples from the bus, downsample
//! negatives, and emit day-partitioned sample sets for the warehouse
//! (§III-A1).

use crate::bus::MessageBus;
use crate::logdevice::Lsn;
use crate::record::{EventRecord, FeatureLogRecord, ScribeRecord};
use dsi_types::{PartitionId, Result, Sample};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Counters for an ETL engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EtlStats {
    /// Feature logs offered.
    pub features_in: u64,
    /// Events offered.
    pub events_in: u64,
    /// Joined (labeled) samples emitted.
    pub joined: u64,
    /// Feature logs expired without a matching event (labeled negative).
    pub expired_negative: u64,
    /// Events that arrived with no pending feature log (dropped).
    pub orphan_events: u64,
}

/// Joins feature logs with outcome events inside a time window.
///
/// A feature log waits up to `window_ns` for its event; on expiry it is
/// emitted with a negative label (no interaction observed), matching
/// production click-through labeling.
#[derive(Debug)]
pub struct StreamingJoiner {
    window_ns: u64,
    pending: HashMap<u64, FeatureLogRecord>,
    arrival_order: VecDeque<(u64, u64)>, // (ts, request_id)
    stats: EtlStats,
    registry: Option<dsi_obs::Registry>,
}

impl StreamingJoiner {
    /// Creates a joiner with the given join window in nanoseconds.
    pub fn new(window_ns: u64) -> Self {
        Self {
            window_ns,
            pending: HashMap::new(),
            arrival_order: VecDeque::new(),
            stats: EtlStats::default(),
            registry: None,
        }
    }

    /// Attaches a metrics registry: joins record their feature→event lag
    /// into `dsi_etl_join_lag_seconds`, and [`StreamingJoiner::publish_metrics`]
    /// bridges the counters.
    pub fn attach_registry(&mut self, registry: &dsi_obs::Registry) {
        self.registry = Some(registry.clone());
    }

    /// Bridges the joiner's counters and pending depth into `registry`.
    pub fn publish_metrics(&self, registry: &dsi_obs::Registry) {
        use dsi_obs::names;
        registry
            .counter(names::ETL_JOINED_TOTAL, &[])
            .advance_to(self.stats.joined);
        registry
            .counter(names::ETL_ORPHAN_EVENTS_TOTAL, &[])
            .advance_to(self.stats.orphan_events);
        registry
            .counter(names::ETL_EXPIRED_NEGATIVE_TOTAL, &[])
            .advance_to(self.stats.expired_negative);
        registry
            .gauge(names::ETL_PENDING_JOINS, &[])
            .set(self.pending.len() as f64);
    }

    /// Offers a feature log; it will wait for its event.
    pub fn offer_features(&mut self, record: FeatureLogRecord) {
        self.stats.features_in += 1;
        self.arrival_order
            .push_back((record.ts_ns, record.request_id));
        self.pending.insert(record.request_id, record);
    }

    /// Offers an event. Returns the labeled sample when it joins a pending
    /// feature log; `None` for orphans.
    pub fn offer_event(&mut self, event: EventRecord) -> Option<Sample> {
        self.join(event).map(|(_, sample)| sample)
    }

    /// [`StreamingJoiner::offer_event`], with the joined feature log's
    /// serving timestamp.
    pub(crate) fn join(&mut self, event: EventRecord) -> Option<(u64, Sample)> {
        self.stats.events_in += 1;
        match self.pending.remove(&event.request_id) {
            Some(rec) => {
                self.stats.joined += 1;
                if let Some(reg) = &self.registry {
                    let lag_ns = event.ts_ns.saturating_sub(rec.ts_ns);
                    reg.histogram(dsi_obs::names::ETL_JOIN_LAG_SECONDS, &[])
                        .record(lag_ns as f64 / 1e9);
                }
                let mut sample = rec.features;
                sample.set_label(event.label);
                Some((rec.ts_ns, sample))
            }
            None => {
                self.stats.orphan_events += 1;
                None
            }
        }
    }

    /// Expires feature logs older than the window relative to `now_ns`,
    /// emitting them with negative labels.
    pub fn expire(&mut self, now_ns: u64) -> Vec<Sample> {
        self.expire_served(now_ns)
            .into_iter()
            .map(|(_, sample)| sample)
            .collect()
    }

    /// [`StreamingJoiner::expire`], each negative with its feature log's
    /// serving timestamp.
    pub(crate) fn expire_served(&mut self, now_ns: u64) -> Vec<(u64, Sample)> {
        let mut out = Vec::new();
        while let Some(&(ts, request_id)) = self.arrival_order.front() {
            if now_ns.saturating_sub(ts) < self.window_ns {
                break;
            }
            self.arrival_order.pop_front();
            if let Some(rec) = self.pending.remove(&request_id) {
                self.stats.expired_negative += 1;
                let mut sample = rec.features;
                sample.set_label(0.0);
                out.push((rec.ts_ns, sample));
            }
        }
        out
    }

    /// Counter snapshot.
    pub fn stats(&self) -> EtlStats {
        self.stats
    }
}

/// Periodic batch ETL: drains raw topics from the bus, joins and labels,
/// downsamples negatives, and groups output by day partition.
#[derive(Debug)]
pub struct BatchEtl {
    joiner: StreamingJoiner,
    feature_cursor: Lsn,
    event_cursor: Lsn,
    /// Keep this fraction of negative samples (production datasets
    /// downsample the overwhelming negative class).
    negative_keep_fraction: f64,
    ns_per_day: u64,
    negative_seen: u64,
    negative_kept: u64,
}

impl BatchEtl {
    /// Creates a batch ETL with a join window and negative downsampling.
    ///
    /// # Panics
    ///
    /// Panics if `negative_keep_fraction` is outside `[0, 1]`.
    pub fn new(window_ns: u64, negative_keep_fraction: f64, ns_per_day: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&negative_keep_fraction),
            "keep fraction in [0, 1]"
        );
        Self {
            joiner: StreamingJoiner::new(window_ns),
            feature_cursor: Lsn(0),
            event_cursor: Lsn(0),
            negative_keep_fraction,
            ns_per_day,
            negative_seen: 0,
            negative_kept: 0,
        }
    }

    /// Whether to keep the next negative: exactly `⌊n · fraction⌋` (in
    /// `f64`) of the first `n` negatives are kept, spread evenly.
    fn keep_negative(&mut self) -> bool {
        self.negative_seen += 1;
        let due = (self.negative_seen as f64 * self.negative_keep_fraction).floor() as u64;
        let keep = due > self.negative_kept;
        self.negative_kept += u64::from(keep);
        keep
    }

    /// Runs one ETL pass: takes new records off `features_topic` and
    /// `events_topic` on `bus` (trimming what it took), joins, labels and
    /// downsamples them, and returns samples grouped by day partition.
    ///
    /// `now_ns` drives join-window expiry; timestamps map to partitions via
    /// `ts / ns_per_day`.
    ///
    /// # Errors
    ///
    /// Propagates bus take failures.
    pub fn run_pass(
        &mut self,
        bus: &MessageBus,
        features_topic: &str,
        events_topic: &str,
        now_ns: u64,
    ) -> Result<BTreeMap<PartitionId, Vec<Sample>>> {
        let mut out: BTreeMap<PartitionId, Vec<Sample>> = BTreeMap::new();
        let mut emit = |this: &mut Self, ts_ns: u64, sample: Sample| {
            let keep = sample.label() > 0.0 || this.keep_negative();
            if keep {
                let day = (ts_ns / this.ns_per_day) as u32;
                out.entry(PartitionId::new(day)).or_default().push(sample);
            }
        };

        let f_tail = bus.tail(features_topic);
        for r in bus.take(features_topic, self.feature_cursor, f_tail)? {
            if let ScribeRecord::Feature(f) = r {
                self.joiner.offer_features(f);
            }
        }
        self.feature_cursor = f_tail;

        // Joined samples and expired negatives land in the partition of
        // their feature log's serving day, whichever pass logged it.
        let e_tail = bus.tail(events_topic);
        for r in bus.take(events_topic, self.event_cursor, e_tail)? {
            if let ScribeRecord::Event(e) = r {
                if let Some((ts, sample)) = self.joiner.join(e) {
                    emit(self, ts, sample);
                }
            }
        }
        self.event_cursor = e_tail;

        for (ts, sample) in self.joiner.expire_served(now_ns) {
            emit(self, ts, sample);
        }

        if let Some(reg) = self.joiner.registry.clone() {
            self.joiner.publish_metrics(&reg);
            bus.publish_metrics(&reg);
        }
        Ok(out)
    }

    /// Attaches a metrics registry; every [`BatchEtl::run_pass`] then
    /// records join lag and republishes ETL counters and bus backlog.
    pub fn attach_registry(&mut self, registry: &dsi_obs::Registry) {
        self.joiner.attach_registry(registry);
    }

    /// Joiner counters.
    pub fn stats(&self) -> EtlStats {
        self.joiner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsi_types::FeatureId;

    fn features(request_id: u64, ts: u64) -> FeatureLogRecord {
        let mut s = Sample::new(0.0);
        s.set_dense(FeatureId(1), request_id as f32);
        FeatureLogRecord::new(request_id, ts, s)
    }

    #[test]
    fn join_labels_sample() {
        let mut j = StreamingJoiner::new(100);
        j.offer_features(features(1, 0));
        let s = j.offer_event(EventRecord::positive(1, 50)).unwrap();
        assert_eq!(s.label(), 1.0);
        assert_eq!(s.dense(FeatureId(1)), Some(1.0));
        assert_eq!(j.stats().joined, 1);
        assert!(j.pending.is_empty());
    }

    #[test]
    fn orphan_events_are_dropped() {
        let mut j = StreamingJoiner::new(100);
        assert!(j.offer_event(EventRecord::positive(9, 0)).is_none());
        assert_eq!(j.stats().orphan_events, 1);
    }

    #[test]
    fn expiry_emits_negatives_in_order() {
        let mut j = StreamingJoiner::new(100);
        j.offer_features(features(1, 0));
        j.offer_features(features(2, 50));
        j.offer_features(features(3, 150));
        let expired = j.expire(160);
        assert_eq!(expired.len(), 2);
        assert!(expired.iter().all(|s| s.label() == 0.0));
        assert_eq!(j.pending.len(), 1);
        assert_eq!(j.stats().expired_negative, 2);
    }

    #[test]
    fn joined_request_does_not_expire() {
        let mut j = StreamingJoiner::new(100);
        j.offer_features(features(1, 0));
        j.offer_event(EventRecord::positive(1, 10)).unwrap();
        assert!(j.expire(1000).is_empty());
    }

    #[test]
    fn batch_etl_partitions_by_day() {
        let bus = MessageBus::new();
        let day = 1000u64;
        for (rid, ts) in [(1u64, 10u64), (2, 500), (3, 1500)] {
            bus.publish("f", features(rid, ts).into());
            bus.publish("e", EventRecord::positive(rid, ts + 1).into());
        }
        let mut etl = BatchEtl::new(100, 1.0, day);
        let parts = etl.run_pass(&bus, "f", "e", 2000).unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[&PartitionId::new(0)].len(), 2);
        assert_eq!(parts[&PartitionId::new(1)].len(), 1);
        // Consumed prefixes were taken off the bus.
        assert!(bus.take("f", Lsn(0), Lsn(1)).is_err());
        assert!(bus
            .take("f", bus.tail("f"), Lsn(u64::MAX))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn late_joins_land_in_their_serving_day() {
        // Served at 990 (day 0); the event arrives in the next pass, in day 1.
        let bus = MessageBus::new();
        let mut etl = BatchEtl::new(100, 1.0, 1000);
        bus.publish("f", features(1, 990).into());
        assert!(etl.run_pass(&bus, "f", "e", 995).unwrap().is_empty());
        bus.publish("e", EventRecord::positive(1, 1010).into());
        let parts = etl.run_pass(&bus, "f", "e", 1015).unwrap();
        assert_eq!(
            parts.keys().copied().collect::<Vec<_>>(),
            [PartitionId::new(0)]
        );
        assert_eq!(parts[&PartitionId::new(0)][0].label(), 1.0);
    }

    #[test]
    fn expired_negatives_land_in_their_serving_day() {
        // Served at 990 (day 0), expired by a pass at 1500 whose window
        // start (1400) is in day 1.
        let bus = MessageBus::new();
        let mut etl = BatchEtl::new(100, 1.0, 1000);
        bus.publish("f", features(1, 990).into());
        let parts = etl.run_pass(&bus, "f", "e", 1500).unwrap();
        assert_eq!(
            parts.keys().copied().collect::<Vec<_>>(),
            [PartitionId::new(0)]
        );
        assert_eq!(parts[&PartitionId::new(0)][0].label(), 0.0);
    }

    #[test]
    fn batch_etl_downsamples_negatives() {
        let bus = MessageBus::new();
        for rid in 0..100u64 {
            bus.publish("f", features(rid, rid).into());
            // Only 10 positives; the rest will expire negative.
            if rid < 10 {
                bus.publish("e", EventRecord::positive(rid, rid + 1).into());
            }
        }
        let mut etl = BatchEtl::new(10, 0.5, 1_000_000);
        let parts = etl.run_pass(&bus, "f", "e", 1_000).unwrap();
        let total: usize = parts.values().map(Vec::len).sum();
        // 10 positives + every second of 90 negatives.
        assert_eq!(total, 55);
        let positives: usize = parts.values().flatten().filter(|s| s.label() > 0.0).count();
        assert_eq!(positives, 10);
    }

    /// Negatives kept from 1,000 feature logs that all expire.
    fn negatives_kept(fraction: f64) -> usize {
        let bus = MessageBus::new();
        for rid in 0..1_000u64 {
            bus.publish("f", features(rid, rid).into());
        }
        let mut etl = BatchEtl::new(10, fraction, 1_000_000);
        let parts = etl.run_pass(&bus, "f", "e", 1_000_000).unwrap();
        assert_eq!(etl.stats().expired_negative, 1_000);
        parts.values().map(Vec::len).sum()
    }

    #[test]
    fn batch_etl_keeps_the_asked_fraction_of_negatives() {
        // A stride of round(1 / fraction) kept 1,000 at 0.75 and 333 at 0.3.
        assert_eq!(negatives_kept(0.75), 750);
        assert_eq!(negatives_kept(0.3), 300);
        assert_eq!(negatives_kept(0.5), 500);
        assert_eq!(negatives_kept(1.0), 1_000);
        assert_eq!(negatives_kept(0.0), 0);
    }

    #[test]
    fn negative_downsampling_keeps_the_floor_at_every_prefix() {
        for fraction in [0.3, 0.6, 0.75, 0.9] {
            let mut etl = BatchEtl::new(10, fraction, 1);
            let mut kept = 0u64;
            for n in 1..=1_000u64 {
                kept += u64::from(etl.keep_negative());
                assert_eq!(
                    kept,
                    (n as f64 * fraction).floor() as u64,
                    "{fraction} at {n}"
                );
            }
        }
    }

    #[test]
    fn metrics_bridge_tracks_joins_and_backlog() {
        let reg = dsi_obs::Registry::new();
        let bus = MessageBus::new();
        let mut etl = BatchEtl::new(100, 1.0, 1_000_000);
        etl.attach_registry(&reg);
        for rid in 0..5u64 {
            bus.publish("f", features(rid, rid * 10).into());
            bus.publish("e", EventRecord::positive(rid, rid * 10 + 7).into());
        }
        etl.run_pass(&bus, "f", "e", 1_000).unwrap();
        assert_eq!(reg.counter_value(dsi_obs::names::ETL_JOINED_TOTAL, &[]), 5);
        // Every join lagged 7ns.
        match reg
            .value(dsi_obs::names::ETL_JOIN_LAG_SECONDS, &[])
            .unwrap()
        {
            dsi_obs::MetricValue::Histogram(s) => {
                assert_eq!(s.count, 5);
                assert!((s.max - 7e-9).abs() < 1e-15);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Published totals survive trimming; backlog reflects the trim.
        assert_eq!(
            reg.counter_value(dsi_obs::names::SCRIBE_PUBLISHED_TOTAL, &[("topic", "f")]),
            5
        );
        assert_eq!(
            reg.gauge_value(dsi_obs::names::SCRIBE_BUS_BACKLOG, &[("topic", "f")]),
            0.0
        );
    }

    #[test]
    fn batch_etl_is_incremental() {
        let bus = MessageBus::new();
        let mut etl = BatchEtl::new(10, 1.0, 1_000_000);
        bus.publish("f", features(1, 0).into());
        bus.publish("e", EventRecord::positive(1, 1).into());
        let first = etl.run_pass(&bus, "f", "e", 100).unwrap();
        assert_eq!(first.values().flatten().count(), 1);
        // Nothing new: second pass is empty.
        let second = etl.run_pass(&bus, "f", "e", 200).unwrap();
        assert!(second.is_empty());
        // New records picked up from the cursor.
        bus.publish("f", features(2, 150).into());
        bus.publish("e", EventRecord::negative(2, 151).into());
        let third = etl.run_pass(&bus, "f", "e", 300).unwrap();
        assert_eq!(third.values().flatten().count(), 1);
    }
}
