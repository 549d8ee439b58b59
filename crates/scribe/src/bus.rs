//! The topic-addressed message bus every host's Scribe daemon writes to.

use crate::logdevice::{LogStream, Lsn};
use crate::record::ScribeRecord;
use chaos::{FaultInjector, FaultKind, HookPoint};
use dsi_types::Result;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::Arc;

/// A logical stream name, e.g. `"rm1/features"`.
pub type Topic = String;

#[derive(Default)]
struct BusInner {
    streams: RwLock<HashMap<Topic, Arc<RwLock<LogStream>>>>,
    chaos: RwLock<Option<Arc<FaultInjector>>>,
    /// A record held back by an injected `ReorderRecord` fault: it is
    /// appended only after the *next* publish, swapping arrival order.
    held: Mutex<Option<(Topic, ScribeRecord)>>,
}

/// A cheaply-cloneable handle to the message bus.
///
/// Services on every host pass raw feature and event logs to their local
/// daemon; the bus groups them into per-topic [`LogStream`]s.
#[derive(Clone, Default)]
pub struct MessageBus {
    inner: Arc<BusInner>,
}

impl std::fmt::Debug for MessageBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MessageBus")
            .field("topics", &self.inner.streams.read().len())
            .finish()
    }
}

impl MessageBus {
    /// Creates an empty bus.
    pub fn new() -> Self {
        Self::default()
    }

    fn stream(&self, topic: &str) -> Arc<RwLock<LogStream>> {
        if let Some(s) = self.inner.streams.read().get(topic) {
            return Arc::clone(s);
        }
        let mut streams = self.inner.streams.write();
        Arc::clone(
            streams
                .entry(topic.to_string())
                .or_insert_with(|| Arc::new(RwLock::new(LogStream::new()))),
        )
    }

    /// Attaches a chaos fault injector: every subsequent publish fires
    /// the injector's `ScribePublish` hook, which may drop, duplicate, or
    /// reorder the record.
    pub fn attach_chaos(&self, injector: Arc<FaultInjector>) {
        *self.inner.chaos.write() = Some(injector);
    }

    /// Publishes a record to a topic, returning its LSN.
    ///
    /// With a chaos injector attached the record may be dropped (the
    /// topic tail is returned unchanged), duplicated (appended twice;
    /// the first LSN is returned), or reordered (held back until the
    /// next publish lands, then appended after it).
    pub fn publish(&self, topic: &str, record: ScribeRecord) -> Lsn {
        let mut drop_it = false;
        let mut duplicate = false;
        let mut hold = false;
        if let Some(injector) = self.inner.chaos.read().as_ref() {
            for kind in injector.fire(HookPoint::ScribePublish) {
                match kind {
                    FaultKind::DropRecord => drop_it = true,
                    FaultKind::DuplicateRecord => duplicate = true,
                    FaultKind::ReorderRecord => hold = true,
                    _ => {}
                }
            }
        }
        if drop_it {
            return self.stream(topic).write().tail();
        }
        if hold {
            let previous = self.inner.held.lock().replace((topic.to_string(), record));
            if let Some((held_topic, held_record)) = previous {
                self.stream(&held_topic).write().append(held_record);
            }
            return self.stream(topic).write().tail();
        }
        let lsn = if duplicate {
            let stream = self.stream(topic);
            let mut s = stream.write();
            let first = s.append(record.clone());
            s.append(record);
            first
        } else {
            self.stream(topic).write().append(record)
        };
        // An earlier ReorderRecord hold is released now that a successor
        // record has landed, completing the order swap.
        if let Some((held_topic, held_record)) = self.inner.held.lock().take() {
            self.stream(&held_topic).write().append(held_record);
        }
        lsn
    }

    /// Releases any chaos-held record: a reordered record must only be
    /// delayed, never lost, so consumers force it out before observing
    /// the stream.
    fn release_held(&self) {
        if let Some((held_topic, held_record)) = self.inner.held.lock().take() {
            self.stream(&held_topic).write().append(held_record);
        }
    }

    /// The next-LSN (tail) of a topic; `Lsn(0)` for unknown topics.
    pub fn tail(&self, topic: &str) -> Lsn {
        self.release_held();
        self.inner
            .streams
            .read()
            .get(topic)
            .map_or(Lsn(0), |s| s.read().tail())
    }

    /// Takes `[from, to)` out of a topic and trims the topic to `to`
    /// ([`LogStream::take_range`]); empty for unknown topics. A record a
    /// reorder fault is holding back is released first.
    ///
    /// # Errors
    ///
    /// Returns an error if `from` precedes the topic's trim point.
    pub fn take(&self, topic: &str, from: Lsn, to: Lsn) -> Result<Vec<ScribeRecord>> {
        self.release_held();
        match self.inner.streams.read().get(topic) {
            Some(s) => s.write().take_range(from, to),
            None => Ok(Vec::new()),
        }
    }

    /// All topic names, sorted.
    pub fn topics(&self) -> Vec<Topic> {
        let mut t: Vec<_> = self.inner.streams.read().keys().cloned().collect();
        t.sort();
        t
    }

    /// Publishes per-topic telemetry into `registry`: total records ever
    /// published (`dsi_scribe_published_total`) and the current retained
    /// backlog (`dsi_scribe_bus_backlog`).
    pub fn publish_metrics(&self, registry: &dsi_obs::Registry) {
        let streams = self.inner.streams.read();
        for (topic, stream) in streams.iter() {
            let s = stream.read();
            registry
                .counter(dsi_obs::names::SCRIBE_PUBLISHED_TOTAL, &[("topic", topic)])
                .advance_to(s.tail().0);
            registry
                .gauge(dsi_obs::names::SCRIBE_BUS_BACKLOG, &[("topic", topic)])
                .set(s.len() as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::EventRecord;

    fn ids(records: Vec<ScribeRecord>) -> Vec<u64> {
        records
            .into_iter()
            .map(|r| match r {
                ScribeRecord::Event(e) => e.request_id,
                other => panic!("unexpected record {other:?}"),
            })
            .collect()
    }

    #[test]
    fn publish_and_take() {
        let bus = MessageBus::new();
        bus.publish("t", EventRecord::positive(1, 0).into());
        bus.publish("t", EventRecord::negative(2, 1).into());
        let got = bus.take("t", Lsn(0), bus.tail("t")).unwrap();
        assert_eq!(ids(got), [1, 2]);
        // Taken records are gone; the tail stays.
        assert!(bus.take("t", Lsn(2), Lsn(10)).unwrap().is_empty());
        assert_eq!(bus.tail("t"), Lsn(2));
    }

    #[test]
    fn topics_are_isolated() {
        let bus = MessageBus::new();
        bus.publish("a", EventRecord::positive(1, 0).into());
        assert_eq!(bus.tail("a"), Lsn(1));
        assert_eq!(bus.tail("b"), Lsn(0));
        assert!(bus.take("b", Lsn(0), Lsn(10)).unwrap().is_empty());
        assert_eq!(bus.tail("b"), Lsn(0));
        assert_eq!(bus.topics(), vec!["a".to_string()]);
    }

    #[test]
    fn handles_share_state() {
        let bus = MessageBus::new();
        let bus2 = bus.clone();
        bus.publish("t", EventRecord::positive(1, 0).into());
        assert_eq!(bus2.tail("t"), Lsn(1));
    }

    #[test]
    fn concurrent_publishers() {
        let bus = MessageBus::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let bus = bus.clone();
                s.spawn(move || {
                    for i in 0..100 {
                        bus.publish("t", EventRecord::positive(t * 100 + i, 0).into());
                    }
                });
            }
        });
        assert_eq!(bus.tail("t"), Lsn(400));
    }

    #[test]
    fn chaos_faults_drop_duplicate_and_reorder() {
        use chaos::{FaultEvent, FaultPlan};
        let bus = MessageBus::new();
        let plan = FaultPlan::named(vec![
            FaultEvent::new(HookPoint::ScribePublish, 1, FaultKind::DropRecord),
            FaultEvent::new(HookPoint::ScribePublish, 2, FaultKind::DuplicateRecord),
            FaultEvent::new(HookPoint::ScribePublish, 3, FaultKind::ReorderRecord),
        ]);
        bus.attach_chaos(FaultInjector::new(plan));
        for id in 1..=4u64 {
            bus.publish("t", EventRecord::positive(id, 0).into());
        }
        let got = bus.take("t", Lsn(0), bus.tail("t")).unwrap();
        // 1 dropped, 2 duplicated, 3 held until 4 landed.
        assert_eq!(ids(got), [2, 2, 4, 3]);
    }

    #[test]
    fn chaos_reorder_hold_is_released_to_takers() {
        use chaos::{FaultEvent, FaultPlan};
        let bus = MessageBus::new();
        let plan = FaultPlan::named(vec![FaultEvent::new(
            HookPoint::ScribePublish,
            1,
            FaultKind::ReorderRecord,
        )]);
        bus.attach_chaos(FaultInjector::new(plan));
        bus.publish("t", EventRecord::positive(9, 0).into());
        // No successor record ever arrives; taking must still surface it.
        assert_eq!(ids(bus.take("t", Lsn(0), Lsn(10)).unwrap()), [9]);
    }

    #[test]
    fn take_through_bus_trims() {
        let bus = MessageBus::new();
        for i in 0..10 {
            bus.publish("t", EventRecord::positive(i, 0).into());
        }
        assert_eq!(ids(bus.take("t", Lsn(2), Lsn(5)).unwrap()), [2, 3, 4]);
        assert!(bus.take("t", Lsn(0), Lsn(10)).is_err());
        assert_eq!(
            ids(bus.take("t", Lsn(5), Lsn(10)).unwrap()),
            [5, 6, 7, 8, 9]
        );
    }
}
