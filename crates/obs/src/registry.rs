//! Label-aware metric registry.
//!
//! Registration (first access of a `(name, labels)` pair) takes a write
//! lock; every subsequent update goes straight to the `Arc`'d metric and
//! touches only atomics. Components should therefore resolve their
//! handles once and hold them, but even the lookup path is a single
//! read-lock + BTreeMap probe, cheap enough for per-batch use.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use crate::trace::{SpanRing, TraceSpan};

/// Identity of one metric series: a name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name, e.g. `dsi_cache_hits_total`.
    pub name: String,
    /// Label pairs, sorted by key for a canonical identity.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Builds a key with labels sorted canonically. A pair with an empty
    /// value is the same as no pair (the Prometheus rule), so a writer
    /// stamps `("job", job)` unconditionally and a reader used outside any
    /// session — empty job — lands on the unlabeled series.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        Self {
            name: name.to_string(),
            labels,
        }
    }
}

/// One registered metric.
#[derive(Debug, Clone)]
pub enum Metric {
    /// Monotone counter.
    Counter(Arc<Counter>),
    /// Instantaneous gauge.
    Gauge(Arc<Gauge>),
    /// Log-linear histogram.
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }

    fn read(&self) -> MetricValue {
        match self {
            Metric::Counter(c) => MetricValue::Counter(c.get()),
            Metric::Gauge(g) => MetricValue::Gauge(g.get()),
            Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
        }
    }
}

/// A point-in-time value of one series, used by exposition and reports.
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(f64),
    /// Histogram summary.
    Histogram(HistogramSnapshot),
}

impl MetricValue {
    /// The reading as a whole number: the counter, a count gauge, or how
    /// many values a histogram recorded.
    pub fn count(&self) -> u64 {
        match self {
            MetricValue::Counter(c) => *c,
            MetricValue::Gauge(g) => *g as u64,
            MetricValue::Histogram(s) => s.count,
        }
    }

    /// The reading as a real: the gauge, a histogram's sum, or the counter.
    pub fn real(&self) -> f64 {
        match self {
            MetricValue::Counter(c) => *c as f64,
            MetricValue::Gauge(g) => *g,
            MetricValue::Histogram(s) => s.sum,
        }
    }
}

/// Shared, cloneable handle to a metric registry.
///
/// Clones share the same underlying series map, so a registry can be
/// handed to every pipeline component and scraped from one place.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<RwLock<BTreeMap<MetricKey, Metric>>>,
    /// Lazily-allocated span collector: registries that never trace pay
    /// nothing, and clones share the same ring.
    spans: Arc<OnceLock<SpanRing>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_insert<T>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        wrap: impl Fn(Arc<T>) -> Metric,
        unwrap: impl Fn(&Metric) -> Option<Arc<T>>,
        make: impl Fn() -> T,
    ) -> Arc<T> {
        let key = MetricKey::new(name, labels);
        if let Some(m) = self.inner.read().get(&key) {
            return unwrap(m)
                .unwrap_or_else(|| panic!("metric {name} already registered as a {}", m.kind()));
        }
        let mut map = self.inner.write();
        let entry = map.entry(key).or_insert_with(|| wrap(Arc::new(make())));
        unwrap(entry)
            .unwrap_or_else(|| panic!("metric {name} already registered as a {}", entry.kind()))
    }

    /// Counter handle for `(name, labels)`, registering it on first use.
    ///
    /// Panics if the series already exists with a different type.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.get_or_insert(
            name,
            labels,
            Metric::Counter,
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
            Counter::new,
        )
    }

    /// Gauge handle for `(name, labels)`, registering it on first use.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.get_or_insert(
            name,
            labels,
            Metric::Gauge,
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
            Gauge::new,
        )
    }

    /// Histogram handle for `(name, labels)`, registering it on first use.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.get_or_insert(
            name,
            labels,
            Metric::Histogram,
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
            Histogram::new,
        )
    }

    /// Number of registered series.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }

    /// Point-in-time values of every series, sorted by key.
    pub fn snapshot(&self) -> Vec<(MetricKey, MetricValue)> {
        self.inner
            .read()
            .iter()
            .map(|(k, m)| (k.clone(), m.read()))
            .collect()
    }

    /// Readings of every series called `name` whose labels *include* each
    /// pair of `filter`, in key order; `&[]` matches them all. This is the
    /// one place a label filter meets a series' labels: the tuner's
    /// [`crate::SignalSnapshot`] reads through it with `{job}`, the
    /// [`crate::PipelineReport`] with `{}`, so the two cannot disagree on
    /// which series a name means.
    pub fn select(&self, name: &str, filter: &[(&str, &str)]) -> Vec<(MetricKey, MetricValue)> {
        let wanted = MetricKey::new(name, filter).labels;
        self.inner
            .read()
            .range(MetricKey::new(name, &[])..)
            .take_while(|(k, _)| k.name == name)
            .filter(|(k, _)| wanted.iter().all(|pair| k.labels.contains(pair)))
            .map(|(k, m)| (k.clone(), m.read()))
            .collect()
    }

    /// Reading of the one series with exactly these labels, if registered.
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<MetricValue> {
        let key = MetricKey::new(name, labels);
        self.inner.read().get(&key).map(Metric::read)
    }

    /// Counter reading as u64 (0 when absent; panics on type mismatch).
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.value(name, labels) {
            Some(MetricValue::Counter(v)) => v,
            Some(_) => panic!("metric {name} is not a counter"),
            None => 0,
        }
    }

    /// Gauge reading as f64 (0 when absent; panics on type mismatch).
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        match self.value(name, labels) {
            Some(MetricValue::Gauge(v)) => v,
            Some(_) => panic!("metric {name} is not a gauge"),
            None => 0.0,
        }
    }

    /// Records one completed trace span into the registry's span ring.
    /// Unsampled spans (`trace_id == 0`) are silently skipped so call
    /// sites can record unconditionally against a [`crate::trace::TraceContext`].
    #[inline]
    pub fn record_span(&self, span: TraceSpan) {
        if span.trace_id == 0 {
            return;
        }
        self.spans
            .get_or_init(|| SpanRing::new(SpanRing::DEFAULT_CAPACITY))
            .push(span);
    }

    /// All spans the ring holds (empty when tracing never ran), sorted by
    /// start time.
    pub fn trace_spans(&self) -> Vec<TraceSpan> {
        match self.spans.get() {
            Some(ring) => ring.snapshot(),
            None => Vec::new(),
        }
    }

    /// Spans evicted from a full ring (0 when tracing never ran).
    pub fn trace_dropped(&self) -> u64 {
        self.spans.get().map_or(0, |ring| ring.dropped())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_returns_same_metric() {
        let r = Registry::new();
        let a = r.counter("hits", &[("node", "0")]);
        let b = r.counter("hits", &[("node", "0")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn label_order_is_canonical() {
        let r = Registry::new();
        let a = r.counter("m", &[("a", "1"), ("b", "2")]);
        let b = r.counter("m", &[("b", "2"), ("a", "1")]);
        a.inc();
        assert_eq!(b.get(), 1);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn distinct_labels_are_distinct_series() {
        let r = Registry::new();
        r.counter("m", &[("node", "0")]).inc();
        r.counter("m", &[("node", "1")]).add(5);
        assert_eq!(r.counter_value("m", &[("node", "0")]), 1);
        assert_eq!(r.counter_value("m", &[("node", "1")]), 5);
        assert_eq!(r.len(), 2);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_mismatch_panics() {
        let r = Registry::new();
        r.counter("m", &[]);
        r.gauge("m", &[]);
    }

    #[test]
    fn select_matches_label_subsets_and_empty_values_are_no_label() {
        let r = Registry::new();
        r.counter("m", &[("job", "a"), ("stage", "x")]).add(1);
        r.counter("m", &[("job", "a"), ("stage", "y")]).add(2);
        r.counter("m", &[("job", "b"), ("stage", "x")]).add(4);
        r.counter("m", &[("job", "")]).add(8);
        r.counter("m_other", &[("job", "a")]).add(16);
        let sum = |filter: &[(&str, &str)]| -> u64 {
            r.select("m", filter).iter().map(|(_, v)| v.count()).sum()
        };
        assert_eq!(sum(&[]), 15, "the empty filter matches every series");
        assert_eq!(sum(&[("job", "a")]), 3);
        assert_eq!(sum(&[("stage", "x"), ("job", "b")]), 4);
        assert_eq!(sum(&[("job", "c")]), 0);
        // `{job=""}` is the unlabeled series, on both sides.
        assert_eq!(r.counter_value("m", &[]), 8);
        assert_eq!(sum(&[("job", "")]), 15);
    }

    #[test]
    fn absent_series_read_as_zero() {
        let r = Registry::new();
        assert_eq!(r.counter_value("nope", &[]), 0);
        assert_eq!(r.gauge_value("nope", &[]), 0.0);
        assert!(r.value("nope", &[]).is_none());
    }
}
