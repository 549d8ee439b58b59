//! Spans recorded by the staged replay, kept in memory and written out as
//! Chrome trace-event JSON when the run ends.
//!
//! The replay is single-threaded, so spans nest strictly: a span's children
//! are the spans opened while it was the innermost open one, and siblings
//! never overlap. A span's self time is its duration minus its children's.

use crate::json::quote;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval. `name` is `<layer>.<operation>`; `unit` is the
/// split or day index the work belonged to.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub unit: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        layer_of(self.name)
    }

    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The layer a span or metric name belongs to: the part before the dot.
pub fn layer_of(name: &'static str) -> &'static str {
    name.split_once('.').map_or(name, |(layer, _)| layer)
}

#[derive(Debug)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Records spans relative to its creation instant. A disabled recorder
/// hands out guards that do nothing, which is how the replay is timed
/// without span recording.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    inner: Option<RefCell<Inner>>,
}

/// Closes its span when dropped.
#[must_use = "the span ends when the guard is dropped"]
pub struct Guard<'a> {
    recorder: &'a Recorder,
    index: Option<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            inner: enabled.then(|| {
                RefCell::new(Inner {
                    spans: Vec::new(),
                    open: Vec::new(),
                })
            }),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&self, name: &'static str, unit: u64) -> Guard<'_> {
        let index = self.inner.as_ref().map(|cell| {
            let mut inner = cell.borrow_mut();
            let index = inner.spans.len();
            let parent = inner.open.last().copied();
            inner.open.push(index);
            let start_ns = self.now_ns();
            inner.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                unit,
            });
            index
        });
        Guard {
            recorder: self,
            index,
        }
    }

    /// The recorded spans, in opening order.
    pub fn into_spans(self) -> Vec<Span> {
        self.inner.map_or_else(Vec::new, |cell| {
            let inner = cell.into_inner();
            assert!(inner.open.is_empty(), "a span is still open");
            inner.spans
        })
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let (Some(index), Some(cell)) = (self.index, self.recorder.inner.as_ref()) else {
            return;
        };
        let end_ns = self.recorder.now_ns();
        let mut inner = cell.borrow_mut();
        inner.spans[index].end_ns = end_ns;
        let closed = inner.open.pop();
        debug_assert_eq!(closed, Some(index), "spans close innermost first");
    }
}

/// Self time in seconds of every span: duration minus the children's.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut self_ns: Vec<i128> = spans.iter().map(|s| s.duration_ns() as i128).collect();
    for s in spans {
        if let Some(parent) = s.parent {
            self_ns[parent] -= s.duration_ns() as i128;
        }
    }
    self_ns.iter().map(|&ns| ns.max(0) as f64 / 1e9).collect()
}

/// Self time in seconds summed per span name, over the spans below `root`
/// (the root itself included).
pub fn self_time_by_name(spans: &[Span], root: usize) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if is_under(spans, i, root) {
            *out.entry(s.name).or_insert(0.0) += selfs[i];
        }
    }
    out
}

fn is_under(spans: &[Span], mut index: usize, root: usize) -> bool {
    loop {
        if index == root {
            return true;
        }
        match spans[index].parent {
            Some(p) => index = p,
            None => return false,
        }
    }
}

/// Wall seconds of the root spans called `name`, taken together.
pub fn roots_wall_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e9)
        .sum()
}

/// Chrome trace-event JSON (open it at <https://ui.perfetto.dev>): one
/// complete ("X") event per span, one track per root span's subtree.
pub fn chrome_trace_json(spans: &[Span], process: &str) -> String {
    let mut track = vec![0usize; spans.len()];
    let mut next_track = 0usize;
    for (i, s) in spans.iter().enumerate() {
        track[i] = match s.parent {
            Some(p) => track[p],
            None => {
                next_track += 1;
                next_track
            }
        };
    }
    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(&format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":{}}}}}",
        quote(process)
    ));
    for (i, s) in spans.iter().enumerate() {
        out.push_str(&format!(
            ",\n{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
             \"args\":{{\"unit\":{},\"span\":{},\"parent\":{}}}}}",
            quote(s.name),
            quote(s.layer()),
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            track[i],
            s.unit,
            i,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            unit: 0,
        }
    }

    /// replay [0, 100 s)
    ///   dwrf.read_stripe [10, 60)
    ///     tectonic.read [20, 30)
    ///     tectonic.read [40, 45)
    ///   transforms.row [60, 90)
    /// scratch [100, 120)
    ///   dwrf.encode [100, 118)
    fn tree() -> Vec<Span> {
        const S: u64 = 1_000_000_000;
        vec![
            span("replay", 0, 100 * S, None),
            span("dwrf.read_stripe", 10 * S, 60 * S, Some(0)),
            span("tectonic.read", 20 * S, 30 * S, Some(1)),
            span("tectonic.read", 40 * S, 45 * S, Some(1)),
            span("transforms.row", 60 * S, 90 * S, Some(0)),
            span("scratch", 100 * S, 120 * S, None),
            span("dwrf.encode", 100 * S, 118 * S, Some(5)),
        ]
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = tree();
        assert_eq!(
            self_times(&spans),
            vec![20.0, 35.0, 10.0, 5.0, 30.0, 2.0, 18.0]
        );
    }

    #[test]
    fn self_times_of_a_subtree_sum_to_its_root() {
        let spans = tree();
        let by_name = self_time_by_name(&spans, 0);
        assert_eq!(by_name["tectonic.read"], 15.0);
        assert_eq!(by_name["dwrf.read_stripe"], 35.0);
        assert!(!by_name.contains_key("dwrf.encode"), "another root's span");
        assert_eq!(by_name.values().sum::<f64>(), 100.0);
        assert_eq!(layer_of("tectonic.read"), "tectonic");
        assert_eq!(roots_wall_s(&spans, "replay"), 100.0);
        assert_eq!(roots_wall_s(&spans, "scratch"), 20.0);
    }

    #[test]
    fn recorder_nests_guards_and_disabled_records_nothing() {
        let rec = Recorder::new(true);
        {
            let _outer = rec.enter("replay", 0);
            {
                let _a = rec.enter("dwrf.read_stripe", 3);
                let _b = rec.enter("tectonic.read", 3);
            }
            let _c = rec.enter("transforms.row", 3);
        }
        let spans = rec.into_spans();
        let parents: Vec<Option<usize>> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), Some(0)]);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[3].end_ns);

        let off = Recorder::new(false);
        drop(off.enter("replay", 0));
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let text = chrome_trace_json(&tree(), "dsibench test");
        let doc = crate::json::parse(&text).unwrap();
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), tree().len() + 1);
    }
}
