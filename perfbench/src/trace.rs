//! In-memory spans around the benchmark's calls into each layer,
//! layer self time, and the Chrome trace-event export.
//!
//! A span's layer is its name up to the first dot (`core.pattern` is
//! in `core`). Spans are kept in memory while the run measures and are
//! written once, at the end, as trace-event JSON that Perfetto and
//! `chrome://tracing` open directly.

use fmossim_campaign::json::{obj, Value};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One timed section. Times are seconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Identifier shared by every span of one campaign or served job
    /// (0 for set-up work outside any campaign).
    pub campaign: u64,
    /// Display row in the trace viewer: spans that overlap in time
    /// without nesting (parallel shards, concurrent clients) go on
    /// different lanes.
    pub lane: u32,
}

impl Span {
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }

    /// The layer this span belongs to.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Where a new span sits: its parent, campaign and lane.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ctx {
    pub parent: Option<SpanId>,
    pub campaign: u64,
    pub lane: u32,
}

/// A span recorder shared by every thread of a traced run.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Seconds from the tracer's origin to `t`.
    #[must_use]
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Records a finished span and returns its id.
    pub fn record(&self, name: &'static str, start: f64, end: f64, ctx: Ctx) -> SpanId {
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans.push(Span {
            name,
            start,
            end,
            parent: ctx.parent,
            campaign: ctx.campaign,
            lane: ctx.lane,
        });
        spans.len() - 1
    }

    fn close(&self, id: SpanId, end: f64) {
        self.spans.lock().expect("span list poisoned")[id].end = end;
    }

    /// A copy of every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// Runs `f` inside a span named `name` when `tracer` is set; `f`
/// receives the context its own child spans should use. Untraced, it
/// is a plain call.
pub fn span<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    ctx: Ctx,
    f: impl FnOnce(Ctx) -> R,
) -> R {
    let Some(t) = tracer else { return f(ctx) };
    let start = t.at(Instant::now());
    let id = t.record(name, start, start, ctx);
    let out = f(Ctx {
        parent: Some(id),
        ..ctx
    });
    t.close(id, t.at(Instant::now()));
    out
}

/// A span's duration minus the part of it its children cover.
#[must_use]
pub fn self_time(spans: &[Span], id: SpanId) -> f64 {
    let s = &spans[id];
    let mut children: Vec<(f64, f64)> = spans
        .iter()
        .filter(|c| c.parent == Some(id))
        .map(|c| (c.start.max(s.start), c.end.min(s.end)))
        .filter(|(a, b)| b > a)
        .collect();
    children.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut covered = 0.0;
    let mut reach = s.start;
    for (a, b) in children {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    s.seconds() - covered
}

/// Durations of every span named `name`.
#[must_use]
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::seconds)
        .collect()
}

/// The spans as Chrome trace-event JSON (complete `X` events in
/// microseconds), with `meta` attached as `otherData`.
#[must_use]
pub fn chrome_json(spans: &[Span], meta: Value) -> String {
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let args = obj([
                ("campaign", Value::Num(s.campaign as f64)),
                ("id", Value::Num(i as f64)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                ),
                ("self_us", Value::Num(self_time(spans, i) * 1e6)),
            ]);
            obj([
                ("name", Value::Str(s.name.into())),
                ("cat", Value::Str(s.layer().into())),
                ("ph", Value::Str("X".into())),
                ("ts", Value::Num(s.start * 1e6)),
                ("dur", Value::Num(s.seconds() * 1e6)),
                ("pid", Value::Num(1.0)),
                ("tid", Value::Num(f64::from(s.lane))),
                ("args", args),
            ])
        })
        .collect();
    let mut doc = BTreeMap::new();
    doc.insert("traceEvents".to_string(), Value::Arr(events));
    doc.insert("displayTimeUnit".to_string(), Value::Str("ms".into()));
    doc.insert("otherData".to_string(), meta);
    Value::Obj(doc).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start: f64, end: f64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            campaign: 1,
            lane: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            sp("campaign.run", 0.0, 10.0, None),
            // Two overlapping shards cover [1, 6]; a third covers [7, 8].
            sp("par.shard", 1.0, 5.0, Some(0)),
            sp("par.shard", 2.0, 6.0, Some(0)),
            sp("par.shard", 7.0, 8.0, Some(0)),
            // A grandchild does not count against the run directly.
            sp("core.pattern", 1.0, 2.0, Some(1)),
        ];
        assert!((self_time(&spans, 0) - 4.0).abs() < 1e-12);
        assert!((self_time(&spans, 1) - 3.0).abs() < 1e-12);
        assert!((self_time(&spans, 3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![
            sp("campaign.run", 2.0, 4.0, None),
            sp("switch.good_record", 1.0, 3.0, Some(0)),
            sp("par.shard", 3.5, 9.0, Some(0)),
        ];
        assert!((self_time(&spans, 0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn nested_spans_and_chrome_export() {
        let t = Tracer::default();
        let ctx = Ctx {
            campaign: 7,
            ..Ctx::default()
        };
        let v = span(Some(&t), "campaign.run", ctx, |inner| {
            span(Some(&t), "campaign.report_json", inner, |_| 3)
        });
        assert_eq!(v, 3);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].campaign, 7);
        assert_eq!(spans[1].layer(), "campaign");
        assert!(spans[0].end >= spans[1].end);
        let text = chrome_json(&spans, Value::Null);
        let doc = fmossim_campaign::json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Value::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").and_then(Value::as_str), Some("X"));
        // Untraced: the closure runs, nothing is recorded.
        assert_eq!(span(None, "campaign.run", ctx, |_| 5), 5);
    }
}
