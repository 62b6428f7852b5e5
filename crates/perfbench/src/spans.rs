//! The benchmark's own span recorder: spans are opened from this crate around
//! calls into each engine layer, kept in memory, and written out in Chrome
//! trace form when the run ends. The spans the engine already returns in
//! `QueryOutput.trace` are grafted beneath `exec.execute`.

use std::time::Instant;

use eva_common::QueryTrace;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Shared by all spans of one query.
    pub query_id: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record an already measured span.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        query_id: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            query_id,
        });
        self.spans.len() - 1
    }

    /// Run `work` inside a span; returns its result and the span's index.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        query_id: u32,
        work: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start_ns = self.now_ns();
        let result = work();
        let end_ns = self.now_ns();
        (result, self.push(name, parent, query_id, start_ns, end_ns))
    }

    /// Hang the engine's spans for one query beneath `exec`, the span that
    /// stands for `QueryOutput.wall_ms`. Engine spans carry an accumulated
    /// busy time rather than an end, so each is drawn from its first entry
    /// for that long; names are `engine.<kind>.<label>`. The engine's root
    /// query span is the same interval as `exec` and is skipped.
    pub fn graft(&mut self, exec: usize, trace: &QueryTrace) {
        let Some(root) = trace.root() else { return };
        let (base, query_id) = (self.spans[exec].start_ns, self.spans[exec].query_id);
        let mut index_of = std::collections::BTreeMap::from([(root.id, exec)]);
        for span in trace.spans.iter().skip(1) {
            let label = span.label.split_whitespace().next().unwrap_or("");
            let start_ns = base + span.start_ns.saturating_sub(root.start_ns);
            let parent = span
                .parent
                .and_then(|id| index_of.get(&id).copied())
                .unwrap_or(exec);
            let index = self.push(
                format!("engine.{}.{label}", span.kind.label()),
                Some(parent),
                query_id,
                start_ns,
                start_ns + span.wall_ns,
            );
            index_of.insert(span.id, index);
        }
    }
}

/// Each span's self time: its duration minus the part its children cover.
/// Children are taken to run one after another, so the part they cover is the
/// sum of their durations, capped at the parent's own (worker spans that ran
/// side by side can add up to more).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            covered[parent] += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(span, covered)| span.duration_ns().saturating_sub(covered))
        .collect()
}

/// Chrome trace-event JSON ("X" complete events, microseconds). Each session
/// is one `tid`; `args` carries the span's index, parent and query.
pub fn chrome_trace(sessions: &[Recorder]) -> Json {
    let mut events = Vec::new();
    for (tid, session) in sessions.iter().enumerate() {
        for (index, span) in session.spans.iter().enumerate() {
            events.push(Json::obj([
                ("name", Json::str(&span.name)),
                ("cat", Json::str(span.name.split('.').next().unwrap_or(""))),
                ("ph", Json::str("X")),
                ("ts", Json::Num(span.start_ns as f64 / 1e3)),
                ("dur", Json::Num(span.duration_ns() as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(tid as f64 + 1.0)),
                (
                    "args",
                    Json::obj([
                        ("span", Json::Num(index as f64)),
                        (
                            "parent",
                            span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("query_id", Json::Num(f64::from(span.query_id))),
                    ]),
                ),
            ]));
        }
    }
    Json::Arr(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            query_id: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("query", 0, 100, None),
            span("parse", 0, 10, Some(0)),
            span("exec", 20, 90, Some(0)),
            span("apply", 25, 85, Some(2)),
            span("udf_eval", 30, 50, Some(3)),
            span("view_probe", 50, 60, Some(3)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 10, 10, 30, 20, 10]);
    }

    #[test]
    fn parallel_children_cannot_make_self_time_negative() {
        let spans = [
            span("pipeline", 0, 100, None),
            span("worker", 0, 90, Some(0)),
            span("worker", 0, 95, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![0, 90, 95]);
    }

    #[test]
    fn chrome_trace_has_one_event_per_span() {
        let mut recorder = Recorder::default();
        let (_, root) = recorder.time("query", None, 7, || ());
        recorder.time("parser.parse", Some(root), 7, || ());
        let trace = chrome_trace(&[recorder]);
        let events = trace.as_array();
        assert_eq!(events.len(), 2);
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(args.get("query_id").unwrap().as_f64(), Some(7.0));
        assert_eq!(events[1].get("cat").unwrap().as_str(), Some("parser"));
    }
}
