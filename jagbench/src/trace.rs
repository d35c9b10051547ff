//! Spans recorded from outside the program, and the ladder arithmetic
//! that turns them into per-layer self times.
//!
//! Nothing here touches the engine: a span is wrapped around a call into
//! a public entry point by jagbench itself. Spans are kept in memory and
//! written to the span file when the traced run ends.

use std::time::Instant;

use crate::json::Json;

pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one (index into the same tracer).
    pub parent: Option<SpanId>,
    /// Spans of one statement share an identifier.
    pub stmt_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span buffer. Each client thread and the ladder own one;
/// they share `epoch` so their timestamps are comparable.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Open a span now. Its `end_ns` equals its `start_ns` until
    /// [`Tracer::end`] is called.
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, stmt_id: u64) -> SpanId {
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            stmt_id,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Run `f` inside a span.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        stmt_id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, stmt_id);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Append one tracer's spans to a combined list, re-basing their parent
/// indices.
pub fn append(all: &mut Vec<Span>, spans: Vec<Span>) {
    let base = all.len();
    all.extend(spans.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
/// `spans[i].parent` indexes `spans`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            // Clip to the parent: a child that outlives it cannot cover
            // time the parent did not spend.
            let start = s.start_ns.max(spans[p].start_ns);
            let end = s.end_ns.min(spans[p].end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for (start, end) in kids {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Durations (ns) of every span called `name`.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect()
}

/// One step down the ladder: the time the outer entry point spends
/// itself — its time minus the time of the deeper entry points it calls.
///
/// A deeper rung measured slower than the rung above it means the
/// measurements do not resolve the layer between them. That is reported as
/// `Unresolved`, carrying the difference as measured — never clamped to
/// zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rung {
    Resolved(f64),
    Unresolved(f64),
}

impl Rung {
    pub fn of(difference: f64) -> Rung {
        if difference >= 0.0 {
            Rung::Resolved(difference)
        } else {
            Rung::Unresolved(difference)
        }
    }

    pub fn subtract(outer: f64, inner: f64) -> Rung {
        Rung::of(outer - inner)
    }

    /// The difference as measured, negative when unresolved.
    pub fn raw(self) -> f64 {
        match self {
            Rung::Resolved(v) | Rung::Unresolved(v) => v,
        }
    }

    pub fn is_resolved(self) -> bool {
        matches!(self, Rung::Resolved(_))
    }
}

pub fn spans_to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::from(s.start_ns)),
                    ("end_ns", Json::from(s.end_ns)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                    ),
                    ("stmt_id", Json::from(s.stmt_id)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            stmt_id: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_child_time() {
        let spans = vec![
            span(0, 100, None),     // 0: root
            span(10, 30, Some(0)),  // 1
            span(20, 50, Some(0)),  // 2: overlaps 1 — union is [10, 50)
            span(70, 80, Some(0)),  // 3
            span(22, 28, Some(2)),  // 4: grandchild, not the root's child
            span(90, 120, Some(0)), // 5: outlives the root, clipped to [90, 100)
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs[0], 100 - (40 + 10 + 10));
        assert_eq!(selfs[1], 20);
        assert_eq!(selfs[2], 30 - 6);
        assert_eq!(selfs[4], 6);
    }

    #[test]
    fn append_rebases_parents() {
        let mut all = vec![span(0, 10, None), span(1, 2, Some(0))];
        append(&mut all, vec![span(20, 30, None), span(21, 22, Some(0))]);
        assert_eq!(all[3].parent, Some(2));
        assert_eq!(all[2].parent, None);
        assert_eq!(self_times_ns(&all), vec![9, 1, 9, 1]);
    }

    #[test]
    fn childless_and_zero_length_spans() {
        let spans = vec![span(5, 5, None), span(5, 9, None)];
        assert_eq!(self_times_ns(&spans), vec![0, 4]);
    }

    #[test]
    fn ladder_reports_unresolved_instead_of_clamping() {
        assert_eq!(Rung::subtract(10.0, 4.0), Rung::Resolved(6.0));
        assert_eq!(Rung::subtract(4.0, 4.0), Rung::Resolved(0.0));
        let r = Rung::subtract(4.0, 10.0);
        assert_eq!(r, Rung::Unresolved(-6.0));
        assert!(!r.is_resolved());
        assert_eq!(r.raw(), -6.0, "the measured difference survives");
        assert!(
            !Rung::of(f64::NAN).is_resolved(),
            "no measurement resolves nothing"
        );
    }

    #[test]
    fn tracer_nests_scopes_and_serializes() {
        let mut t = Tracer::new(Instant::now());
        let root = t.begin("stmt", None, 7);
        let got = t.scope("execute", Some(root), 7, || 41 + 1);
        t.end(root);
        assert_eq!(got, 42);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(root));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json = spans_to_json(spans);
        assert_eq!(crate::json::parse(&json.to_string()).unwrap(), json);
        assert_eq!(json.items()[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(json.items()[0].get("parent"), Some(&Json::Null));
    }
}
