//! Spans recorded by the harness around its calls into each layer.
//!
//! A [`Tracer`] belongs to one thread. Spans are kept in memory and
//! written out once, after the run; a tracer that is off costs one
//! branch per call and never reads the clock, so untraced runs measure
//! the program, not the tracing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// `parent` of a span nothing encloses.
pub const NO_PARENT: u32 = u32::MAX;

/// One interval on one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `io.session.poll`.
    pub name: &'static str,
    /// Start, nanoseconds since the harness epoch.
    pub start: u64,
    /// End, nanoseconds since the harness epoch.
    pub end: u64,
    /// Index of the enclosing span on the same thread, or [`NO_PARENT`].
    pub parent: u32,
    /// The message, cell or repetition the span belongs to.
    pub id: u64,
    /// Library calls the span covers (a span may time a batch).
    pub calls: u32,
}

/// Handle returned by [`Tracer::enter`].
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

/// A per-thread span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer measuring from `epoch`; records nothing unless `on`.
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Open a span named `name` for message, cell or repetition `id`.
    #[inline]
    pub fn enter(&mut self, name: &'static str, id: u64) -> Open {
        if !self.on {
            return Open(NO_PARENT);
        }
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(idx);
        let start = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            id,
            calls: 1,
        });
        Open(idx)
    }

    /// Close a span that covered one library call.
    #[inline]
    pub fn exit(&mut self, open: Open) {
        self.exit_calls(open, 1);
    }

    /// Close a span that covered `calls` library calls.
    #[inline]
    pub fn exit_calls(&mut self, open: Open, calls: u32) {
        if !self.on {
            return;
        }
        let end = self.epoch.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(open.0), "spans must close innermost first");
        let s = &mut self.spans[open.0 as usize];
        s.end = end;
        s.calls = calls;
    }

    /// The recorded spans, in opening order.
    pub fn into_spans(self) -> Vec<Span> {
        debug_assert!(self.open.is_empty(), "span left open");
        self.spans
    }
}

/// Self time of each span: its duration minus the part of it its child
/// spans cover. Children nest inside their parent and never overlap each
/// other (one thread, stack discipline), so that part is the sum of
/// their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end - s.start).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.end - s.start);
        }
    }
    own
}

/// Totals of every span sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    /// Spans recorded.
    pub spans: u64,
    /// Library calls they covered.
    pub calls: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
}

impl Agg {
    /// Mean self time per library call, ns (0 when never called).
    pub fn self_ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64
        }
    }

    /// Summed self time in seconds.
    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 * 1e-9
    }
}

/// Aggregate spans by name.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Agg> {
    let own = self_times(spans);
    let mut by_name: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for (s, own) in spans.iter().zip(own) {
        let a = by_name.entry(s.name).or_default();
        a.spans += 1;
        a.calls += s.calls as u64;
        a.total_ns += s.end - s.start;
        a.self_ns += own;
    }
    by_name
}

/// Render the trace file: a table of names, then per thread one row per
/// span, `[name, start_ns, end_ns, parent, id, calls]` with `name` an
/// index into `names` and `parent` a row index in the same thread (-1
/// for none). Rows, not objects: a wire run records a few hundred
/// thousand spans.
pub fn render(workload: &str, threads: &[(&str, &[Span])]) -> String {
    let mut names: Vec<&'static str> = threads
        .iter()
        .flat_map(|(_, spans)| spans.iter().map(|s| s.name))
        .collect();
    names.sort_unstable();
    names.dedup();
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"clock\":\"ns since harness start\",\
         \"row\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"id\",\"calls\"],\"names\":["
    );
    for (i, n) in names.iter().enumerate() {
        let _ = write!(out, "{}\"{n}\"", if i > 0 { "," } else { "" });
    }
    out.push_str("],\"threads\":[");
    for (t, (thread, spans)) in threads.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n{{\"thread\":\"{thread}\",\"spans\":[",
            if t > 0 { "," } else { "" }
        );
        for (i, s) in spans.iter().enumerate() {
            let name = names.binary_search(&s.name).expect("name was collected");
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            let _ = write!(
                out,
                "{}\n[{name},{},{},{parent},{},{}]",
                if i > 0 { "," } else { "" },
                s.start,
                s.end,
                s.id,
                s.calls
            );
        }
        out.push_str("]}");
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            id: 0,
            calls: 1,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        // root 0..100 ─ a 10..40 ─ leaf 15..25
        //              └ b 50..90
        let spans = [
            span("root", 0, 100, NO_PARENT),
            span("a", 10, 40, 0),
            span("leaf", 15, 25, 1),
            span("b", 50, 90, 0),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        let agg = aggregate(&spans);
        assert_eq!(agg["root"].total_ns, 100);
        assert_eq!(agg["root"].self_ns, 30);
        // Self times partition the root: nothing is counted twice.
        assert_eq!(agg.values().map(|a| a.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_and_counts_batches() {
        let mut tr = Tracer::new(true, Instant::now());
        let outer = tr.enter("outer", 7);
        let inner = tr.enter("inner", 7);
        tr.exit_calls(inner, 5);
        tr.exit(outer);
        let spans = tr.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[1].calls, 5);
        assert_eq!(spans[1].id, 7);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let text = render("t", &[("main", &spans)]);
        let doc = crate::json::parse(&text).expect("trace file is JSON");
        let rows = doc.get("threads").unwrap().as_arr().unwrap()[0]
            .get("spans")
            .unwrap()
            .as_arr()
            .unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn tracer_off_records_nothing() {
        let mut tr = Tracer::new(false, Instant::now());
        let s = tr.enter("x", 1);
        tr.exit(s);
        assert!(tr.into_spans().is_empty());
    }
}
