//! In-memory span recorder for the traced runs.
//!
//! A span is a named interval with a parent and, where one applies, the
//! multicast it belongs to. Nested spans are opened and closed on a
//! stack; a span's self time is its duration minus the part of it its
//! children cover. Every closed span is folded into a per-name
//! aggregate, and the first [`SPAN_CAP`] are kept verbatim and written
//! out when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// Spans kept verbatim per run; the aggregates cover every span.
pub const SPAN_CAP: usize = 200_000;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    /// Sequence number of the span in the run.
    pub id: u64,
    /// The span that contains or caused it.
    pub parent: Option<u64>,
    /// Span name (`layer.operation`).
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start: u64,
    /// End, ns since the tracer's epoch.
    pub end: u64,
    /// The multicast the span belongs to (0 = none).
    pub msg: u64,
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    /// Spans closed.
    pub calls: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: u64,
    msg: u64,
    children: Vec<(u64, u64)>,
}

/// The recorder.
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    stack: Vec<Open>,
    spans: Vec<SpanRec>,
    aggs: BTreeMap<&'static str, Agg>,
}

/// Self time of a span `[start, end)` whose children cover `children`
/// (intervals may overlap or stick out of the parent; only the part
/// inside the parent, counted once, is subtracted).
#[must_use]
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end - start.min(end)).saturating_sub(covered)
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Tracer {
        Tracer::with_epoch(Instant::now())
    }

    /// An empty recorder timing from `epoch` (so spans can share a clock
    /// with times taken elsewhere).
    #[must_use]
    pub fn with_epoch(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            next_id: 1,
            stack: Vec::new(),
            spans: Vec::new(),
            aggs: BTreeMap::new(),
        }
    }

    /// Nanoseconds since the tracer's epoch.
    #[must_use]
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, msg: u64) {
        let start = self.now();
        self.enter_at(name, msg, start);
    }

    fn enter_at(&mut self, name: &'static str, msg: u64, start: u64) {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().map(|o| o.id);
        self.stack.push(Open {
            id,
            parent,
            name,
            start,
            msg,
            children: Vec::new(),
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let end = self.now();
        self.exit_at(end);
    }

    fn exit_at(&mut self, end: u64) {
        let Some(open) = self.stack.pop() else {
            return;
        };
        let own = self_time(open.start, end, &open.children);
        if let Some(parent) = self.stack.last_mut() {
            parent.children.push((open.start, end));
        }
        self.close(
            open.id,
            open.parent,
            open.name,
            open.start,
            end,
            open.msg,
            own,
        );
    }

    /// Records a span that does not nest on the stack (an interval that
    /// overlaps others, e.g. a multicast's submit → verdict wait); its
    /// self time is its whole duration.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        start: u64,
        end: u64,
        msg: u64,
    ) {
        let id = self.next_id;
        self.next_id += 1;
        self.close(id, parent, name, start, end, msg, end.saturating_sub(start));
    }

    #[allow(clippy::too_many_arguments)]
    fn close(
        &mut self,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        start: u64,
        end: u64,
        msg: u64,
        own: u64,
    ) {
        let agg = self.aggs.entry(name).or_default();
        agg.calls += 1;
        agg.self_ns += own;
        if self.spans.len() < SPAN_CAP {
            self.spans.push(SpanRec {
                id,
                parent,
                name,
                start,
                end,
                msg,
            });
        }
    }

    /// Totals for `name` (zero if never recorded).
    #[must_use]
    pub fn agg(&self, name: &str) -> Agg {
        self.aggs.get(name).copied().unwrap_or_default()
    }

    /// Every aggregate, by name.
    #[must_use]
    pub fn aggs(&self) -> &BTreeMap<&'static str, Agg> {
        &self.aggs
    }

    /// Writes the kept spans as tab-separated lines
    /// (`id parent name start_ns end_ns msg`).
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing `path`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\tname\tstart_ns\tend_ns\tmsg")?;
        for s in &self.spans {
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{:x}",
                s.id,
                s.parent.map_or(0, |p| p),
                s.name,
                s.start,
                s.end,
                s.msg
            )?;
        }
        w.flush()
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Installs a fresh thread-local tracer (code that cannot carry one,
/// like a simulated node's callbacks, records through it).
pub fn install() {
    CURRENT.with(|c| *c.borrow_mut() = Some(Tracer::new()));
}

/// Removes and returns the thread-local tracer.
#[must_use]
pub fn take() -> Option<Tracer> {
    CURRENT.with(|c| c.borrow_mut().take())
}

/// Opens a span on the thread-local tracer, if one is installed.
pub fn enter(name: &'static str, msg: u64) {
    CURRENT.with(|c| {
        if let Some(t) = c.borrow_mut().as_mut() {
            t.enter(name, msg);
        }
    });
}

/// Closes the innermost span of the thread-local tracer.
pub fn exit() {
    CURRENT.with(|c| {
        if let Some(t) = c.borrow_mut().as_mut() {
            t.exit();
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_children_once() {
        // No children: the whole span.
        assert_eq!(self_time(10, 110, &[]), 100);
        // Disjoint children.
        assert_eq!(self_time(0, 100, &[(10, 20), (50, 80)]), 60);
        // Overlapping children are not double-counted.
        assert_eq!(self_time(0, 100, &[(10, 40), (30, 60)]), 50);
        // Children sticking out of the parent are clipped to it.
        assert_eq!(self_time(50, 100, &[(0, 60), (90, 200)]), 30);
        // A child outside the parent covers nothing.
        assert_eq!(self_time(0, 10, &[(20, 30)]), 10);
        // Full cover leaves zero, never underflows.
        assert_eq!(self_time(0, 10, &[(0, 10), (0, 10)]), 0);
    }

    #[test]
    fn nested_spans_fold_self_time_into_aggregates() {
        let mut t = Tracer::new();
        t.enter_at("root", 0, 0);
        t.enter_at("child", 7, 10);
        t.enter_at("leaf", 7, 12);
        t.exit_at(15);
        t.exit_at(30);
        t.enter_at("child", 8, 40);
        t.exit_at(45);
        t.exit_at(100);
        assert_eq!(
            t.agg("root"),
            Agg {
                calls: 1,
                self_ns: 75
            }
        );
        assert_eq!(
            t.agg("child"),
            Agg {
                calls: 2,
                self_ns: 22
            }
        );
        assert_eq!(
            t.agg("leaf"),
            Agg {
                calls: 1,
                self_ns: 3
            }
        );
        // Self times partition the root's wall time.
        let sum: u64 = t.aggs().values().map(|a| a.self_ns).sum();
        assert_eq!(sum, 100);
        // Parent links follow the nesting.
        let leaf_rec = t.spans.iter().find(|s| s.name == "leaf").unwrap();
        let child_rec = t
            .spans
            .iter()
            .find(|s| s.id == leaf_rec.parent.unwrap())
            .unwrap();
        assert_eq!(child_rec.name, "child");
        assert_eq!(leaf_rec.msg, 7);
    }

    #[test]
    fn unnested_spans_count_their_whole_duration() {
        let mut t = Tracer::new();
        t.record("wait", None, 5, 50, 1);
        t.record("wait", Some(1), 10, 20, 2);
        assert_eq!(
            t.agg("wait"),
            Agg {
                calls: 2,
                self_ns: 55
            }
        );
    }
}
