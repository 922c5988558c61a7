//! In-memory span tracing for the traced runs.
//!
//! A span is opened around one call into a layer's public function and
//! closed when it returns. Spans are aggregated per name as they close
//! (count, total time, self time, and the name of the enclosing span), so
//! a traced pass over a million datagrams keeps a few dozen aggregates,
//! not a million records. The aggregates are written out with the run's
//! result at exit. A disabled tracer turns every call into a branch, so
//! code shared between traced and untraced runs costs nothing untraced.

use ixp_obs::{Clock, RealClock};

/// Per-name aggregate of closed spans.
#[derive(Debug, Clone)]
pub(crate) struct SpanAgg {
    pub name: &'static str,
    /// Name of the span that was open when this one first opened.
    pub parent: Option<&'static str>,
    pub count: u64,
    pub total_ns: u64,
    /// `total_ns` minus the time of child spans (nested or carved out).
    pub self_ns: u64,
    /// Individual durations, kept only for names registered with
    /// [`Tracer::keep_samples`] (the ones whose percentiles are reported).
    pub samples: Option<Vec<u64>>,
}

struct Open {
    slot: usize,
    start: u64,
    child_ns: u64,
}

/// A span recorder owned by one thread.
pub(crate) struct Tracer {
    enabled: bool,
    clock: RealClock,
    stack: Vec<Open>,
    aggs: Vec<SpanAgg>,
}

impl Tracer {
    pub(crate) fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            clock: RealClock::new(),
            stack: Vec::new(),
            aggs: Vec::new(),
        }
    }

    fn slot(&mut self, name: &'static str) -> usize {
        if let Some(i) = self.aggs.iter().position(|a| a.name == name) {
            return i;
        }
        let parent = self.stack.last().map(|o| self.aggs[o.slot].name);
        self.aggs.push(SpanAgg {
            name,
            parent,
            count: 0,
            total_ns: 0,
            self_ns: 0,
            samples: None,
        });
        self.aggs.len() - 1
    }

    /// Keep every duration of spans named `name`, for percentiles.
    pub(crate) fn keep_samples(&mut self, name: &'static str) {
        if self.enabled {
            let slot = self.slot(name);
            self.aggs[slot].samples.get_or_insert_with(Vec::new);
        }
    }

    /// Open a span named `name` under the innermost open span.
    pub(crate) fn enter(&mut self, name: &'static str) {
        if self.enabled {
            let slot = self.slot(name);
            let start = self.clock.now_ns();
            self.stack.push(Open {
                slot,
                start,
                child_ns: 0,
            });
        }
    }

    /// Close the innermost open span.
    pub(crate) fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.clock.now_ns();
        let Some(open) = self.stack.pop() else { return };
        let dur = end.saturating_sub(open.start);
        let agg = &mut self.aggs[open.slot];
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        if let Some(samples) = &mut agg.samples {
            samples.push(dur);
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
    }

    /// Run `f` inside a span named `name`.
    pub(crate) fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Run `f` as a child of the (already closed) span `parent`, in a
    /// separate pass: its time is recorded under `name` with `parent` as
    /// the parent and subtracted from the parent's self time. This is how
    /// a call that happens inside another layer's public function gets
    /// its own span without instrumenting the program.
    pub(crate) fn carve<R>(
        &mut self,
        parent: &'static str,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled {
            return f();
        }
        let start = self.clock.now_ns();
        let out = f();
        let dur = self.clock.now_ns().saturating_sub(start);
        let p = self.slot(parent);
        self.aggs[p].self_ns = self.aggs[p].self_ns.saturating_sub(dur);
        let c = self.slot(name);
        let agg = &mut self.aggs[c];
        agg.parent = Some(parent);
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur;
        out
    }

    /// Fold another thread's aggregates into this one.
    pub(crate) fn merge(&mut self, other: Tracer) {
        for o in other.aggs {
            let slot = self.slot(o.name);
            let agg = &mut self.aggs[slot];
            if agg.parent.is_none() {
                agg.parent = o.parent;
            }
            agg.count += o.count;
            agg.total_ns += o.total_ns;
            agg.self_ns += o.self_ns;
            if let Some(s) = o.samples {
                agg.samples.get_or_insert_with(Vec::new).extend(s);
            }
        }
    }

    pub(crate) fn get(&self, name: &str) -> Option<&SpanAgg> {
        self.aggs.iter().find(|a| a.name == name)
    }

    /// Total nanoseconds of spans named `name` (0 if none closed).
    pub(crate) fn total_ns(&self, name: &str) -> u64 {
        self.get(name).map_or(0, |a| a.total_ns)
    }

    /// Self nanoseconds of spans named `name` (0 if none closed).
    pub(crate) fn self_ns(&self, name: &str) -> u64 {
        self.get(name).map_or(0, |a| a.self_ns)
    }

    pub(crate) fn aggs(&self) -> &[SpanAgg] {
        &self.aggs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_and_carved_spans_split_self_time() {
        let mut t = Tracer::new(true);
        t.enter("outer");
        t.span("inner", || std::hint::black_box(0));
        t.exit();
        t.carve("outer", "carved", || std::hint::black_box(0));
        let outer = t.get("outer").expect("outer span");
        let inner = t.get("inner").expect("inner span");
        let carved = t.get("carved").expect("carved span");
        assert_eq!(inner.parent, Some("outer"));
        assert_eq!(carved.parent, Some("outer"));
        assert_eq!(outer.count, 1);
        assert!(outer.self_ns + inner.total_ns + carved.total_ns >= outer.total_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.keep_samples("x");
        assert_eq!(t.span("x", || 7), 7);
        assert!(t.aggs().is_empty());
    }
}
