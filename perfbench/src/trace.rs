//! In-memory span tracing from the benchmark's side of every public call.
//!
//! Each span records its name, start, end, parent span and the round (or job) it
//! belongs to. A layer's self time is its spans' duration minus the time covered by
//! their child spans. Spans are kept in memory and written out once, at exit.
//!
//! Untraced runs pay one branch per call site: [`Tracer::span`] runs the closure
//! directly when tracing is off. Benchmark-only work (input generation, transposition
//! probes) goes through [`Tracer::untimed`], which is always clocked so the timed
//! phase can exclude it, traced or not.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified call name, e.g. `machine.write`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, or `u32::MAX` for a top-level span.
    pub parent: u32,
    /// Round or job id shared by every span of one round or job.
    pub round: u32,
    /// Benchmark-only work that the timed phase excludes.
    pub untimed: bool,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name aggregate over a range of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Number of spans with this name.
    pub calls: u64,
    /// Summed duration minus the time covered by child spans.
    pub self_ns: u64,
}

/// The span recorder. Disabled tracers record nothing but still clock untimed work.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    round: u32,
    untimed_ns: u64,
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
            untimed_ns: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags every following span with round (or job) `round`.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, untimed: bool) -> u32 {
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            round: self.round,
            untimed,
        });
        self.open.push(index);
        index
    }

    fn end(&mut self, index: u32) {
        let end_ns = self.now_ns();
        self.open.pop();
        self.spans[index as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name` (just runs it when tracing is off).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let index = self.begin(name, false);
        let out = f();
        self.end(index);
        out
    }

    /// Runs benchmark-only work `f`: always clocked into the untimed total, and
    /// recorded as a span named `name` when tracing is on.
    pub fn untimed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = if self.enabled {
            let index = self.begin(name, true);
            let out = f();
            self.end(index);
            out
        } else {
            f()
        };
        self.untimed_ns += start.elapsed().as_nanos() as u64;
        out
    }

    /// Nanoseconds spent in untimed work so far.
    pub fn untimed_ns(&self) -> u64 {
        self.untimed_ns
    }

    /// A position marker: spans recorded after it are `spans()[mark..]`.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name call counts and self times over the spans recorded since `from`.
    pub fn layers(&self, from: usize) -> BTreeMap<&'static str, LayerTime> {
        let spans = &self.spans[from..];
        let mut self_ns: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
        for span in spans {
            if span.parent != NO_PARENT && span.parent as usize >= from {
                let parent = span.parent as usize - from;
                self_ns[parent] = self_ns[parent].saturating_sub(span.duration_ns());
            }
        }
        let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (span, own) in spans.iter().zip(self_ns) {
            let layer = layers.entry(span.name).or_default();
            layer.calls += 1;
            layer.self_ns += own;
        }
        layers
    }

    /// Summed duration of the timed (not benchmark-only) top-level spans since `from`.
    pub fn top_level_timed_ns(&self, from: usize) -> u64 {
        self.spans[from..]
            .iter()
            .filter(|s| s.parent == NO_PARENT && !s.untimed)
            .map(Span::duration_ns)
            .sum()
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (index, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\":{index},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"round\":{},\"untimed\":{}}}",
                s.name, s.start_ns, s.end_ns, s.round, s.untimed
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        tr.span("outer", || {});
        let from = tr.mark();
        let outer = tr.begin("outer", false);
        let inner = tr.begin("inner", false);
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.end(inner);
        tr.end(outer);
        let layers = tr.layers(from);
        let inner_ns = tr.spans()[inner as usize].duration_ns();
        let outer_ns = tr.spans()[outer as usize].duration_ns();
        assert_eq!(layers["inner"].self_ns, inner_ns);
        assert_eq!(layers["outer"].self_ns, outer_ns - inner_ns);
        assert_eq!(layers["outer"].calls, 1);
        assert_eq!(tr.top_level_timed_ns(from), outer_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_clocks_untimed_work() {
        let mut tr = Tracer::new(false);
        tr.span("a", || {});
        tr.untimed("gen", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(tr.spans().is_empty());
        assert!(tr.untimed_ns() >= 1_000_000);
    }
}
