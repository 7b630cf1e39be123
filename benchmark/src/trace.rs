//! In-memory span recorder for the traced run.
//!
//! The harness wraps every call it makes into a layer in one span
//! `{name, round, parent, start_us, end_us, count}`; nothing is written
//! until the run ends. Spans are recorded from *outside* the crates —
//! around public calls — so the trace needs no cooperation from the code
//! under test and cannot change a folded bit.

use serde::Serialize;
use std::time::Instant;

/// One timed call. `parent` indexes into the same span list; `count` is
/// the work the call did in the unit natural to it (coordinates decoded,
/// clients sampled, bytes sealed), so ratios are measured where the work
/// happens.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    /// Metric-style name, e.g. `fl.fold`.
    pub name: &'static str,
    /// Round index the call belongs to (the spans of one round share it).
    pub round: usize,
    /// The span that caused this one; `None` for a round's root span.
    pub parent: Option<usize>,
    /// Start, microseconds since the tracer was created.
    pub start_us: f64,
    /// End, microseconds since the tracer was created.
    pub end_us: f64,
    /// Units of work done (0 when the call has no natural count).
    pub count: u64,
}

impl Span {
    /// Wall-clock length of the span in microseconds.
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Append-only span list with a shared time origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// Start an empty trace; `now_us` counts from here.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Microseconds since the tracer was created.
    pub fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, round: usize, parent: Option<usize>) -> usize {
        let now = self.now_us();
        self.record(name, round, parent, now, now, 0)
    }

    /// Close a span opened with [`Tracer::open`], stamping its work count.
    pub fn close(&mut self, id: usize, count: u64) {
        let now = self.now_us();
        let span = &mut self.spans[id];
        span.end_us = now;
        span.count = count;
    }

    /// Record a span whose endpoints were measured elsewhere (worker
    /// threads time themselves against [`Tracer::now_us`]'s origin via
    /// [`Tracer::clock`] and report back).
    pub fn record(
        &mut self,
        name: &'static str,
        round: usize,
        parent: Option<usize>,
        start_us: f64,
        end_us: f64,
        count: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            round,
            parent,
            start_us,
            end_us,
            count,
        });
        self.spans.len() - 1
    }

    /// Time one call as a child span and pass its result through. The
    /// closure returns `(result, count)`.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        round: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> (T, u64),
    ) -> T {
        let id = self.open(name, round, parent);
        let (out, count) = f();
        self.close(id, count);
        out
    }

    /// A copyable clock sharing this tracer's origin, for worker threads.
    pub fn clock(&self) -> Clock {
        Clock {
            origin: self.origin,
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Read-only view of a tracer's time origin (`Copy`, `Send`).
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    origin: Instant,
}

impl Clock {
    /// Microseconds since the owning tracer was created.
    pub fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }
}

/// Merge intervals into the disjoint, ascending intervals covering the
/// same points; empty and inverted intervals are dropped.
pub fn merge_intervals(mut intervals: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    intervals.retain(|(a, b)| b > a);
    intervals.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut merged: Vec<(f64, f64)> = Vec::with_capacity(intervals.len());
    for (a, b) in intervals {
        match merged.last_mut() {
            Some(last) if a <= last.1 => last.1 = last.1.max(b),
            _ => merged.push((a, b)),
        }
    }
    merged
}

/// Microseconds of span `id`'s interval that its direct children cover.
/// Children may overlap (parallel clients), so this is the length of the
/// *union* of their intervals, clipped to the parent.
pub fn covered_us(spans: &[Span], id: usize) -> f64 {
    let parent = &spans[id];
    let kids = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_us.max(parent.start_us), s.end_us.min(parent.end_us)))
        .collect();
    merge_intervals(kids).iter().map(|(a, b)| b - a).sum()
}

/// A span's self time: its duration minus the part its children cover.
pub fn self_time_us(spans: &[Span], id: usize) -> f64 {
    spans[id].duration_us() - covered_us(spans, id)
}

/// Share of span `id`'s duration accounted for by its direct children.
pub fn coverage(spans: &[Span], id: usize) -> f64 {
    let d = spans[id].duration_us();
    if d <= 0.0 {
        1.0
    } else {
        covered_us(spans, id) / d
    }
}

/// Per-round total duration (ms) of the spans called `name`, in round
/// order; rounds without such a span are absent.
pub fn per_round_ms(spans: &[Span], name: &str) -> Vec<f64> {
    let mut by_round: std::collections::BTreeMap<usize, f64> = Default::default();
    for s in spans.iter().filter(|s| s.name == name) {
        *by_round.entry(s.round).or_default() += s.duration_us() / 1e3;
    }
    by_round.into_values().collect()
}

/// Total duration (µs) and total work count of the spans called `name`.
pub fn totals(spans: &[Span], name: &str) -> (f64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0.0, 0), |(t, c), s| (t + s.duration_us(), c + s.count))
}
