//! In-memory spans recorded around calls into the program's layers.
//!
//! Spans are recorded only in the benchmark's own code. Each carries a
//! name, start, end, parent and request id; they are kept in memory and
//! written out once the run ends. A layer's *self time* is its span's
//! duration minus the part of that interval its child spans cover.

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::stats;

/// Parent id of a root span.
pub const ROOT: u64 = 0;

/// One timed interval, in nanoseconds since the trace epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique, non-zero id.
    pub id: u64,
    /// Id of the span that caused this one, or [`ROOT`].
    pub parent: u64,
    /// Request this span belongs to (0 when it belongs to none).
    pub req: u64,
    /// Layer name, e.g. `wire.encode_req`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
}

/// A span recorder for one thread. Recorders of different threads share
/// one epoch and draw ids from disjoint ranges, so their spans merge.
pub struct Recorder {
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose ids start at `(lane << 48) + 1`.
    pub fn new(epoch: Instant, lane: u64) -> Self {
        Self { epoch, next_id: (lane << 48) + 1, spans: Vec::new() }
    }

    /// The shared epoch.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Converts an instant to nanoseconds since the epoch (0 if earlier).
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Draws a fresh span id.
    pub fn next_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        start: u64,
        end: u64,
    ) -> u64 {
        let id = self.next_id();
        self.push(Span { id, parent, req, name, start, end });
        id
    }

    /// Records a span whose id was drawn earlier (a parent opened before
    /// its children).
    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Times `f` as a span and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(name, parent, req, start, end);
        out
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another recorder's spans into this one.
    pub fn absorb(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
    }
}

/// Self time of every span, in the order given: its duration minus the
/// union of its children's intervals, each clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != ROOT) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end.saturating_sub(s.start);
            let Some(kids) = children.get_mut(&s.id) else { return dur };
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            dur - covered.min(dur)
        })
        .collect()
}

/// Median self time per span name, in microseconds.
pub fn self_p50_us(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        by_name.entry(s.name).or_default().push(t as f64 / 1e3);
    }
    by_name.into_iter().map(|(k, v)| (k, stats::median(&v))).collect()
}

/// Writes the spans as tab-separated lines:
/// `id parent req name start_ns end_ns`.
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\treq\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(out, "{}\t{}\t{}\t{}\t{}\t{}", s.id, s.parent, s.req, s.name, s.start, s.end)?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span { id, parent, req: 0, name: "x", start, end }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, ROOT, 0, 100),
            // Overlapping children cover [10, 40): 30 ns, not 40.
            span(2, 1, 10, 30),
            span(3, 1, 20, 40),
            // Disjoint child: 10 ns.
            span(4, 1, 60, 70),
            // A grandchild is charged to its own parent only.
            span(5, 4, 62, 65),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 20, 7, 3]);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // A child recorded on another thread may start before or end
        // after its parent; only the overlap is subtracted.
        let spans = [span(1, ROOT, 100, 200), span(2, 1, 50, 120), span(3, 1, 190, 260)];
        assert_eq!(self_times(&spans)[0], 70);
    }

    #[test]
    fn nested_children_do_not_double_count() {
        let spans = [span(1, ROOT, 0, 50), span(2, 1, 0, 50), span(3, 1, 10, 20)];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn recorders_merge_without_id_clashes() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch, 1);
        let mut b = Recorder::new(epoch, 2);
        let pa = a.record("a", ROOT, 7, 0, 10);
        let pb = b.record("b", pa, 7, 2, 5);
        assert_ne!(pa, pb);
        a.absorb(b);
        assert_eq!(a.spans().len(), 2);
        assert_eq!(self_p50_us(a.spans()).len(), 2);
    }
}
