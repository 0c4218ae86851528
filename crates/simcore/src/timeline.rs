//! Execution timeline recording and analysis.
//!
//! The paper's measurements (Figures 2, 5, 7, 8; Tables 3, 4) come from
//! PyTorch-Profiler-style timelines of CUDA streams. Each device has
//! three streams (compute, all-to-all, allreduce), and each stream runs
//! one thing at a time: one op per compute stream, and at most one
//! collective per class (§4.1's NCCL constraint). So the timeline keeps
//! one list per stream, in start order, and [`Timeline::record`]
//! refuses a span that overlaps its stream's previous one. A timeline
//! is not kept while a step runs: `lina-runner` records only each op's
//! window and lowers a step's windows to a timeline when a query or a
//! figure asks for one.
//!
//! It answers the three queries the evaluation asks: GPU utilization
//! ([`Timeline::mean_compute_utilization`], Table 4), pipelining
//! efficiency ([`Timeline::pipelining_efficiency`], Table 3) and the
//! ASCII rendering of a window ([`Timeline::render_ascii`], Figs 2, 5
//! and 8). Serial streams make each a plain sum: no span overlaps
//! another of its own stream, so nothing needs merging.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::time::{SimDuration, SimTime};

/// Identifies a stream in the timeline: a (device, lane) pair.
///
/// Lanes mirror the CUDA streams in the paper's figures: one compute
/// stream and two communication streams per device.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StreamId {
    /// Owning device index.
    pub device: u32,
    /// Stream lane on that device.
    pub lane: Lane,
}

/// Stream lanes, exactly the paper's Stream a/b/c (Figs 2 and 5):
/// compute, all-to-all and allreduce. Variant order is the `Ord` that
/// sorts a timeline's streams.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Lane {
    /// Computation stream (the paper's Stream a).
    Compute,
    /// All-to-all communication stream (the paper's Stream c).
    AllToAll,
    /// Allreduce communication stream (the paper's Stream b).
    Allreduce,
}

impl Lane {
    /// Short label used when rendering timelines.
    pub fn label(self) -> &'static str {
        match self {
            Lane::Compute => "comp",
            Lane::AllToAll => "a2a ",
            Lane::Allreduce => "ar  ",
        }
    }
}

/// Category of the work a span represents; it fixes the span's lane
/// and its glyph.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum SpanKind {
    /// Attention (and other non-MoE) computation.
    Attention,
    /// Gating network computation.
    Gate,
    /// Expert FFN computation.
    ExpertFfn,
    /// Combine (weighted-sum / reshape) computation.
    Combine,
    /// Optimizer step computation.
    Optimizer,
    /// All-to-all communication.
    AllToAll,
    /// Allreduce communication.
    Allreduce,
}

impl SpanKind {
    /// Single-character glyph used when rendering timelines.
    pub fn glyph(self) -> char {
        match self {
            SpanKind::Attention => 'A',
            SpanKind::Gate => 'G',
            SpanKind::ExpertFfn => 'F',
            SpanKind::Combine => 'C',
            SpanKind::Optimizer => 'O',
            SpanKind::AllToAll => '#',
            SpanKind::Allreduce => '=',
        }
    }

    /// The lane a span of this kind runs on: the five compute kinds on
    /// [`Lane::Compute`], each collective on its own lane.
    pub fn lane(self) -> Lane {
        match self {
            SpanKind::Attention
            | SpanKind::Gate
            | SpanKind::ExpertFfn
            | SpanKind::Combine
            | SpanKind::Optimizer => Lane::Compute,
            SpanKind::AllToAll => Lane::AllToAll,
            SpanKind::Allreduce => Lane::Allreduce,
        }
    }
}

/// One recorded interval of activity on a stream: `(kind, start, end)`;
/// the stream is the list it sits in.
#[derive(Clone, Debug)]
pub struct Span {
    /// Work category.
    pub kind: SpanKind,
    /// Start instant (inclusive).
    pub start: SimTime,
    /// End instant (exclusive).
    pub end: SimTime,
}

impl Span {
    /// Span length.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }

    /// Overlap of this span with the window `[lo, hi)`.
    pub fn overlap(&self, lo: SimTime, hi: SimTime) -> SimDuration {
        let s = self.start.max(lo);
        let e = self.end.min(hi);
        e.saturating_since(s)
    }
}

/// Records serial streams and answers the paper's three timeline
/// queries.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    /// Each stream's spans in record order, which is start order: a
    /// stream runs one thing at a time.
    streams: BTreeMap<StreamId, Vec<Span>>,
}

impl Timeline {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a completed span of `kind` on `device`, on the lane its
    /// kind runs on.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`, or if the span starts before the
    /// previous span on its stream ended.
    pub fn record(&mut self, device: u32, kind: SpanKind, start: SimTime, end: SimTime) {
        assert!(end >= start, "Timeline::record: end before start");
        let lane = kind.lane();
        let spans = self.streams.entry(StreamId { device, lane }).or_default();
        if let Some(prev) = spans.last() {
            assert!(
                start >= prev.end,
                "Timeline::record: dev{device} {lane:?} span at {start} overlaps one ending at {}",
                prev.end
            );
        }
        spans.push(Span { kind, start, end });
    }

    /// Every stream with its spans in start order, streams in
    /// [`StreamId`] order.
    pub fn streams(&self) -> impl Iterator<Item = (StreamId, &[Span])> {
        self.streams
            .iter()
            .map(|(&id, spans)| (id, spans.as_slice()))
    }

    /// The spans of one stream; empty if it recorded none.
    fn stream(&self, device: u32, lane: Lane) -> &[Span] {
        self.streams
            .get(&StreamId { device, lane })
            .map_or(&[], Vec::as_slice)
    }

    /// Latest end instant over all spans; `SimTime::ZERO` when empty.
    pub fn horizon(&self) -> SimTime {
        self.streams
            .values()
            .filter_map(|spans| spans.last())
            .map(|s| s.end)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Mean busy fraction of devices `0..devices`' compute streams over
    /// the whole timeline: the "average GPU utilization" of Table 4.
    pub fn mean_compute_utilization(&self, devices: u32) -> f64 {
        let hi = self.horizon();
        if hi == SimTime::ZERO || devices == 0 {
            return 0.0;
        }
        let total = (0..devices).fold(0.0, |total, d| {
            let busy: SimDuration = self
                .stream(d, Lane::Compute)
                .iter()
                .map(Span::duration)
                .sum();
            total + busy.ratio(hi - SimTime::ZERO)
        });
        total / devices as f64
    }

    /// Pipelining efficiency (Table 3): the fraction of all-to-all time
    /// during which the same device's compute stream is busy. One walk
    /// of each device's all-to-all stream beside its compute stream.
    pub fn pipelining_efficiency(&self) -> f64 {
        let mut comm_total = SimDuration::ZERO;
        let mut overlap_total = SimDuration::ZERO;
        for (id, a2a) in self.streams() {
            if id.lane != Lane::AllToAll {
                continue;
            }
            let compute = self.stream(id.device, Lane::Compute);
            // First compute span that may still overlap a later comm
            // span: both streams are serial, so it only moves forward.
            let mut next = 0;
            for comm in a2a {
                comm_total += comm.duration();
                while compute.get(next).is_some_and(|c| c.end <= comm.start) {
                    next += 1;
                }
                overlap_total += compute[next..]
                    .iter()
                    .take_while(|c| c.start < comm.end)
                    .map(|c| c.overlap(comm.start, comm.end))
                    .sum();
            }
        }
        overlap_total.ratio(comm_total)
    }

    /// Renders an ASCII timeline of the window `[lo, hi)` with `width`
    /// character columns, one row per (device, lane) that has activity.
    /// Intended for the Figure 2/5/7/8 style outputs.
    pub fn render_ascii(&self, lo: SimTime, hi: SimTime, width: usize) -> String {
        let window = hi.saturating_since(lo);
        if window == SimDuration::ZERO || width == 0 {
            return String::new();
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "timeline [{} .. {}] ({} per column)",
            lo,
            hi,
            SimDuration::from_nanos(window.as_nanos() / width as u64)
        );
        for (stream, spans) in self.streams() {
            let mut drawn = spans
                .iter()
                .filter(|s| s.overlap(lo, hi) > SimDuration::ZERO)
                .peekable();
            if drawn.peek().is_none() {
                continue;
            }
            let mut row = vec![' '; width];
            for s in drawn {
                let sc = ((s.start.max(lo) - lo).as_nanos() as u128 * width as u128
                    / window.as_nanos() as u128) as usize;
                let ec = ((s.end.min(hi) - lo).as_nanos() as u128 * width as u128
                    / window.as_nanos() as u128) as usize;
                let ec = ec.max(sc + 1).min(width);
                for c in row.iter_mut().take(ec).skip(sc) {
                    *c = s.kind.glyph();
                }
            }
            let _ = writeln!(
                out,
                "dev{:>2} {} |{}|",
                stream.device,
                stream.lane.label(),
                row.into_iter().collect::<String>()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn record_and_totals() {
        let mut t = Timeline::new();
        t.record(1, SpanKind::AllToAll, ms(5), ms(15));
        t.record(0, SpanKind::ExpertFfn, ms(0), ms(5));
        t.record(0, SpanKind::AllToAll, ms(5), ms(15));
        t.record(0, SpanKind::AllToAll, ms(15), ms(15));
        let streams: Vec<(StreamId, usize, SimDuration)> = t
            .streams()
            .map(|(id, spans)| (id, spans.len(), spans.iter().map(Span::duration).sum()))
            .collect();
        let sid = |device, lane| StreamId { device, lane };
        assert_eq!(
            streams,
            [
                (sid(0, Lane::Compute), 1, SimDuration::from_millis(5)),
                (sid(0, Lane::AllToAll), 2, SimDuration::from_millis(10)),
                (sid(1, Lane::AllToAll), 1, SimDuration::from_millis(10)),
            ]
        );
        assert_eq!(t.horizon(), ms(15));
    }

    #[test]
    fn lane_follows_kind() {
        let mut t = Timeline::new();
        t.record(0, SpanKind::Optimizer, ms(0), ms(1));
        t.record(0, SpanKind::Allreduce, ms(0), ms(1));
        let lanes: Vec<Lane> = t.streams().map(|(id, _)| id.lane).collect();
        assert_eq!(lanes, [Lane::Compute, Lane::Allreduce]);
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlap_on_one_stream_panics() {
        let mut t = Timeline::new();
        t.record(0, SpanKind::Attention, ms(0), ms(10));
        t.record(0, SpanKind::Gate, ms(5), ms(12));
    }

    #[test]
    #[should_panic(expected = "end before start")]
    fn end_before_start_panics() {
        Timeline::new().record(0, SpanKind::Attention, ms(5), ms(4));
    }

    #[test]
    fn lanes_of_one_device_may_overlap() {
        let mut t = Timeline::new();
        t.record(0, SpanKind::AllToAll, ms(0), ms(10));
        t.record(0, SpanKind::Allreduce, ms(2), ms(8));
        t.record(0, SpanKind::ExpertFfn, ms(4), ms(6));
        // A stream of another device is a stream of its own.
        t.record(1, SpanKind::ExpertFfn, ms(0), ms(10));
        assert_eq!(t.streams().count(), 4);
        assert!((t.pipelining_efficiency() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn mean_compute_utilization_across_devices() {
        let mut t = Timeline::new();
        t.record(0, SpanKind::Attention, ms(0), ms(10));
        t.record(1, SpanKind::Attention, ms(0), ms(5));
        let u = t.mean_compute_utilization(2);
        assert!((u - 0.75).abs() < 1e-9);
    }

    #[test]
    fn pipelining_efficiency_counts_compute_overlap() {
        let mut t = Timeline::new();
        // 10ms a2a on device 0; compute busy for 4ms of it.
        t.record(0, SpanKind::AllToAll, ms(0), ms(10));
        t.record(0, SpanKind::ExpertFfn, ms(2), ms(6));
        // Compute on another device must not count.
        t.record(1, SpanKind::ExpertFfn, ms(0), ms(10));
        let eff = t.pipelining_efficiency();
        assert!((eff - 0.4).abs() < 1e-9, "eff {eff}");
    }

    #[test]
    fn pipelining_efficiency_empty_is_zero() {
        let t = Timeline::new();
        assert_eq!(t.pipelining_efficiency(), 0.0);
    }

    #[test]
    fn ascii_render_contains_glyphs() {
        let mut t = Timeline::new();
        t.record(0, SpanKind::ExpertFfn, ms(0), ms(5));
        t.record(0, SpanKind::AllToAll, ms(5), ms(10));
        let art = t.render_ascii(ms(0), ms(10), 20);
        assert!(art.contains('F'));
        assert!(art.contains('#'));
        assert!(art.contains("dev 0 comp"));
    }

    #[test]
    fn span_overlap() {
        let s = Span {
            kind: SpanKind::Attention,
            start: ms(5),
            end: ms(10),
        };
        assert_eq!(s.overlap(ms(0), ms(7)), SimDuration::from_millis(2));
        assert_eq!(s.overlap(ms(12), ms(20)), SimDuration::ZERO);
        assert_eq!(s.duration(), SimDuration::from_millis(5));
    }
}
