//! Execution timeline recording and analysis.
//!
//! The paper's measurements (Figures 2, 5, 7, 8; Tables 3, 4) come from
//! PyTorch-Profiler-style timelines of CUDA streams. This module records
//! `(stream, kind, start, end)` spans during simulation and answers the
//! queries the evaluation needs: busy time within a window, utilization,
//! blocking periods, and pipelining efficiency (the fraction of non-idle
//! compute-stream time during a communication span).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::time::{SimDuration, SimTime};

/// Identifies a stream in the timeline: a (device, lane) pair.
///
/// Lanes mirror the CUDA streams in the paper's figures: one compute
/// stream and dedicated communication streams per device.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StreamId {
    /// Owning device index.
    pub device: u32,
    /// Stream lane on that device.
    pub lane: Lane,
}

/// Stream lanes, mirroring the paper's Stream a/b/c.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Lane {
    /// Computation stream (the paper's Stream a).
    Compute,
    /// All-to-all communication stream (the paper's Stream c).
    AllToAll,
    /// Allreduce communication stream (the paper's Stream b).
    Allreduce,
    /// Control/scheduling activity (Lina's scheduler threads).
    Control,
}

impl Lane {
    /// Short label used when rendering timelines.
    pub fn label(self) -> &'static str {
        match self {
            Lane::Compute => "comp",
            Lane::AllToAll => "a2a ",
            Lane::Allreduce => "ar  ",
            Lane::Control => "ctrl",
        }
    }
}

/// Category of the work a span represents. Used for per-kind aggregation
/// (e.g. "total all-to-all time in the backward pass").
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
    /// Point-to-point or broadcast control communication.
    ControlComm,
    /// Scheduler decision-making overhead.
    SchedOverhead,
    /// Expert weight swap (DRAM offload traffic).
    WeightSwap,
    /// Anything else.
    Other,
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
            SpanKind::ControlComm => '.',
            SpanKind::SchedOverhead => 's',
            SpanKind::WeightSwap => 'w',
            SpanKind::Other => '?',
        }
    }
}

/// One recorded interval of activity on a stream.
#[derive(Clone, Debug)]
pub struct Span {
    /// Stream the activity ran on.
    pub stream: StreamId,
    /// Work category.
    pub kind: SpanKind,
    /// Start instant (inclusive).
    pub start: SimTime,
    /// End instant (exclusive).
    pub end: SimTime,
    /// Free-form label, e.g. `"L3 a2a#1 chunk2/5"`.
    pub label: String,
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

/// Records spans and answers timeline queries.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    spans: Vec<Span>,
}

impl Timeline {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a completed span.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `end < start`.
    pub fn record(
        &mut self,
        stream: StreamId,
        kind: SpanKind,
        start: SimTime,
        end: SimTime,
        label: impl Into<String>,
    ) {
        debug_assert!(end >= start, "Timeline::record: end before start");
        self.spans.push(Span {
            stream,
            kind,
            start,
            end,
            label: label.into(),
        });
    }

    /// All recorded spans in insertion order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Latest end instant over all spans; `SimTime::ZERO` when empty.
    pub fn horizon(&self) -> SimTime {
        self.spans
            .iter()
            .map(|s| s.end)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Spans matching a predicate.
    pub fn filter<'a>(
        &'a self,
        pred: impl Fn(&Span) -> bool + 'a,
    ) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| pred(s))
    }

    /// Total duration of spans of a given kind (summed even if they
    /// overlap in time across devices).
    pub fn total_by_kind(&self, kind: SpanKind) -> SimDuration {
        self.spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(Span::duration)
            .sum()
    }

    /// Union (non-double-counted) busy time of the selected spans within
    /// the window `[lo, hi)`.
    pub fn busy_time_in(
        &self,
        lo: SimTime,
        hi: SimTime,
        pred: impl Fn(&Span) -> bool,
    ) -> SimDuration {
        let mut intervals: Vec<(SimTime, SimTime)> = self
            .spans
            .iter()
            .filter(|s| pred(s))
            .map(|s| (s.start.max(lo), s.end.min(hi)))
            .filter(|(s, e)| e > s)
            .collect();
        intervals.sort();
        let mut total = SimDuration::ZERO;
        let mut cur: Option<(SimTime, SimTime)> = None;
        for (s, e) in intervals {
            match cur {
                None => cur = Some((s, e)),
                Some((cs, ce)) => {
                    if s <= ce {
                        cur = Some((cs, ce.max(e)));
                    } else {
                        total += ce - cs;
                        cur = Some((s, e));
                    }
                }
            }
        }
        if let Some((cs, ce)) = cur {
            total += ce - cs;
        }
        total
    }

    /// Busy fraction of a stream within `[lo, hi)`.
    pub fn utilization(&self, stream: StreamId, lo: SimTime, hi: SimTime) -> f64 {
        let window = hi.saturating_since(lo);
        if window == SimDuration::ZERO {
            return 0.0;
        }
        let busy = self.busy_time_in(lo, hi, |s| s.stream == stream);
        busy.ratio(window)
    }

    /// Mean busy fraction of all compute lanes over the whole timeline —
    /// the "average GPU utilization" of Table 4.
    pub fn mean_compute_utilization(&self, devices: u32) -> f64 {
        let hi = self.horizon();
        if hi == SimTime::ZERO || devices == 0 {
            return 0.0;
        }
        let mut total = 0.0;
        for d in 0..devices {
            total += self.utilization(
                StreamId {
                    device: d,
                    lane: Lane::Compute,
                },
                SimTime::ZERO,
                hi,
            );
        }
        total / devices as f64
    }

    /// Pipelining efficiency (Table 3): the fraction of time within the
    /// selected communication spans during which the same device's compute
    /// stream is busy.
    pub fn pipelining_efficiency(&self, comm_kind: SpanKind) -> f64 {
        let mut comm_total = SimDuration::ZERO;
        let mut overlap_total = SimDuration::ZERO;
        for comm in self.spans.iter().filter(|s| s.kind == comm_kind) {
            comm_total += comm.duration();
            let compute_stream = StreamId {
                device: comm.stream.device,
                lane: Lane::Compute,
            };
            overlap_total +=
                self.busy_time_in(comm.start, comm.end, |s| s.stream == compute_stream);
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
        let mut streams: BTreeMap<StreamId, Vec<&Span>> = BTreeMap::new();
        for s in &self.spans {
            if s.overlap(lo, hi) > SimDuration::ZERO {
                streams.entry(s.stream).or_default().push(s);
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "timeline [{} .. {}] ({} per column)",
            lo,
            hi,
            SimDuration::from_nanos(window.as_nanos() / width as u64)
        );
        for (stream, spans) in &streams {
            let mut row = vec![' '; width];
            for s in spans {
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

    fn sid(device: u32, lane: Lane) -> StreamId {
        StreamId { device, lane }
    }

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn record_and_totals() {
        let mut t = Timeline::new();
        t.record(
            sid(0, Lane::Compute),
            SpanKind::ExpertFfn,
            ms(0),
            ms(5),
            "ffn",
        );
        t.record(
            sid(0, Lane::AllToAll),
            SpanKind::AllToAll,
            ms(5),
            ms(15),
            "a2a",
        );
        t.record(
            sid(1, Lane::AllToAll),
            SpanKind::AllToAll,
            ms(5),
            ms(15),
            "a2a",
        );
        assert_eq!(
            t.total_by_kind(SpanKind::AllToAll),
            SimDuration::from_millis(20)
        );
        assert_eq!(
            t.total_by_kind(SpanKind::ExpertFfn),
            SimDuration::from_millis(5)
        );
        assert_eq!(t.horizon(), ms(15));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn busy_time_merges_overlaps() {
        let mut t = Timeline::new();
        t.record(
            sid(0, Lane::Compute),
            SpanKind::Attention,
            ms(0),
            ms(10),
            "",
        );
        t.record(sid(0, Lane::Compute), SpanKind::Gate, ms(5), ms(12), "");
        t.record(sid(0, Lane::Compute), SpanKind::Combine, ms(20), ms(25), "");
        let busy = t.busy_time_in(ms(0), ms(30), |s| s.stream == sid(0, Lane::Compute));
        assert_eq!(busy, SimDuration::from_millis(17));
    }

    #[test]
    fn busy_time_respects_window() {
        let mut t = Timeline::new();
        t.record(
            sid(0, Lane::Compute),
            SpanKind::Attention,
            ms(0),
            ms(10),
            "",
        );
        let busy = t.busy_time_in(ms(4), ms(6), |_| true);
        assert_eq!(busy, SimDuration::from_millis(2));
    }

    #[test]
    fn utilization_fraction() {
        let mut t = Timeline::new();
        t.record(sid(0, Lane::Compute), SpanKind::Attention, ms(0), ms(5), "");
        let u = t.utilization(sid(0, Lane::Compute), ms(0), ms(10));
        assert!((u - 0.5).abs() < 1e-9);
        assert_eq!(t.utilization(sid(0, Lane::Compute), ms(0), ms(0)), 0.0);
    }

    #[test]
    fn mean_compute_utilization_across_devices() {
        let mut t = Timeline::new();
        t.record(
            sid(0, Lane::Compute),
            SpanKind::Attention,
            ms(0),
            ms(10),
            "",
        );
        t.record(sid(1, Lane::Compute), SpanKind::Attention, ms(0), ms(5), "");
        let u = t.mean_compute_utilization(2);
        assert!((u - 0.75).abs() < 1e-9);
    }

    #[test]
    fn pipelining_efficiency_counts_compute_overlap() {
        let mut t = Timeline::new();
        // 10ms a2a on device 0; compute busy for 4ms of it.
        t.record(
            sid(0, Lane::AllToAll),
            SpanKind::AllToAll,
            ms(0),
            ms(10),
            "",
        );
        t.record(sid(0, Lane::Compute), SpanKind::ExpertFfn, ms(2), ms(6), "");
        // Compute on another device must not count.
        t.record(
            sid(1, Lane::Compute),
            SpanKind::ExpertFfn,
            ms(0),
            ms(10),
            "",
        );
        let eff = t.pipelining_efficiency(SpanKind::AllToAll);
        assert!((eff - 0.4).abs() < 1e-9, "eff {eff}");
    }

    #[test]
    fn pipelining_efficiency_empty_is_zero() {
        let t = Timeline::new();
        assert_eq!(t.pipelining_efficiency(SpanKind::AllToAll), 0.0);
    }

    #[test]
    fn ascii_render_contains_glyphs() {
        let mut t = Timeline::new();
        t.record(sid(0, Lane::Compute), SpanKind::ExpertFfn, ms(0), ms(5), "");
        t.record(
            sid(0, Lane::AllToAll),
            SpanKind::AllToAll,
            ms(5),
            ms(10),
            "",
        );
        let art = t.render_ascii(ms(0), ms(10), 20);
        assert!(art.contains('F'));
        assert!(art.contains('#'));
        assert!(art.contains("dev 0 comp"));
    }

    #[test]
    fn span_overlap() {
        let s = Span {
            stream: sid(0, Lane::Compute),
            kind: SpanKind::Other,
            start: ms(5),
            end: ms(10),
            label: String::new(),
        };
        assert_eq!(s.overlap(ms(0), ms(7)), SimDuration::from_millis(2));
        assert_eq!(s.overlap(ms(12), ms(20)), SimDuration::ZERO);
        assert_eq!(s.duration(), SimDuration::from_millis(5));
    }
}
