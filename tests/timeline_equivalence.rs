//! The serial-stream [`Timeline`] against the flat timeline it replaced.
//!
//! `Flat` keeps every span in one list, in completion order, and
//! answers through the union merge `busy_time_in`, as the timeline did
//! before it stored one serial list per stream. Built from an executed
//! step's graph and op windows alone, it must agree with the step's
//! lowered timeline (`ExecResult::timeline`) bit for bit (utilization, pipelining efficiency) and string
//! for string (ASCII renderings), for every training scheme at several
//! shapes. The hand-computed cases of the flat queries the serial
//! timeline no longer has are pinned here, on the flat timeline and,
//! where a serial stream can express them, on the new one.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use lina::baselines::TrainScheme;
use lina::model::{BatchShape, CommClass, CostModel, DeviceSpec, MoeModelConfig, OpKind};
use lina::netsim::{ClusterSpec, CollectiveSpec, Topology};
use lina::runner::train::{run_train_step, StepRun};
use lina::simcore::{Lane, SimDuration, SimTime, SpanKind, StreamId, Timeline};

/// One span of the flat timeline: it names its own stream.
#[derive(Clone, Debug)]
struct FlatSpan {
    stream: StreamId,
    kind: SpanKind,
    start: SimTime,
    end: SimTime,
}

impl FlatSpan {
    fn duration(&self) -> SimDuration {
        self.end - self.start
    }

    fn overlap(&self, lo: SimTime, hi: SimTime) -> SimDuration {
        self.end.min(hi).saturating_since(self.start.max(lo))
    }
}

/// The flat timeline and its generic queries.
#[derive(Default)]
struct Flat {
    spans: Vec<FlatSpan>,
}

impl Flat {
    fn record(&mut self, device: u32, lane: Lane, kind: SpanKind, start: SimTime, end: SimTime) {
        let stream = StreamId { device, lane };
        self.spans.push(FlatSpan {
            stream,
            kind,
            start,
            end,
        });
    }

    /// The spans of an executed step, in the order its ops completed.
    fn of(run: &StepRun) -> Flat {
        let mut flat = Flat::default();
        for (op, window) in run.graph.ops().iter().zip(&run.exec.op_windows) {
            let (start, end) = window.expect("every op ran");
            match &op.kind {
                OpKind::Compute { device, span, .. } => {
                    flat.record(device.0, Lane::Compute, *span, start, end)
                }
                OpKind::Comm { spec, .. } => {
                    let (lane, kind) = match op.comm_class() {
                        Some(CommClass::AllToAll) => (Lane::AllToAll, SpanKind::AllToAll),
                        _ => (Lane::Allreduce, SpanKind::Allreduce),
                    };
                    let (CollectiveSpec::AllToAll { participants, .. }
                    | CollectiveSpec::AllReduce { participants, .. }) = spec;
                    for d in participants {
                        flat.record(d.0, lane, kind, start, end);
                    }
                }
            }
        }
        flat.spans.sort_by_key(|s| s.end);
        flat
    }

    fn horizon(&self) -> SimTime {
        self.spans
            .iter()
            .map(|s| s.end)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Union busy time of the selected spans within `[lo, hi)`.
    fn busy_time_in(
        &self,
        lo: SimTime,
        hi: SimTime,
        pred: impl Fn(&FlatSpan) -> bool,
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
                Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
                Some((cs, ce)) => {
                    total += ce - cs;
                    cur = Some((s, e));
                }
                None => cur = Some((s, e)),
            }
        }
        if let Some((cs, ce)) = cur {
            total += ce - cs;
        }
        total
    }

    fn utilization(&self, stream: StreamId, lo: SimTime, hi: SimTime) -> f64 {
        let window = hi.saturating_since(lo);
        if window == SimDuration::ZERO {
            return 0.0;
        }
        self.busy_time_in(lo, hi, |s| s.stream == stream)
            .ratio(window)
    }

    fn mean_compute_utilization(&self, devices: u32) -> f64 {
        let hi = self.horizon();
        if hi == SimTime::ZERO || devices == 0 {
            return 0.0;
        }
        let mut total = 0.0;
        for device in 0..devices {
            let stream = StreamId {
                device,
                lane: Lane::Compute,
            };
            total += self.utilization(stream, SimTime::ZERO, hi);
        }
        total / devices as f64
    }

    fn pipelining_efficiency(&self, comm_kind: SpanKind) -> f64 {
        let mut comm_total = SimDuration::ZERO;
        let mut overlap_total = SimDuration::ZERO;
        for comm in self.spans.iter().filter(|s| s.kind == comm_kind) {
            comm_total += comm.duration();
            let compute = StreamId {
                device: comm.stream.device,
                lane: Lane::Compute,
            };
            overlap_total += self.busy_time_in(comm.start, comm.end, |s| s.stream == compute);
        }
        overlap_total.ratio(comm_total)
    }

    fn render_ascii(&self, lo: SimTime, hi: SimTime, width: usize) -> String {
        let window = hi.saturating_since(lo);
        if window == SimDuration::ZERO || width == 0 {
            return String::new();
        }
        let mut streams: BTreeMap<StreamId, Vec<&FlatSpan>> = BTreeMap::new();
        for s in &self.spans {
            if s.overlap(lo, hi) > SimDuration::ZERO {
                streams.entry(s.stream).or_default().push(s);
            }
        }
        let mut out = String::new();
        let per_column = SimDuration::from_nanos(window.as_nanos() / width as u64);
        let _ = writeln!(out, "timeline [{lo} .. {hi}] ({per_column} per column)");
        let column = |t: SimTime| {
            ((t - lo).as_nanos() as u128 * width as u128 / window.as_nanos() as u128) as usize
        };
        for (stream, spans) in &streams {
            let mut row = vec![' '; width];
            for s in spans {
                let sc = column(s.start.max(lo));
                let ec = column(s.end.min(hi)).max(sc + 1).min(width);
                for c in row.iter_mut().take(ec).skip(sc) {
                    *c = s.kind.glyph();
                }
            }
            let row: String = row.into_iter().collect();
            let _ = writeln!(
                out,
                "dev{:>2} {} |{row}|",
                stream.device,
                stream.lane.label()
            );
        }
        out
    }

    /// Each stream's `(kind, start, end)` list, in record order.
    fn streams(&self) -> BTreeMap<StreamId, Vec<(SpanKind, SimTime, SimTime)>> {
        let mut streams: BTreeMap<_, Vec<_>> = BTreeMap::new();
        for s in &self.spans {
            streams
                .entry(s.stream)
                .or_default()
                .push((s.kind, s.start, s.end));
        }
        streams
    }
}

/// The serial timeline's streams, in the shape of [`Flat::streams`].
fn streams(t: &Timeline) -> BTreeMap<StreamId, Vec<(SpanKind, SimTime, SimTime)>> {
    t.streams()
        .map(|(id, spans)| (id, spans.iter().map(|s| (s.kind, s.start, s.end)).collect()))
        .collect()
}

fn schemes(gpus: usize) -> [TrainScheme; 7] {
    [
        TrainScheme::Baseline,
        TrainScheme::Tutel,
        TrainScheme::Fixed,
        TrainScheme::PriorityOnly,
        TrainScheme::PriorityPartition,
        TrainScheme::LinaNoPack,
        TrainScheme::Lina {
            experts_per_device: 4.min(gpus),
        },
    ]
}

/// Runs every scheme at one shape and checks the step's timeline
/// against the flat timeline built from its op windows.
fn check_shape(model: MoeModelConfig, seqs_per_device: usize) {
    let gpus = model.experts;
    let topo = Topology::new(ClusterSpec::with_total_gpus(gpus));
    let batch = BatchShape {
        seqs_per_device,
        seq_len: model.seq_len,
    };
    let cost = CostModel::new(DeviceSpec::a100(), model);
    for scheme in schemes(gpus) {
        let tag = format!(
            "{} {gpus} GPUs {seqs_per_device} seqs {}",
            cost.model.name,
            scheme.name()
        );
        let run = run_train_step(&cost, &topo, batch, scheme, 1);
        let flat = Flat::of(&run);
        let t = &run.exec.timeline(&run.graph);
        assert_eq!(streams(t), flat.streams(), "{tag}: streams");
        assert_eq!(t.horizon(), flat.horizon(), "{tag}: horizon");
        let eff = t.pipelining_efficiency();
        assert_eq!(
            eff.to_bits(),
            flat.pipelining_efficiency(SpanKind::AllToAll).to_bits(),
            "{tag}: pipelining efficiency {eff}"
        );
        assert_eq!(
            eff.to_bits(),
            run.metrics.pipelining_efficiency.to_bits(),
            "{tag}"
        );
        let util = t.mean_compute_utilization(gpus as u32);
        assert_eq!(
            util.to_bits(),
            flat.mean_compute_utilization(gpus as u32).to_bits(),
            "{tag}: utilization {util}"
        );
        assert_eq!(util.to_bits(), run.metrics.compute_util.to_bits(), "{tag}");

        // Windows: the whole step, a slice of it, the first backward
        // all-to-all padded as Figs 5 and 8 draw it, one running past
        // the end, and two degenerate ones.
        let h = flat.horizon();
        let at =
            |num: u64, den: u64| SimTime::ZERO + SimDuration::from_nanos(h.as_nanos() / den * num);
        let mut windows = vec![
            (SimTime::ZERO, h, 100),
            (at(1, 3), at(1, 2), 110),
            (at(9, 10), at(11, 10), 37),
            (at(1, 2), at(1, 2), 50),
            (SimTime::ZERO, h, 0),
        ];
        let a2a = run
            .graph
            .ops()
            .iter()
            .position(|op| op.backward && op.comm_class() == Some(CommClass::AllToAll));
        if let Some(i) = a2a {
            let (s, e) = run.exec.op_windows[i].expect("every op ran");
            let pad = SimDuration::from_nanos((e - s).as_nanos() / 4);
            let lo = if s.saturating_since(SimTime::ZERO) > pad {
                s - pad
            } else {
                SimTime::ZERO
            };
            windows.push((lo, e + pad, 110));
            windows.push((s, e, 110));
        }
        for (lo, hi, width) in windows {
            assert_eq!(
                t.render_ascii(lo, hi, width),
                flat.render_ascii(lo, hi, width),
                "{tag}: render [{lo} .. {hi}] x {width}"
            );
        }
    }
}

#[test]
fn txl24_on_16_gpus_at_64_seqs_matches_the_flat_timeline() {
    check_shape(MoeModelConfig::transformer_xl(24, 16), 64);
}

#[test]
fn bert2gpt2_on_2_gpus_at_2_seqs_matches_the_flat_timeline() {
    check_shape(MoeModelConfig::bert2gpt2(2), 2);
}

#[test]
fn bert2gpt2_on_16_gpus_at_2_seqs_matches_the_flat_timeline() {
    check_shape(MoeModelConfig::bert2gpt2(16), 2);
}

#[test]
fn txl24_on_2_gpus_at_64_seqs_matches_the_flat_timeline() {
    check_shape(MoeModelConfig::transformer_xl(24, 2), 64);
}

fn ms(v: u64) -> SimTime {
    SimTime::from_millis(v)
}

fn compute(device: u32) -> StreamId {
    StreamId {
        device,
        lane: Lane::Compute,
    }
}

#[test]
fn busy_time_merges_overlaps() {
    // Two overlapping spans on one stream: a case the flat timeline
    // merged and the serial one refuses to record.
    let mut f = Flat::default();
    f.record(0, Lane::Compute, SpanKind::Attention, ms(0), ms(10));
    f.record(0, Lane::Compute, SpanKind::Gate, ms(5), ms(12));
    f.record(0, Lane::Compute, SpanKind::Combine, ms(20), ms(25));
    let busy = f.busy_time_in(ms(0), ms(30), |s| s.stream == compute(0));
    assert_eq!(busy, SimDuration::from_millis(17));
}

#[test]
fn busy_time_respects_window() {
    let mut f = Flat::default();
    let mut t = Timeline::new();
    f.record(0, Lane::Compute, SpanKind::Attention, ms(0), ms(10));
    t.record(0, SpanKind::Attention, ms(0), ms(10));
    assert_eq!(
        f.busy_time_in(ms(4), ms(6), |_| true),
        SimDuration::from_millis(2)
    );
    // The serial timeline clips compute to an all-to-all's window.
    f.record(0, Lane::AllToAll, SpanKind::AllToAll, ms(4), ms(6));
    t.record(0, SpanKind::AllToAll, ms(4), ms(6));
    assert_eq!(f.pipelining_efficiency(SpanKind::AllToAll), 1.0);
    assert_eq!(t.pipelining_efficiency(), 1.0);
}

#[test]
fn utilization_fraction() {
    let mut f = Flat::default();
    let mut t = Timeline::new();
    f.record(0, Lane::Compute, SpanKind::Attention, ms(0), ms(5));
    t.record(0, SpanKind::Attention, ms(0), ms(5));
    assert!((f.utilization(compute(0), ms(0), ms(10)) - 0.5).abs() < 1e-9);
    assert_eq!(f.utilization(compute(0), ms(0), ms(0)), 0.0);
    // Over the whole timeline, once something else runs to 10 ms.
    f.record(0, Lane::AllToAll, SpanKind::AllToAll, ms(5), ms(10));
    t.record(0, SpanKind::AllToAll, ms(5), ms(10));
    assert_eq!(f.mean_compute_utilization(1), 0.5);
    assert_eq!(t.mean_compute_utilization(1), 0.5);
}
