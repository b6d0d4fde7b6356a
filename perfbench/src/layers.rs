//! Replays of single layers through their public APIs on the workload's
//! own data: the acker on the job's tuple-tree shape, dynamic grouping on
//! the job's parse output, and the wire codec on the job's batches.  Each
//! replay does a fixed amount of work and reports the median of several
//! repetitions.

use std::hint::black_box;
use std::time::Instant;

use dsdps::acker::ShardedAcker;
use dsdps::dist::codec::{decode_frame, encode_frame, encode_frame_body, Frame, WireTuple};
use dsdps::grouping::dynamic::{DynamicGrouping, DynamicGroupingHandle, SplitRatio};
use dsdps::grouping::Grouping;
use dsdps::topology::TaskId;
use dsdps::tuple::{Tuple, Value};

use crate::outcome::Outcome;
use crate::stats::median;
use crate::wuc::{url_of, Inputs};

const REPS: usize = 5;
/// Tuples per codec batch (the runtime's batch size).
const BATCH: usize = 64;

fn median_of(mut rep: impl FnMut() -> f64) -> f64 {
    let v: Vec<f64> = (0..REPS).map(|_| rep()).collect();
    median(&v)
}

/// Tracks, extends, and acks `trees` trees shaped like the job's
/// (spout → parse → count): ns per tree.
fn acker_cycle_ns(trees: u64) -> f64 {
    median_of(|| {
        let acker = ShardedAcker::new(8);
        let t0 = Instant::now();
        let mut done = 0usize;
        for i in 0..trees {
            let root = i + 1;
            let e0 = acker.new_edge_id();
            acker.track(root, e0, TaskId(0), i, 0.0);
            let e1 = acker.new_edge_id();
            acker.on_emit(root, e1);
            acker.on_ack(root, e0, 0.0);
            acker.on_ack(root, e1, 0.0);
            if i % 1024 == 1023 {
                done += acker.drain_outcomes().len();
            }
        }
        done += acker.drain_outcomes().len();
        let ns = t0.elapsed().as_nanos() as f64 / trees as f64;
        assert_eq!(done as u64, trees, "every replayed tree completes");
        ns
    })
}

/// Dynamic-grouping selections over the job's parse output: ns per tuple.
fn dynamic_grouping_ns(inputs: &Inputs, fan_out: usize, n: usize) -> f64 {
    let tuples: Vec<Tuple> = (0..4096u64)
        .map(|seq| {
            Tuple::of([
                Value::from(url_of(inputs.line(seq))),
                Value::from(seq as i64),
            ])
        })
        .collect();
    median_of(|| {
        let mut g = DynamicGrouping::new(DynamicGroupingHandle::new(SplitRatio::uniform(fan_out)));
        let mut out = Vec::with_capacity(4);
        let mut acc = 0usize;
        let t0 = Instant::now();
        for i in 0..n {
            out.clear();
            g.select(black_box(&tuples[i % tuples.len()]), &mut out);
            acc += out[0];
        }
        black_box(acc);
        t0.elapsed().as_nanos() as f64 / n as f64
    })
}

/// The job's source → parse deliveries as wire batches.
fn batches(inputs: &Inputs, n: usize) -> Vec<Frame> {
    (0..n as u64)
        .map(|b| Frame::TupleBatch {
            items: (0..BATCH as u64)
                .map(|i| {
                    let seq = b * BATCH as u64 + i;
                    WireTuple {
                        token: seq,
                        dest_task: 1 + (seq % 2) as u32,
                        stream: 0,
                        dedup: Some(seq + 1),
                        trace_root: None,
                        values: vec![
                            Value::Str(inputs.line(seq).clone()),
                            Value::from(seq as i64),
                        ],
                    }
                })
                .collect(),
        })
        .collect()
}

/// Codec encode and decode ns per tuple, and encoded bytes per tuple.
fn codec(inputs: &Inputs, n_batches: usize) -> (f64, f64, f64) {
    let frames = batches(inputs, n_batches);
    let tuples = (n_batches * BATCH) as f64;
    let mut buf = Vec::with_capacity(1 << 16);
    let mut bytes = 0usize;
    let encode = median_of(|| {
        bytes = 0;
        let t0 = Instant::now();
        for f in &frames {
            buf.clear();
            encode_frame(black_box(f), &mut buf);
            bytes += buf.len();
        }
        t0.elapsed().as_nanos() as f64 / tuples
    });
    let bodies: Vec<Vec<u8>> = frames
        .iter()
        .map(|f| {
            let mut b = Vec::new();
            encode_frame_body(f, &mut b);
            b
        })
        .collect();
    let decode = median_of(|| {
        let t0 = Instant::now();
        for b in &bodies {
            let frame = decode_frame(black_box(b)).expect("replayed frame decodes");
            black_box(frame);
        }
        t0.elapsed().as_nanos() as f64 / tuples
    });
    (encode, decode, bytes as f64 / tuples)
}

/// Runs every replay and adds its metrics to `out`.
pub fn replay_into(out: &mut Outcome, inputs: &Inputs, count_tasks: usize) {
    out.metric("acker.cycle_ns", acker_cycle_ns(100_000), "ns", None);
    out.metric(
        "grouping.dynamic_ns",
        dynamic_grouping_ns(inputs, count_tasks, 500_000),
        "ns",
        None,
    );
    let (enc, dec, bytes) = codec(inputs, 1000);
    out.metric("codec.encode_ns_per_tuple", enc, "ns", None);
    out.metric("codec.decode_ns_per_tuple", dec, "ns", None);
    out.metric("codec.bytes_per_tuple", bytes, "B", None);
}
