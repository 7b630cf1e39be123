//! Golden byte fixtures for every payload codec and frame.
//!
//! Round-trip tests cannot see a layout change made on both sides of a
//! codec at once; these can. `golden.hex` holds, per case, the bytes the
//! encoders produced at the commit *before* the byte layer was unified
//! (PR 16's parent). Today's encoders must reproduce them exactly and
//! today's decoders must read them back to the value they came from.
//!
//! A deliberate format change regenerates the file at the commit whose
//! layout is the reference:
//! `cargo test -p spatl-wire --test golden -- --ignored --nocapture regenerate`.

mod common;

use std::fmt::Debug;

use spatl_privacy::{MaskedCounts, MaskedUpload, MaskedVector, UnmaskShare};
use spatl_wire::{
    decode_dense, decode_edge_combined, decode_fixed_dense, decode_masked_upload, decode_pair,
    decode_spatl_update, decode_unmask_request, decode_unmask_shares, encode_dense,
    encode_edge_combined, encode_fixed_dense, encode_masked_upload, encode_pair,
    encode_spatl_update, encode_unmask_request, encode_unmask_shares, open, seal, EdgeCombined,
    EdgeEntry, MsgType, Pair, SpatlUpdate, TierFaultCounters, WireError,
};

/// One case: what today's encoder emits for a fixed value, and whether
/// the parent's fixture of the same name decodes back to that value.
struct Case {
    name: &'static str,
    encoded: Vec<u8>,
    fixture_decodes_back: bool,
}

/// The case list under construction, next to the fixtures it is checked
/// against.
struct Golden {
    fixtures: Vec<(&'static str, Vec<u8>)>,
    cases: Vec<Case>,
}

impl Golden {
    fn case<T: PartialEq + Debug>(
        &mut self,
        name: &'static str,
        value: T,
        encode: impl Fn(&T) -> Vec<u8>,
        decode: impl Fn(&[u8]) -> Result<T, WireError>,
    ) {
        let fixture = self.fixtures.iter().find(|(n, _)| *n == name);
        self.cases.push(Case {
            name,
            encoded: encode(&value),
            fixture_decodes_back: fixture.is_some_and(|(_, b)| decode(b).as_ref() == Ok(&value)),
        });
    }
}

fn masked(n: usize, secondary: bool, counts: bool, buffers: usize) -> MaskedUpload {
    let mut up = MaskedUpload {
        delta: MaskedVector::zeros(n),
        secondary: secondary.then(|| MaskedVector::zeros(n)),
        counts: counts.then(|| MaskedCounts::zeros(n)),
        buffers: (buffers > 0).then(|| MaskedVector::zeros(buffers)),
    };
    for j in 0..n {
        up.delta
            .accumulate(j, (j as f32 + 1.0) * 0.37, 3, j % 2 == 1);
        if let Some(sec) = &mut up.secondary {
            sec.accumulate(j, -0.5 * j as f32, 2, false);
        }
        if let Some(c) = &mut up.counts {
            c.bump(j);
            if j % 2 == 0 {
                c.bump(j);
            }
        }
    }
    if let Some(b) = &mut up.buffers {
        for j in 0..buffers {
            b.accumulate(j, 1.5 + j as f32, 1, false);
        }
    }
    up
}

fn entry(client_id: u32, frames: Vec<Vec<u8>>) -> EdgeEntry {
    EdgeEntry {
        client_id,
        n_samples: 18 + u64::from(client_id),
        tau: 3,
        diverged: client_id % 2 == 1,
        keep_ratio: 0.5,
        flops_ratio: 0.75,
        accuracy: 0.25,
        bytes_download: 0x0102_0304_0506,
        bytes_upload: 50,
        upload_payload: 48,
        upload_framed: 64,
        frames,
    }
}

fn edge(entries: Vec<EdgeEntry>) -> EdgeCombined {
    EdgeCombined {
        edge_id: 1,
        round: 7,
        faults: TierFaultCounters {
            sampled: 1,
            dropouts: 2,
            stragglers: 3,
            deadline_dropped: 4,
            corrupted_uploads: 5,
            retries: 6,
            retry_exhausted: 7,
            local_divergence: 8,
            byzantine: 9,
            quarantined: 10,
            duplicates: 11,
        },
        entries,
    }
}

fn cases() -> Golden {
    let xs = vec![1.0f32, -2.5, 0.0, f32::MIN_POSITIVE, 1e30];
    let ys = vec![-1.0f32, 0.5, 3.25, -0.0, 7.0];
    let dense_frame = seal(MsgType::DenseUpdate, &encode_dense(&xs));
    let mut g = Golden {
        fixtures: common::fixtures(),
        cases: Vec::new(),
    };
    g.case("dense", xs.clone(), |v| encode_dense(v), decode_dense);
    g.case("dense_empty", Vec::new(), |v| encode_dense(v), decode_dense);
    g.case(
        "pair",
        Pair {
            primary: xs.clone(),
            secondary: ys.clone(),
        },
        |p| encode_pair(&p.primary, &p.secondary),
        decode_pair,
    );
    // SPATL's download: a dense or pair payload under its own tag.
    g.case(
        "spatl_encoder",
        xs.clone(),
        |v| encode_dense(v),
        decode_dense,
    );
    g.case(
        "spatl_encoder_control",
        Pair {
            primary: xs.clone(),
            secondary: ys.clone(),
        },
        |p| encode_pair(&p.primary, &p.secondary),
        decode_pair,
    );
    g.case(
        "spatl_update",
        SpatlUpdate {
            channels: vec![0, 3, 17, 70_000],
            values: ys.clone(),
        },
        |u| encode_spatl_update(&u.channels, &u.values),
        decode_spatl_update,
    );
    g.case(
        "masked_delta_only",
        masked(2, false, false, 0),
        encode_masked_upload,
        decode_masked_upload,
    );
    g.case(
        "masked_all_lanes",
        masked(3, true, true, 2),
        encode_masked_upload,
        decode_masked_upload,
    );
    g.case(
        "fixed",
        vec![0i32, -1, i32::MAX, i32::MIN, 12345],
        |q| encode_fixed_dense(q),
        decode_fixed_dense,
    );
    g.case(
        "unmask_request",
        (7u64, vec![2u32, 9, 400]),
        |(round, dropped)| encode_unmask_request(*round, dropped),
        decode_unmask_request,
    );
    g.case(
        "unmask_shares",
        (
            7u64,
            vec![
                UnmaskShare {
                    dropped: 2,
                    survivor: 4,
                    pair_base: 0xDEAD_BEEF_CAFE_F00D,
                },
                UnmaskShare {
                    dropped: 9,
                    survivor: 4,
                    pair_base: 42,
                },
            ],
        ),
        |(round, shares)| encode_unmask_shares(*round, shares),
        decode_unmask_shares,
    );
    g.case(
        "edge_bare",
        edge(Vec::new()),
        encode_edge_combined,
        decode_edge_combined,
    );
    g.case(
        "edge_frames",
        edge(vec![
            entry(2, vec![dense_frame.clone(), Vec::new()]),
            entry(3, Vec::new()),
        ]),
        encode_edge_combined,
        decode_edge_combined,
    );
    g.case(
        "sealed",
        (MsgType::DenseUpdate, encode_dense(&xs)),
        |(msg, payload)| seal(*msg, payload),
        |b| open(b).map(|(msg, payload)| (msg, payload.to_vec())),
    );
    g
}

#[test]
fn encoders_reproduce_and_decoders_read_the_parent_fixtures() {
    let g = cases();
    assert_eq!(
        g.fixtures.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
        g.cases.iter().map(|c| c.name).collect::<Vec<_>>(),
        "golden.hex and cases() must list the same fixtures in the same order"
    );
    for (c, (_, fixture)) in g.cases.iter().zip(&g.fixtures) {
        assert_eq!(
            common::hex(&c.encoded),
            common::hex(fixture),
            "{}: encoder output moved",
            c.name
        );
        assert!(
            c.fixture_decodes_back,
            "{}: the fixture no longer decodes to its value",
            c.name
        );
    }
}

#[test]
#[ignore = "prints golden.hex; run only at the commit whose layout is the reference"]
fn regenerate() {
    for c in cases().cases {
        println!("{} {}", c.name, common::hex(&c.encoded));
    }
}

/// The `edge_reduced` fixture's bytes: an `EdgeCombined` whose reserved
/// byte flags a pre-reduced robust summary, as edges once sent. Today's
/// decoder must refuse it rather than read past the flag.
const PRE_REDUCED_EDGE: &str = concat!(
    "0100000007000000010000000200000003000000040000000500000006000000",
    "0700000008000000090000000a0000000b000000010000000500000017000000",
    "000000000300000000000000010000003f0000403f0000803e06050403020100",
    "0032000000000000003000000000000000400000000000000000000000010200",
    "0000240000000000000000006040020000000000803e000080bf010000000000",
    "003e00000000030000000000803f000000400000404000",
);

#[test]
fn a_pre_reduced_edge_frame_is_refused_as_malformed() {
    let bytes = common::unhex(PRE_REDUCED_EDGE);
    assert!(matches!(
        decode_edge_combined(&bytes),
        Err(WireError::Malformed(_))
    ));
}
