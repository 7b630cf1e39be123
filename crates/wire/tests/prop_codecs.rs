//! Property-based round-trip tests for every payload codec, plus envelope
//! corruption properties: a flipped byte fails the CRC, a bumped version
//! byte yields `WireError::Version`, and no malformed input — arbitrary
//! bytes, or a valid payload with one mutation — ever panics.

mod common;

use proptest::prelude::*;
use spatl_privacy::{dequantize, quantize, quantized_l2, MaskedCounts, MaskedUpload, MaskedVector};
use spatl_wire::{
    decode_dense, decode_fixed_dense, decode_masked_upload, decode_pair, decode_spatl_update,
    decode_unmask_request, decode_unmask_shares, encode_dense, encode_fixed_dense,
    encode_masked_upload, encode_pair, encode_spatl_update, open, seal, MsgType, WireError,
    HEADER_LEN,
};

fn tensor() -> impl Strategy<Value = Vec<f32>> {
    // Includes the empty and length-1 tensors the codecs must handle.
    prop::collection::vec(-1.0e3f32..1.0e3, 0..65)
}

fn nonempty_tensor() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-1.0e3f32..1.0e3, 1..65)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dense_roundtrip(v in tensor()) {
        let frame = seal(MsgType::DenseUpdate, &encode_dense(&v));
        let (msg, payload) = open(&frame).unwrap();
        prop_assert_eq!(msg, MsgType::DenseUpdate);
        prop_assert_eq!(decode_dense(payload).unwrap(), v);
    }

    #[test]
    fn pair_roundtrip(a in tensor()) {
        let b: Vec<f32> = a.iter().map(|x| -x * 0.5).collect();
        let frame = seal(MsgType::ScaffoldUpdate, &encode_pair(&a, &b));
        let (_, payload) = open(&frame).unwrap();
        let pair = decode_pair(payload).unwrap();
        prop_assert_eq!(pair.primary, a);
        prop_assert_eq!(pair.secondary, b);
    }

    #[test]
    fn spatl_update_roundtrip(values in tensor(), stride in 1u32..5) {
        // Strictly increasing channel ids, decoupled from the value count.
        let channels: Vec<u32> = (0..values.len() as u32 / 2).map(|i| i * stride).collect();
        let body = encode_spatl_update(&channels, &values);
        let update = decode_spatl_update(&body).unwrap();
        prop_assert_eq!(update.channels, channels);
        prop_assert_eq!(update.values, values);
    }

    #[test]
    fn flipped_byte_fails_crc(v in nonempty_tensor(), pos_seed in 0usize..1000, bit in 0u8..8) {
        let mut frame = seal(MsgType::DenseModel, &encode_dense(&v));
        // Corrupt one payload byte (headers have their own checks).
        let pos = HEADER_LEN + pos_seed % (frame.len() - HEADER_LEN);
        frame[pos] ^= 1 << bit;
        prop_assert!(matches!(open(&frame), Err(WireError::Crc { .. })));
    }

    #[test]
    fn bumped_version_is_version_error_not_panic(v in tensor()) {
        let mut frame = seal(MsgType::DenseModel, &encode_dense(&v));
        frame[4] = frame[4].wrapping_add(1);
        prop_assert!(matches!(open(&frame), Err(WireError::Version { .. })));
    }

    #[test]
    fn truncation_never_panics(v in tensor(), cut_seed in 0usize..1000) {
        let frame = seal(MsgType::DenseUpdate, &encode_dense(&v));
        let cut = cut_seed % frame.len();
        // Any prefix is an error, never a panic.
        prop_assert!(open(&frame[..cut]).is_err());
    }

    #[test]
    fn arbitrary_bytes_never_panic_any_decoder(bytes in prop::collection::vec(0u8..255, 0..96)) {
        // Decoders must reject garbage gracefully, whatever the content.
        let _ = open(&bytes);
        let _ = decode_dense(&bytes);
        let _ = decode_pair(&bytes);
        let _ = decode_spatl_update(&bytes);
        let _ = decode_fixed_dense(&bytes);
        let _ = decode_masked_upload(&bytes);
        let _ = decode_unmask_request(&bytes);
        let _ = decode_unmask_shares(&bytes);
    }

    #[test]
    fn mutated_valid_payloads_never_panic_and_trailing_bytes_are_malformed(
        which in 0usize..16,
        kind in 0u8..4,
        at in 0usize..4096,
        value in prop_oneof![Just(u32::MAX), Just(0u32), 0u32..u32::MAX, 0u32..64],
    ) {
        let fixtures = common::fixtures();
        let (name, valid) = &fixtures[which % fixtures.len()];
        let input = common::mutate(valid, kind, at, value);
        // Whatever one mutation did, no decoder panics on it — its own
        // or any other a confused peer might route it to.
        for (other, _) in &fixtures {
            let _ = common::decode_as(other, &input);
        }
        // Bytes appended to a payload whose layout says where it ends
        // are a structure error from the sender, not transport damage:
        // the envelope's CRC already vouched for them.
        let ends_itself = name.starts_with("edge")
            || name.starts_with("masked")
            || name.starts_with("unmask");
        if kind % 4 == 3 && ends_itself {
            let err = common::decode_as(name, &input).unwrap_err();
            prop_assert!(!err.is_transport_corruption(), "{}: {:?}", name, err);
        }
    }

    #[test]
    fn fixed_point_roundtrip_is_byte_parallel_and_bounded(
        v in nonempty_tensor(),
        // ≤ 20 fractional bits keeps the tensor() value range (±1e3) off
        // the i32 saturation rail, so the norm comparison is exact.
        frac_bits in 8u8..21,
    ) {
        // Quantize → encode → decode → dequantize: byte count matches the
        // clear dense layout, per-coordinate error stays within half an
        // LSB, and the quantized L2 tracks the real norm.
        let q: Vec<i32> = v.iter().map(|&x| quantize(x, frac_bits)).collect();
        let payload = encode_fixed_dense(&q);
        prop_assert_eq!(payload.len(), 4 * v.len());
        let back = decode_fixed_dense(&payload).unwrap();
        prop_assert_eq!(&back, &q);
        let lsb = 1.0 / (1u64 << frac_bits) as f64;
        for (&x, &qi) in v.iter().zip(&back) {
            let deq = dequantize(qi, frac_bits) as f64;
            // Saturation only kicks in outside the tensor() value range
            // for frac_bits ≤ 20; above that, allow the clamp.
            if (x.abs() as f64) * (1u64 << frac_bits) as f64 <= i32::MAX as f64 {
                prop_assert!((deq - x as f64).abs() <= lsb / 2.0 + 1e-9, "{} -> {}", x, deq);
            }
        }
        let real = v.iter().map(|&x| (x as f64).powi(2)).sum::<f64>().sqrt();
        let q_norm = quantized_l2(&q, frac_bits);
        prop_assert!((q_norm - real).abs() <= lsb * (v.len() as f64).sqrt() + 1e-6);
    }

    #[test]
    fn fixed_l2_bound_check_rejects_out_of_ball_vectors(
        v in nonempty_tensor(),
        bound in 0.5f64..50.0,
    ) {
        // The server-side acceptance predicate: the dequantized norm
        // against the session bound. Quantization must not smuggle a
        // vector across the boundary by more than one LSB per coordinate.
        let fb = 16u8;
        let q: Vec<i32> = v.iter().map(|&x| quantize(x, fb)).collect();
        let real = v.iter().map(|&x| (x as f64).powi(2)).sum::<f64>().sqrt();
        let slack = (v.len() as f64).sqrt() / (1u64 << fb) as f64;
        let inside = quantized_l2(&q, fb) <= bound;
        if real > bound + slack {
            prop_assert!(!inside, "norm {} leaked inside bound {}", real, bound);
        }
        if real <= bound - slack {
            prop_assert!(inside, "norm {} pushed outside bound {}", real, bound);
        }
    }

    #[test]
    fn masked_upload_roundtrip(
        v in nonempty_tensor(),
        has_secondary in 0u8..2,
        has_counts in 0u8..2,
        buf_len in 0usize..5,
        w in 1u64..1000,
    ) {
        let (has_secondary, has_counts) = (has_secondary == 1, has_counts == 1);
        let n = v.len();
        let mut up = MaskedUpload {
            delta: MaskedVector::zeros(n),
            secondary: has_secondary.then(|| MaskedVector::zeros(n)),
            counts: has_counts.then(|| MaskedCounts::zeros(n)),
            buffers: (buf_len > 0).then(|| MaskedVector::zeros(buf_len)),
        };
        for (j, &x) in v.iter().enumerate() {
            up.delta.accumulate(j, x, w, false);
            if let Some(sec) = &mut up.secondary {
                sec.accumulate(j, -x, 1, j % 2 == 1);
            }
            if let Some(c) = &mut up.counts {
                if x > 0.0 {
                    c.bump(j);
                }
            }
        }
        if let Some(b) = &mut up.buffers {
            for j in 0..buf_len {
                b.accumulate(j, v[j % n], 2, false);
            }
        }
        let frame = seal(MsgType::MaskedUpload, &encode_masked_upload(&up));
        let (msg, payload) = open(&frame).unwrap();
        prop_assert_eq!(msg, MsgType::MaskedUpload);
        prop_assert_eq!(decode_masked_upload(payload).unwrap(), up);
    }

    #[test]
    fn ragged_dense_and_pair_payloads_are_malformed(v in tensor(), extra in 1usize..4) {
        // Whole f32s or nothing: a payload with 1–3 stray bytes is a
        // structure error from the sender, whatever precedes them.
        let mut raw = encode_dense(&v);
        raw.extend(std::iter::repeat_n(0x5A, extra));
        prop_assert!(matches!(decode_dense(&raw), Err(WireError::Malformed(_))));
        prop_assert!(matches!(decode_pair(&raw), Err(WireError::Malformed(_))));
    }

    #[test]
    fn spatl_update_with_a_repeated_channel_is_malformed(
        values in tensor(),
        first in 0u32..1000,
        gap in 1u32..8,
    ) {
        // Sorted but not strictly: the repeated id would expand to the
        // same indices twice.
        let channels = [first, first + gap, first + gap];
        let mut raw = Vec::new();
        spatl_wire::bytes::put_counted_u32s(&mut raw, &channels);
        spatl_wire::bytes::put_f32s(&mut raw, &values);
        prop_assert!(matches!(decode_spatl_update(&raw), Err(WireError::Malformed(_))));
    }

    #[test]
    fn spatl_update_size_is_metadata_plus_four_bytes_per_item(
        values in tensor(),
        n_channels in 0u32..32,
    ) {
        let channels: Vec<u32> = (0..n_channels).map(|c| 3 * c).collect();
        let payload = encode_spatl_update(&channels, &values);
        prop_assert_eq!(
            payload.len(),
            spatl_wire::SPATL_UPDATE_METADATA + 4 * channels.len() + 4 * values.len()
        );
    }
}
