//! Shared by the integration tests: the golden fixtures as a corpus of
//! valid payloads, the decoder each belongs to, and the mutated-valid
//! generator.
#![allow(dead_code)]

use spatl_wire::{
    decode_dense, decode_edge_combined, decode_fixed_dense, decode_masked_upload, decode_pair,
    decode_spatl_update, decode_unmask_request, decode_unmask_shares, open, WireError,
};

/// `(name, bytes)` per line of `golden.hex`, in file order.
pub fn fixtures() -> Vec<(&'static str, Vec<u8>)> {
    include_str!("../golden.hex")
        .lines()
        .map(|line| {
            let (name, hex) = line.split_once(' ').unwrap_or((line, ""));
            (name, unhex(hex))
        })
        .collect()
}

pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

pub fn unhex(s: &str) -> Vec<u8> {
    (0..s.len() / 2)
        .map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).expect("hex digit pair"))
        .collect()
}

/// Run `bytes` through the decoder the fixture `name` was made by.
pub fn decode_as(name: &str, bytes: &[u8]) -> Result<(), WireError> {
    match name {
        // SPATL's download is a dense or pair payload under its own tag.
        "dense" | "dense_empty" | "spatl_encoder" => decode_dense(bytes).map(drop),
        "pair" | "spatl_encoder_control" => decode_pair(bytes).map(drop),
        "spatl_update" => decode_spatl_update(bytes).map(drop),
        "masked_delta_only" | "masked_all_lanes" => decode_masked_upload(bytes).map(drop),
        "fixed" => decode_fixed_dense(bytes).map(drop),
        "unmask_request" => decode_unmask_request(bytes).map(drop),
        "unmask_shares" => decode_unmask_shares(bytes).map(drop),
        "edge_bare" | "edge_frames" => decode_edge_combined(bytes).map(drop),
        "sealed" => open(bytes).map(drop),
        other => panic!("fixture {other} has no decoder listed"),
    }
}

/// One mutation of a valid payload, the generator the property tests and
/// the allocation bound share: `kind` picks among flipping a byte,
/// cutting the tail, overwriting four bytes with `value` (a hostile count
/// or length wherever a `u32` field happens to sit) and appending
/// garbage; `at` places it.
pub fn mutate(valid: &[u8], kind: u8, at: usize, value: u32) -> Vec<u8> {
    let mut out = valid.to_vec();
    match kind % 4 {
        0 if !out.is_empty() => out[at % valid.len()] ^= (value as u8) | 1,
        1 => out.truncate(at % (valid.len() + 1)),
        2 if out.len() >= 4 => {
            let pos = at % (valid.len() - 3);
            out[pos..pos + 4].copy_from_slice(&value.to_le_bytes());
        }
        _ => out.extend(std::iter::repeat_n(value as u8, 1 + at % 8)),
    }
    out
}
