//! Golden byte fixtures for the control-plane frames — the `spatl-net`
//! twin of `crates/wire/tests/golden.rs`. The hex strings are what the
//! encoders produced before the byte layer was unified (PR 16's parent);
//! today's `encode` must reproduce them and today's `decode` must read
//! them back.

use spatl_net::{Hello, HelloRole, Join, RoundAssign, RoundDone, RoundMode};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len() / 2)
        .map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).expect("hex digit pair"))
        .collect()
}

#[test]
fn control_frames_match_the_parent_fixtures() {
    let hello = Hello {
        client_id: 7,
        fingerprint: 0xDEAD_BEEF_CAFE_F00D,
        role: HelloRole::Edge,
    };
    const HELLO: &str = "070000000df0fecaefbeadde01";
    assert_eq!(hex(&hello.encode()), HELLO);
    assert_eq!(Hello::decode(&unhex(HELLO)).unwrap(), hello);

    let join = Join {
        accepted: true,
        round: 0x0102_0304,
    };
    const JOIN: &str = "0104030201";
    assert_eq!(hex(&join.encode()), JOIN);
    assert_eq!(Join::decode(&unhex(JOIN)).unwrap(), join);

    let assign = RoundAssign::new(12, RoundMode::Eval, 2);
    const ASSIGN: &str = "0c0000000102000000";
    assert_eq!(hex(&assign.encode()), ASSIGN);
    assert_eq!(RoundAssign::decode(&unhex(ASSIGN)).unwrap(), assign);

    let done = RoundDone {
        round: 4,
        mode: RoundMode::Train,
        client_id: 3,
        n_samples: 60,
        tau: 8,
        diverged: true,
        keep_ratio: 0.5,
        flops_ratio: 0.75,
        accuracy: 0.25,
        bytes_download: 123_456,
        bytes_upload: 65_432,
        upload_payload: 65_432,
        upload_framed: 65_480,
        n_frames: 2,
    };
    const DONE: &str = "0400000000030000003c000000000000000800000000000000010000003f0000403f0000803e40e201000000000098ff00000000000098ff000000000000c8ff00000000000002000000";
    assert_eq!(hex(&done.encode()), DONE);
    assert_eq!(RoundDone::decode(&unhex(DONE)).unwrap(), done);
}
