//! The error taxonomy (E21 satellite): every error the durable-state
//! stack can produce — replay ([`ReplayError`]), wire ([`WireError`]),
//! replication ([`ReplError`]) and tape backup ([`BackupError`]) — is a
//! real `std::error::Error` with a distinct, human-readable rendering.
//! The renderings must stay pairwise distinct *within* each taxonomy
//! so an operator reading a log line can tell the failure classes
//! apart, and the wrapping errors must chain their `source()`.

use std::error::Error;

use mks_kernel::backup::BackupError;
use mks_kernel::replicate::ReplError;
use mks_kernel::statemachine::{ReplayError, WireError};

fn assert_taxonomy(name: &str, errors: &[&dyn Error]) {
    let mut seen: Vec<String> = Vec::new();
    for e in errors {
        let msg = e.to_string();
        assert!(!msg.is_empty(), "{name}: empty rendering");
        assert!(
            !msg.contains("{"),
            "{name}: unformatted placeholder in {msg:?}"
        );
        assert!(
            !seen.contains(&msg),
            "{name}: duplicate rendering {msg:?} — variants must be tellable apart"
        );
        seen.push(msg);
    }
}

#[test]
fn replay_errors_render_distinctly() {
    let errors: Vec<ReplayError> = vec![
        ReplayError::Truncated {
            expected: 9,
            found: 3,
        },
        ReplayError::NonMonotonic { at: 4, seq: 7 },
        ReplayError::ChainMismatch {
            seq: 2,
            expected: 0xaaaa,
            found: 0xbbbb,
        },
        ReplayError::BaseMismatch {
            expected: 0x1111,
            found: 0x2222,
        },
        ReplayError::SnapshotStale {
            upto: 6,
            expected: 0x5555,
            found: 0x6666,
        },
    ];
    let refs: Vec<&dyn Error> = errors.iter().map(|e| e as &dyn Error).collect();
    assert_taxonomy("ReplayError", &refs);
}

#[test]
fn wire_errors_render_distinctly() {
    let errors: Vec<WireError> = vec![
        WireError::Truncated { need: 8, have: 3 },
        WireError::BadMagic { found: *b"XXXX" },
        WireError::BadVersion { found: 255 },
        WireError::BadTag {
            what: "Commit",
            tag: 200,
        },
        WireError::BadUtf8 { what: "name" },
        WireError::Oversize {
            what: "entries",
            len: 1 << 40,
        },
        WireError::Trailing { extra: 17 },
        WireError::ForeignGenesis {
            expected: 0x7777,
            found: 0x8888,
        },
    ];
    let refs: Vec<&dyn Error> = errors.iter().map(|e| e as &dyn Error).collect();
    assert_taxonomy("WireError", &refs);
}

#[test]
fn repl_errors_render_distinctly_and_chain_sources() {
    let errors: Vec<ReplError> = vec![
        ReplError::NoPrimary { epoch: 3 },
        ReplError::NotPrimary { id: 1 },
        ReplError::Deposed {
            id: 0,
            epoch: 2,
            current: 4,
        },
        ReplError::Down { id: 2 },
        ReplError::Wire(WireError::Trailing { extra: 4 }),
        ReplError::Replay(ReplayError::Truncated {
            expected: 5,
            found: 1,
        }),
    ];
    let refs: Vec<&dyn Error> = errors.iter().map(|e| e as &dyn Error).collect();
    assert_taxonomy("ReplError", &refs);
    // The wrapping variants expose their cause; the leaf variants
    // have none.
    assert!(errors[4].source().is_some(), "Wire wraps its cause");
    assert!(errors[5].source().is_some(), "Replay wraps its cause");
    for leaf in &errors[..4] {
        assert!(leaf.source().is_none(), "{leaf} has no inner cause");
    }
    // From-conversions exist so `?` can hop layers.
    let via: ReplError = WireError::Trailing { extra: 1 }.into();
    assert!(matches!(via, ReplError::Wire(_)));
    let via: ReplError = ReplayError::NonMonotonic { at: 0, seq: 1 }.into();
    assert!(matches!(via, ReplError::Replay(_)));
}

#[test]
fn backup_errors_render_distinctly() {
    let errors: Vec<BackupError> = vec![
        BackupError::Tape("write ring out"),
        BackupError::BadRecord("Q nonsense".into()),
        BackupError::Conflict(">udd>CSR".into()),
    ];
    let refs: Vec<&dyn Error> = errors.iter().map(|e| e as &dyn Error).collect();
    assert_taxonomy("BackupError", &refs);
}
