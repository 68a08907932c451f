//! Snapshot/restore round-trip properties for every baseline defense.
//!
//! For each [`DefenseKind`]: drive the defense with a deterministic
//! mixed workload, snapshot mid-run, restore the blob into a freshly
//! built instance, and require (a) identical state digests immediately
//! after the restore and (b) bit-identical responses and digests over a
//! continued lockstep run. Any hidden state that escapes the snapshot
//! surfaces as a hard failure here. A defense's digest is also pinned to
//! be its blob's checksum, so `digest_state` cannot drift from
//! `save_state`.

use twice::{TableOrganization, TwiceParams};
use twice_common::rng::SplitMix64;
use twice_common::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter, StateDigest};
use twice_common::{BankId, RowHammerDefense, RowId, Time};
use twice_mitigations::{make_defense, DefenseKind};

fn every_kind() -> Vec<DefenseKind> {
    vec![
        DefenseKind::None,
        DefenseKind::Twice(TableOrganization::FullyAssociative),
        DefenseKind::Twice(TableOrganization::PseudoAssociative),
        DefenseKind::Twice(TableOrganization::Split),
        DefenseKind::Para { p: 0.01 },
        DefenseKind::Prohit { p: 0.01 },
        DefenseKind::Cbt { counters: 16 },
        DefenseKind::Cra { cache_entries: 16 },
        DefenseKind::Oracle,
        DefenseKind::Trr { entries: 4 },
        DefenseKind::Graphene,
    ]
}

fn digest(d: &dyn RowHammerDefense) -> u64 {
    let mut acc = StateDigest::new();
    d.digest_state(&mut acc);
    acc.finish()
}

fn save(d: &dyn RowHammerDefense) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    d.save_state(&mut w);
    w.finish()
}

fn restore(d: &mut dyn RowHammerDefense, bytes: &[u8]) -> Result<(), SnapshotError> {
    let mut r = SnapshotReader::new(bytes)?;
    d.load_state(&mut r)
}

/// One deterministic step of a mixed hot/background workload with
/// periodic auto-refreshes.
fn step(d: &mut dyn RowHammerDefense, rng: &mut SplitMix64, i: u64) -> (Vec<RowId>, bool) {
    let bank = BankId((rng.next_below(2)) as u32);
    let row = if i.is_multiple_of(3) {
        RowId(77)
    } else {
        RowId(rng.next_below(512) as u32)
    };
    let now = Time::from_ps(i * 45_000);
    let resp = d.on_activate(bank, row, now);
    if i % 64 == 63 {
        d.on_auto_refresh(bank, now);
    }
    (resp.refresh_rows, resp.detection.is_some())
}

#[test]
fn snapshot_round_trip_preserves_behavior_for_every_defense() {
    let params = TwiceParams::fast_test();
    for kind in every_kind() {
        let mut original = make_defense(kind, &params, 2, 9);
        let mut rng = SplitMix64::new(0xD1CE);
        for i in 0..4_000u64 {
            step(original.as_mut(), &mut rng, i);
        }

        let blob = save(original.as_ref());
        let mut restored = make_defense(kind, &params, 2, 9);
        restore(restored.as_mut(), &blob).unwrap_or_else(|e| panic!("{kind}: restore failed: {e}"));
        assert_eq!(
            digest(original.as_ref()),
            digest(restored.as_ref()),
            "{kind}: digest must match right after restore"
        );

        // Lockstep continuation: both copies must stay bit-identical.
        let mut rng_a = rng.clone();
        let mut rng_b = rng;
        for i in 4_000..6_000u64 {
            let a = step(original.as_mut(), &mut rng_a, i);
            let b = step(restored.as_mut(), &mut rng_b, i);
            assert_eq!(a, b, "{kind}: divergence at step {i}");
        }
        assert_eq!(
            digest(original.as_ref()),
            digest(restored.as_ref()),
            "{kind}: digest must match after continued run"
        );
    }
}

#[test]
fn digest_state_is_the_blob_checksum_for_every_defense() {
    let params = TwiceParams::fast_test();
    for kind in every_kind() {
        let mut d = make_defense(kind, &params, 2, 9);
        let mut rng = SplitMix64::new(0xD1CE);
        for i in 0..4_000u64 {
            step(d.as_mut(), &mut rng, i);
        }
        let blob = save(d.as_ref());
        assert_eq!(
            digest(d.as_ref()).to_le_bytes(),
            blob[blob.len() - 8..],
            "{kind}: digest_state from a fresh accumulator must be the blob checksum"
        );
    }
}

#[test]
fn restore_into_wrong_bank_count_is_rejected() {
    let params = TwiceParams::fast_test();
    for kind in every_kind() {
        if matches!(kind, DefenseKind::None | DefenseKind::Para { .. }) {
            continue; // bank-oblivious defenses carry no geometry
        }
        let donor = make_defense(kind, &params, 2, 9);
        let blob = save(donor.as_ref());
        let mut narrow = make_defense(kind, &params, 1, 9);
        let err = restore(narrow.as_mut(), &blob);
        assert!(
            matches!(err, Err(SnapshotError::StateMismatch(_))),
            "{kind}: expected StateMismatch, got {err:?}"
        );
    }
}

#[test]
fn corrupted_blob_is_rejected_for_every_defense() {
    let params = TwiceParams::fast_test();
    for kind in every_kind() {
        let mut d = make_defense(kind, &params, 2, 9);
        let mut rng = SplitMix64::new(3);
        for i in 0..500u64 {
            step(d.as_mut(), &mut rng, i);
        }
        let mut blob = save(d.as_ref());
        if blob.len() <= 14 {
            continue; // header + checksum only: nothing to corrupt
        }
        let mid = blob.len() / 2;
        blob[mid] ^= 0x10;
        let err = SnapshotReader::new(&blob).err();
        assert!(
            matches!(err, Some(SnapshotError::ChecksumMismatch { .. })),
            "{kind}: flipped byte must fail the checksum, got {err:?}"
        );
    }
}
