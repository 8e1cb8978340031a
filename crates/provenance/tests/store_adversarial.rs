//! Adversarial inputs for [`StoredProvenance::deserialize`]: the store
//! parses byte buffers that may come from a corrupted database page or an
//! attacker-controlled file, so *every* malformed input must come back as
//! a [`FormatError`] — never a panic, and never an attacker-sized
//! allocation.

use wfp_model::fixtures::{paper_run, paper_spec};
use wfp_provenance::{attach_data, serialize, StoredProvenance};
use wfp_skl::snapshot::{self, FormatError, SnapshotReader, SnapshotWriter};
use wfp_skl::LabeledRun;
use wfp_speclabel::{SchemeKind, SpecScheme};

fn store_bytes() -> Vec<u8> {
    let spec = paper_spec();
    let run = paper_run(&spec);
    let labeled = LabeledRun::build(
        &spec,
        SpecScheme::build(SchemeKind::Tcm, spec.graph()),
        &run,
    )
    .unwrap();
    let data = attach_data(&run, 13, 1.5);
    serialize(&labeled, &data).to_vec()
}

/// Rebuilds the container with the items segment replaced — how the tests
/// below forge *CRC-consistent* malformed payloads (patching bytes in
/// place only exercises the checksum, not the structural guards).
fn with_items_payload(bytes: &[u8], payload: Vec<u8>) -> Vec<u8> {
    let r = SnapshotReader::parse(bytes).unwrap();
    let mut w = SnapshotWriter::new();
    for &(kind, seg_payload) in r.segments() {
        if kind == snapshot::seg::PROVENANCE_ITEMS {
            w.push(kind, payload.clone());
        } else {
            w.push(kind, seg_payload.to_vec());
        }
    }
    w.finish()
}

/// Truncation at every byte offset: each prefix must decode to an error
/// (the full buffer to `Ok`), with no panic anywhere in between.
#[test]
fn truncation_at_every_offset_errors_cleanly() {
    let bytes = store_bytes();
    assert!(StoredProvenance::deserialize(&bytes).is_ok());
    for len in 0..bytes.len() {
        match StoredProvenance::deserialize(&bytes[..len]) {
            Err(_) => {}
            Ok(store) => panic!(
                "prefix of {len}/{} bytes decoded to {} items",
                bytes.len(),
                store.item_count()
            ),
        }
    }
}

/// Single-bit flips over the whole container: under the snapshot framing
/// *every* flip must fail (header/table flips via the structural checks,
/// payload flips via the per-segment CRC) — decoding corrupt labels
/// silently is no longer possible.
#[test]
fn container_bit_flips_are_all_detected() {
    let bytes = store_bytes();
    for byte in 0..bytes.len() {
        for bit in 0..8 {
            let mut fuzzed = bytes.clone();
            fuzzed[byte] ^= 1 << bit;
            assert!(
                StoredProvenance::deserialize(&fuzzed).is_err(),
                "flip at {byte}:{bit} went undetected"
            );
        }
    }
}

/// An oversized item-count field must be rejected *before* sizing any
/// allocation, as [`FormatError::Oversized`]. The container payload is
/// rebuilt (CRC-consistent) so the guard itself is what trips, not the
/// checksum.
#[test]
fn oversized_count_field_is_rejected_without_allocating() {
    // container framing: a forged varint count over an empty payload
    let bytes = store_bytes();
    for count in [u64::MAX, u64::MAX / 2, 1 << 40, 1 << 24] {
        let mut evil = Vec::new();
        snapshot::put_varint(&mut evil, count);
        assert!(
            matches!(
                StoredProvenance::deserialize(&with_items_payload(&bytes, evil)),
                Err(FormatError::Oversized { .. })
            ),
            "container count {count} must be Oversized"
        );
    }
}

/// An oversized name-length field walks the cursor past the payload and
/// must be reported as a format error, not read out of bounds.
#[test]
fn oversized_name_length_is_rejected() {
    // container: one item whose name claims 2^30 bytes
    let bytes = store_bytes();
    let mut evil = Vec::new();
    snapshot::put_varint(&mut evil, 1); // one item
    snapshot::put_varint(&mut evil, 1 << 30); // name length
    assert!(matches!(
        StoredProvenance::deserialize(&with_items_payload(&bytes, evil)),
        Err(FormatError::Oversized { .. })
    ));
}

/// An oversized per-item input-count field must likewise fail before
/// reserving `k` labels.
#[test]
fn oversized_input_count_is_rejected() {
    // container: a valid name + output label, then an absurd input count
    let bytes = store_bytes();
    let mut evil = Vec::new();
    snapshot::put_varint(&mut evil, 1);
    snapshot::put_str(&mut evil, "x");
    evil.extend_from_slice(&[0u8; 16]); // output label
    snapshot::put_varint(&mut evil, 1 << 40); // input count
    assert!(matches!(
        StoredProvenance::deserialize(&with_items_payload(&bytes, evil)),
        Err(FormatError::Oversized { .. })
    ));
}

/// Non-UTF-8 item names are a distinct, catchable error.
#[test]
fn invalid_utf8_name_is_bad_name() {
    // container: a rebuilt payload whose name bytes are a lone 0xFF
    let bytes = store_bytes();
    let mut evil = Vec::new();
    snapshot::put_varint(&mut evil, 1);
    snapshot::put_varint(&mut evil, 1); // name length
    evil.push(0xFF); // never valid UTF-8
    evil.extend_from_slice(&[0u8; 16]);
    snapshot::put_varint(&mut evil, 0);
    assert!(matches!(
        StoredProvenance::deserialize(&with_items_payload(&bytes, evil)),
        Err(FormatError::BadUtf8)
    ));
}

/// Trailing garbage after the last item is rejected (exact-consumption
/// check).
#[test]
fn trailing_bytes_in_items_segment_are_rejected() {
    let bytes = store_bytes();
    let r = SnapshotReader::parse(&bytes).unwrap();
    let mut payload = r.first(snapshot::seg::PROVENANCE_ITEMS).unwrap().to_vec();
    payload.push(0xAA);
    assert!(matches!(
        StoredProvenance::deserialize(&with_items_payload(&bytes, payload)),
        Err(FormatError::TrailingBytes { .. })
    ));
}
