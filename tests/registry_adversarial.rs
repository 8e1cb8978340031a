//! Adversarial inputs against the registry snapshot directory: truncated
//! manifests, bit flips, forged CRC-consistent entries, and reshuffled or
//! missing `*.wfps` files. Every attack must surface as a **typed**
//! [`FormatError`] / [`RegistryError`] — never a panic, and never a
//! silently empty registry.

use std::fs;
use std::path::PathBuf;

use workflow_provenance::prelude::*;
use workflow_provenance::skl::registry::{
    read_manifest, write_manifest, ManifestEntry, MANIFEST_FILE,
};
use workflow_provenance::skl::snapshot::{put_str, put_varint, seg, SnapshotWriter};
use workflow_provenance::skl::FormatError;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("wfp-registry-adversarial")
        .join(format!("{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A realistic multi-entry manifest to attack.
fn sample_manifest() -> Vec<u8> {
    let spec = wfp_model::fixtures::paper_spec();
    let entries: Vec<ManifestEntry> = [SchemeKind::Tcm, SchemeKind::Dfs, SchemeKind::Hop2]
        .into_iter()
        .map(|kind| {
            let id = SpecId::of(kind, spec.graph());
            ManifestEntry {
                id,
                kind,
                file: id.file_name(),
                runs: 3,
                bytes: 4096,
            }
        })
        .collect();
    write_manifest(&entries)
}

/// Wraps a raw payload in a valid container (correct magic, CRCs and
/// segment table) — the forgery passes every integrity check, so only the
/// manifest's own validation can reject it.
fn forged(payload: Vec<u8>) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    w.push(seg::REGISTRY_MANIFEST, payload);
    w.finish()
}

#[test]
fn roundtrip_sanity_before_attacking() {
    let bytes = sample_manifest();
    let entries = read_manifest(&bytes).unwrap();
    assert_eq!(entries.len(), 3);
    assert_eq!(entries[1].kind, SchemeKind::Dfs);
    assert!(entries.iter().all(|e| e.file.ends_with(".wfps")));
}

#[test]
fn truncation_at_every_offset_is_a_typed_error() {
    let bytes = sample_manifest();
    for len in 0..bytes.len() {
        let err =
            read_manifest(&bytes[..len]).expect_err("a strict prefix cannot be a valid manifest");
        // every truncation is caught by the framing or payload guards
        let _typed: FormatError = err;
    }
}

#[test]
fn every_single_bit_flip_is_detected() {
    let bytes = sample_manifest();
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut flipped = bytes.clone();
            flipped[i] ^= 1 << bit;
            assert!(
                read_manifest(&flipped).is_err(),
                "bit {bit} of byte {i} flipped undetected"
            );
        }
    }
}

#[test]
fn forged_crc_consistent_manifests_are_rejected() {
    let id = 0x0123_4567_89AB_CDEFu64;
    // id, scheme tag, file name, run count, then a two-byte snapshot size
    let entry = |id: u64, tag: u8, file: &str, runs: u64| {
        let mut p = Vec::new();
        p.extend_from_slice(&id.to_le_bytes());
        p.push(tag);
        put_str(&mut p, file);
        put_varint(&mut p, runs);
        put_varint(&mut p, 4096);
        p
    };
    let body = |version: u8, entries: &[Vec<u8>]| {
        let mut p = vec![version];
        put_varint(&mut p, entries.len() as u64);
        for e in entries {
            p.extend_from_slice(e);
        }
        p
    };

    // a future manifest version (v2 is the only one read)
    let e = entry(id, 0, "a.wfps", 1);
    assert!(matches!(
        read_manifest(&forged(body(3, std::slice::from_ref(&e)))),
        Err(FormatError::UnsupportedVersion(3))
    ));

    // the retired v1 layout had no snapshot-size field: a v1 manifest is
    // refused by version, and a v2 manifest whose entry is missing the
    // field is framing-truncated, not silently defaulted
    let v1_entry = e[..e.len() - 2].to_vec();
    assert!(matches!(
        read_manifest(&forged(body(1, std::slice::from_ref(&v1_entry)))),
        Err(FormatError::UnsupportedVersion(1))
    ));
    assert!(read_manifest(&forged(body(2, &[v1_entry]))).is_err());

    // unknown scheme tag
    assert!(matches!(
        read_manifest(&forged(body(2, &[entry(id, 9, "a.wfps", 1)]))),
        Err(FormatError::Malformed(_)) | Err(FormatError::UnsupportedVersion(_))
    ));

    // duplicate spec ids
    let dup = [entry(id, 0, "a.wfps", 1), entry(id, 1, "b.wfps", 1)];
    assert!(matches!(
        read_manifest(&forged(body(2, &dup))),
        Err(FormatError::Malformed("duplicate spec id in manifest"))
    ));

    // path traversal and unsafe names
    for name in [
        "../escape.wfps",
        "/etc/passwd.wfps",
        "a/b.wfps",
        "nul\0byte.wfps",
        "plain.bin",
        ".wfps",
        "",
        MANIFEST_FILE, // must not alias the manifest itself
    ] {
        assert!(
            read_manifest(&forged(body(2, &[entry(id, 0, name, 1)]))).is_err(),
            "file name {name:?} must be rejected"
        );
    }

    // absurd declared count (guarded against the remaining byte length)
    let mut huge = vec![2u8];
    put_varint(&mut huge, u64::MAX);
    assert!(read_manifest(&forged(huge)).is_err());

    // run count beyond u32
    assert!(matches!(
        read_manifest(&forged(body(2, &[entry(id, 0, "a.wfps", u64::MAX)]))),
        Err(FormatError::Malformed("manifest run count exceeds u32"))
    ));

    // trailing garbage after the declared entries
    let mut trailing = body(2, &[entry(id, 0, "a.wfps", 1)]);
    trailing.push(0xFF);
    assert!(matches!(
        read_manifest(&forged(trailing)),
        Err(FormatError::TrailingBytes { .. })
    ));

    // a valid container holding the wrong segment kind entirely
    let mut w = SnapshotWriter::new();
    w.push(seg::FLEET_MANIFEST, vec![1, 0]);
    assert!(matches!(
        read_manifest(&w.finish()),
        Err(FormatError::MissingSegment { .. })
    ));
}

/// Builds a two-spec registry, saves it, and returns (dir, ids).
fn saved_registry(name: &str) -> (PathBuf, Vec<SpecId>) {
    let spec = wfp_model::fixtures::paper_spec();
    let run = wfp_model::fixtures::paper_run(&spec);
    let (labels, _) = label_run(&spec, &run).unwrap();
    let mut registry = ServiceRegistry::new();
    let ids: Vec<SpecId> = [SchemeKind::Tcm, SchemeKind::Bfs]
        .into_iter()
        .map(|kind| {
            let id = registry.register_spec(&spec, kind).unwrap();
            registry.register_labels(id, &labels).unwrap();
            id
        })
        .collect();
    let dir = tmp(name);
    registry.save_dir(&dir).unwrap();
    (dir, ids)
}

#[test]
fn missing_snapshot_file_is_reported_at_open() {
    let (dir, ids) = saved_registry("missing-file");
    fs::remove_file(dir.join(ids[1].file_name())).unwrap();
    assert!(matches!(
        ServiceRegistry::open_dir(&dir, None),
        Err(RegistryError::MissingSnapshot { spec, .. }) if spec == ids[1]
    ));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn swapped_snapshot_is_caught_by_the_content_hash() {
    let (dir, ids) = saved_registry("swapped-file");
    // overwrite spec B's snapshot with spec A's bytes: the manifest still
    // matches, every CRC still passes — only the content hash can tell
    fs::copy(dir.join(ids[0].file_name()), dir.join(ids[1].file_name())).unwrap();
    let mut registry = ServiceRegistry::open_dir(&dir, None).unwrap();
    assert!(matches!(
        registry.answer(ids[1], RunId(0), RunVertexId(0), RunVertexId(0)),
        Err(RegistryError::SpecMismatch { expected, loaded })
            if expected == ids[1] && loaded == ids[0]
    ));
    // the untampered spec keeps serving
    assert!(registry
        .answer(ids[0], RunId(0), RunVertexId(0), RunVertexId(1))
        .is_ok());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncated_snapshot_fails_lazily_with_a_format_error() {
    let (dir, ids) = saved_registry("truncated-wfps");
    let path = dir.join(ids[0].file_name());
    let bytes = fs::read(&path).unwrap();
    fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    // open_dir only checks existence — the damage surfaces at first probe
    let mut registry = ServiceRegistry::open_dir(&dir, None).unwrap();
    assert!(matches!(
        registry.answer(ids[0], RunId(0), RunVertexId(0), RunVertexId(0)),
        Err(RegistryError::Format(_))
    ));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_manifest_never_yields_a_silently_empty_registry() {
    for (label, bytes) in [
        ("empty file", Vec::new()),
        ("bare magic", b"WFPS".to_vec()),
        ("wrong magic", b"NOPE\x01\x00garbage-here".to_vec()),
        ("random bytes", (0u8..=255).cycle().take(512).collect()),
    ] {
        let dir = tmp(&format!("garbage-{}", label.replace(' ', "-")));
        fs::write(dir.join(MANIFEST_FILE), &bytes).unwrap();
        match ServiceRegistry::open_dir(&dir, None) {
            Err(RegistryError::Format(_)) => {}
            Err(other) => panic!("{label}: wrong error class {other}"),
            Ok(r) => panic!("{label}: accepted as a registry of {} specs", r.len()),
        }
        let _ = fs::remove_dir_all(&dir);
    }
    // ...while a genuinely empty manifest IS a valid zero-spec registry:
    // the distinction is explicit, not an accident of error swallowing
    let dir = tmp("truly-empty");
    fs::write(dir.join(MANIFEST_FILE), write_manifest(&[])).unwrap();
    let registry = ServiceRegistry::open_dir(&dir, None).unwrap();
    assert!(registry.is_empty());
    let _ = fs::remove_dir_all(&dir);
}
