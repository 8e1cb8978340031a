//! Format freeze: every writer, fed fixed inputs, must produce the same
//! bytes forever. Each output below is pinned by its length and CRC-32,
//! so a change that moves a single written byte fails here, whichever
//! writer it touches:
//!
//! * a fleet snapshot, its runs packed as the fleet registered them;
//! * a registry directory's manifest (its entries carry each snapshot's
//!   size), and its `<specid>.wfps` files, each byte-identical to the
//!   packed snapshot of the same fleet;
//! * an `EncodedLabels::to_bytes` label file;
//! * a provenance store from `serialize`.
//!
//! The inputs are the paper fixtures under every scheme plus one seeded
//! `generate_registry` workload. Only long-standing public API is used,
//! so the same file also runs against the parent tree of a change: that
//! is how a refactor proves it left the on-disk formats alone.

use std::fs;

use workflow_provenance::model::fixtures::{paper_run, paper_spec};
use workflow_provenance::prelude::*;
use workflow_provenance::provenance::serialize;
use workflow_provenance::skl::registry::MANIFEST_FILE;
use workflow_provenance::skl::snapshot::crc32;

/// Seed of the generated registry workload.
const SEED: u64 = 0x5EED_F00D;

/// `(output, length, CRC-32)` of every frozen output, in generation order.
const FROZEN: &[(&str, usize, u32)] = &[
    ("paper/labels", 84, 0xFC3B25F6),
    ("paper/provenance", 1371, 0xE90398BA),
    ("paper/TCM/fleet-packed", 331, 0xF7E2DA95),
    ("paper/BFS/fleet-packed", 395, 0xBFDC8496),
    ("paper/DFS/fleet-packed", 395, 0x58928E09),
    ("paper/TreeCover/fleet-packed", 395, 0x05A8887C),
    ("paper/Chain/fleet-packed", 331, 0x4D2BD7B2),
    ("paper/2Hop/fleet-packed", 395, 0x10459B03),
    ("generated/0/fleet-packed", 565, 0x6545FFF1),
    ("generated/1/fleet-packed", 889, 0x94465DFC),
    ("generated/2/fleet-packed", 1102, 0xB9078741),
    ("generated/3/fleet-packed", 1365, 0x1C486D7B),
    ("generated/4/fleet-packed", 517, 0xB8C35B13),
    ("generated/5/fleet-packed", 845, 0xFABDD10A),
    ("generated/manifest", 238, 0x82DFDA01),
];

/// Runs every writer over the fixed inputs, in a fixed order.
fn outputs() -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();

    let spec = paper_spec();
    let run = paper_run(&spec);
    let labeled = LabeledRun::build(
        &spec,
        SpecScheme::build(SchemeKind::Tcm, spec.graph()),
        &run,
    )
    .unwrap();
    out.push(("paper/labels".to_string(), labeled.encode().to_bytes()));
    let data = attach_data(&run, 11, 1.5);
    out.push((
        "paper/provenance".to_string(),
        serialize(&labeled, &data).to_vec(),
    ));
    for &kind in &SchemeKind::ALL {
        let mut fleet = FleetEngine::for_spec(&spec, SpecScheme::build(kind, spec.graph()));
        fleet.register_labels(labeled.labels());
        fleet.register_labels(labeled.labels());
        out.push((
            format!("paper/{kind}/fleet-packed"),
            fleet.save(spec.graph()).unwrap(),
        ));
    }

    let generated = generate_registry(SEED, SchemeKind::ALL.len(), 2, 60);
    let mut registry = ServiceRegistry::new();
    let mut packed_files = Vec::new();
    for (i, (spec, runs)) in generated.specs.iter().zip(&generated.fleets).enumerate() {
        let kind = SchemeKind::ALL[i];
        let id = registry.register_spec(spec, kind).unwrap();
        let mut fleet = FleetEngine::for_spec(spec, SpecScheme::build(kind, spec.graph()));
        for r in runs {
            let (labels, _) = label_run(spec, &r.run).unwrap();
            registry.register_labels(id, &labels).unwrap();
            fleet.register_labels(&labels);
        }
        let packed = fleet.save(spec.graph()).unwrap();
        packed_files.push((id.file_name(), packed.clone()));
        out.push((format!("generated/{i}/fleet-packed"), packed));
    }
    let dir = std::env::temp_dir()
        .join("wfp-format-freeze")
        .join(std::process::id().to_string());
    let _ = fs::remove_dir_all(&dir);
    registry.save_dir(&dir).unwrap();
    for (file, packed) in &packed_files {
        assert!(
            fs::read(dir.join(file)).unwrap() == *packed,
            "{file} differs from the packed fleet snapshot"
        );
    }
    out.push((
        "generated/manifest".to_string(),
        fs::read(dir.join(MANIFEST_FILE)).unwrap(),
    ));
    fs::remove_dir_all(&dir).unwrap();
    out
}

#[test]
fn written_bytes_match_the_frozen_lengths_and_checksums() {
    let actual: Vec<(String, usize, u32)> = outputs()
        .into_iter()
        .map(|(name, bytes)| (name, bytes.len(), crc32(&bytes)))
        .collect();
    let table: String = actual
        .iter()
        .map(|(name, len, crc)| format!("    (\"{name}\", {len}, 0x{crc:08X}),\n"))
        .collect();
    assert_eq!(actual.len(), FROZEN.len(), "actual table:\n{table}");
    for ((name, len, crc), &(want_name, want_len, want_crc)) in actual.iter().zip(FROZEN) {
        assert_eq!(name, want_name, "actual table:\n{table}");
        assert_eq!(
            (*len, *crc),
            (want_len, want_crc),
            "{name} changed its written bytes; actual table:\n{table}"
        );
    }
}
