//! Persistence: XML storage for specifications and runs (as in the paper's
//! evaluation setup, §8) and bit-packed label storage.
//!
//! ```sh
//! cargo run --example serialization
//! ```

use std::fs;

use workflow_provenance::model::io::{run_from_xml, run_to_xml, spec_from_xml, spec_to_xml};
use workflow_provenance::prelude::*;

fn main() {
    // A Table-1 stand-in specification and a mid-sized run of it.
    let qblast = real_workflows()
        .into_iter()
        .find(|w| w.name == "QBLAST")
        .unwrap();
    let spec = stand_in(qblast);
    let GeneratedRun { run, .. } = generate_run_with_target(&spec, 31, 1600);
    println!(
        "QBLAST stand-in: n_G = {}, m_G = {}; run: n_R = {}, m_R = {}",
        spec.module_count(),
        spec.channel_count(),
        run.vertex_count(),
        run.edge_count()
    );

    // ---- XML round trip through real files -----------------------------
    // one directory per process, so concurrent runs never share files
    let dir =
        std::env::temp_dir().join(format!("wfp-serialization-example-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("qblast-spec.xml");
    let run_path = dir.join("qblast-run.xml");
    fs::write(&spec_path, spec_to_xml(&spec)).unwrap();
    fs::write(&run_path, run_to_xml(&run)).unwrap();
    println!(
        "wrote {} ({} bytes) and {} ({} bytes)",
        spec_path.display(),
        fs::metadata(&spec_path).unwrap().len(),
        run_path.display(),
        fs::metadata(&run_path).unwrap().len()
    );

    let spec_back = spec_from_xml(&fs::read_to_string(&spec_path).unwrap()).unwrap();
    let run_back = run_from_xml(&fs::read_to_string(&run_path).unwrap(), &spec_back).unwrap();
    assert_eq!(spec_back.module_count(), spec.module_count());
    assert_eq!(run_back.vertex_count(), run.vertex_count());
    println!("round trip OK: graphs identical");

    // ---- label the reloaded run and pack the labels ---------------------
    let skeleton = SpecScheme::build(SchemeKind::Tcm, spec_back.graph());
    let labeled = LabeledRun::build(&spec_back, skeleton, &run_back).unwrap();
    let encoded = labeled.encode();
    println!(
        "labels: {} × {} bits = {} bytes packed (vs {} bytes as plain u32 quadruples)",
        encoded.len(),
        labeled.fixed_label_bits(),
        encoded.bit_len().div_ceil(8),
        run.vertex_count() * 16
    );
    let decoded = encoded.decode();
    assert_eq!(decoded.len(), labeled.labels().len());
    assert!(decoded.iter().zip(labeled.labels()).all(|(a, b)| a == b));
    println!("packed labels decode losslessly");

    // clean up
    let _ = fs::remove_dir_all(&dir);
}
