//! Data provenance on a QBLAST-like bioinformatics pipeline (paper §6).
//!
//! A scientist runs a sequence-search workflow whose BLAST stage is retried
//! in a loop until the e-values converge, and whose per-chromosome scans
//! fork in parallel. Afterwards she asks the two classic provenance
//! questions: *"this final hit looks wrong — which inputs produced it?"*
//! and *"this input file was corrupt — which downstream results are
//! tainted?"* — both answered in constant time from labels, with the bulk
//! forms going through the `*_batch` APIs (which share one skeleton memo
//! across the whole workload).
//!
//! ```sh
//! cargo run --example provenance_queries
//! ```

use workflow_provenance::prelude::*;

fn main() {
    // ---- the pipeline --------------------------------------------------
    let mut sb = SpecBuilder::new();
    let start = sb.add_module("start").unwrap();
    let split = sb.add_module("split_queries").unwrap();
    let blast = sb.add_module("qblast").unwrap();
    let parse = sb.add_module("parse_hits").unwrap();
    let scan = sb.add_module("chromosome_scan").unwrap();
    let merge = sb.add_module("merge_hits").unwrap();
    let report = sb.add_module("report").unwrap();
    for (u, v) in [
        (start, split),
        (split, blast),
        (blast, parse),
        (parse, scan),
        (scan, merge),
        (merge, report),
    ] {
        sb.add_edge(u, v).unwrap();
    }
    sb.add_loop_over(&[blast, parse]); // retry BLAST until convergence
    sb.add_fork_around(&[scan]); // one scan per chromosome
    let spec = sb.build().unwrap();

    // ---- one concrete execution ---------------------------------------
    let GeneratedRun { run, .. } = generate_run(
        &spec,
        &RunGenConfig {
            seed: 9,
            counts: CountDistribution::Fixed(3), // 3 retries, 3 chromosomes
        },
    );
    let names = run.numbered_names(&spec);
    println!(
        "executed: {} module runs, {} channels",
        run.vertex_count(),
        run.edge_count()
    );

    // ---- label modules, then attach & label data -----------------------
    let skeleton = SpecScheme::build(SchemeKind::Tcm, spec.graph());
    let labeled = LabeledRun::build(&spec, skeleton, &run).unwrap();
    let data = attach_data(&run, 4242, 1.0);
    let prov = ProvenanceIndex::build(&labeled, &data);
    println!(
        "data: {} items on {} channel incidences, max fan-out k = {}",
        data.item_count(),
        data.incidence_count(),
        data.max_inputs()
    );

    // pick an item produced by the *first* BLAST iteration and one consumed
    // by the report stage
    let first_blast_item = data
        .items()
        .find(|(_, it)| names[it.producer.index()] == "qblast1")
        .map(|(id, _)| id)
        .expect("qblast1 produces data");
    let final_item = data
        .items()
        .find(|(_, it)| names[it.producer.index()] == "merge_hits1")
        .map(|(id, _)| id)
        .expect("merge produces data");

    // ---- query 1: backward provenance ----------------------------------
    println!("\nbackward: does the merged result depend on the 1st BLAST output?");
    println!(
        "  {} depends on {}?  {}",
        data.item(final_item).name,
        data.item(first_blast_item).name,
        prov.data_depends_on_data(final_item, first_blast_item)
    );

    // ---- query 2: forward taint (one batch, not |V| scalar calls) ------
    println!("\nforward: which module executions are tainted by that BLAST output?");
    let taint_pairs: Vec<_> = run.vertices().map(|v| (v, first_blast_item)).collect();
    let taint = prov.module_depends_on_data_batch(&taint_pairs);
    let mut tainted: Vec<&str> = run
        .vertices()
        .zip(&taint)
        .filter(|&(_, &dep)| dep)
        .map(|(v, _)| names[v.index()].as_str())
        .collect();
    tainted.sort();
    println!(
        "  {} of {} executions: {:?}",
        tainted.len(),
        run.vertex_count(),
        tainted
    );

    // ---- bulk: the full item-dependency matrix in one batch -------------
    let all_pairs: Vec<_> = data
        .items()
        .flat_map(|(x, _)| data.items().map(move |(y, _)| (x, y)))
        .collect();
    let matrix = prov.data_depends_on_data_batch(&all_pairs);
    println!(
        "\nbulk: {} item-dependency queries answered in one batch, {} positive",
        all_pairs.len(),
        matrix.iter().filter(|&&d| d).count()
    );

    // ---- query 3: data ↔ module ----------------------------------------
    let scan2 = run
        .vertices()
        .find(|v| names[v.index()] == "chromosome_scan2")
        .unwrap();
    println!(
        "\ndid {} contribute to {}?  {}",
        names[scan2.index()],
        data.item(final_item).name,
        prov.data_depends_on_module(final_item, scan2)
    );

    // ---- persist the provenance and query it without the run ----------
    let bytes = workflow_provenance::provenance::serialize(&labeled, &data);
    let stored = StoredProvenance::deserialize(&bytes).unwrap();
    println!(
        "\nstore: {} items serialized into {} bytes; answers survive the round trip: {}",
        stored.item_count(),
        bytes.len(),
        stored.data_depends_on_data(final_item, first_blast_item, labeled.skeleton())
            == prov.data_depends_on_data(final_item, first_blast_item)
    );
}
