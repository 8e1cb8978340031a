//! A long-running, loop-heavy monitoring workflow — the scenario motivating
//! the paper's scalability claims: the specification stays tiny while runs
//! grow by orders of magnitude through loop iterations, yet labels stay
//! logarithmic and queries constant-time.
//!
//! A sensor-ingestion pipeline iterates `[calibrate → sample → validate]`
//! thousands of times, with a parallel fork of per-sensor `sample` tasks in
//! each sweep. We label runs of increasing length and show (a) label growth,
//! (b) the fraction of queries answered without touching the specification,
//! and (c) a drill-down: which sweep first influenced the alert.
//!
//! ```sh
//! cargo run --release --example monitoring_pipeline
//! ```

use workflow_provenance::prelude::*;

fn build_spec() -> Specification {
    let mut sb = SpecBuilder::new();
    let start = sb.add_module("start").unwrap();
    let calibrate = sb.add_module("calibrate").unwrap();
    let sample = sb.add_module("sample").unwrap();
    let validate = sb.add_module("validate").unwrap();
    let alert = sb.add_module("alert").unwrap();
    for (u, v) in [
        (start, calibrate),
        (calibrate, sample),
        (sample, validate),
        (validate, alert),
    ] {
        sb.add_edge(u, v).unwrap();
    }
    sb.add_fork_around(&[sample]); // one sample task per sensor
    sb.add_loop_over(&[calibrate, sample, validate]); // monitoring sweeps
    sb.build().unwrap()
}

fn main() {
    let spec = build_spec();
    println!(
        "spec: {} modules / {} channels / |T_G| = {}\n",
        spec.module_count(),
        spec.channel_count(),
        spec.hierarchy().size()
    );

    println!(
        "{:>10} {:>10} {:>12} {:>14} {:>16}",
        "sweeps", "n_R", "label bits", "avg bits", "context-only %"
    );
    for &target in &[100usize, 1_000, 10_000, 100_000] {
        let GeneratedRun { run, .. } = generate_run_with_target(&spec, 5, target);
        let skeleton = SpecScheme::build(SchemeKind::Bfs, spec.graph());
        let labeled = LabeledRun::build(&spec, skeleton, &run).unwrap();
        let pairs = random_pairs(&run, 20_000, 99);
        let context_only = pairs
            .iter()
            .filter(|&&(u, v)| labeled.reaches_traced(u, v).1 == QueryPath::ContextOnly)
            .count();
        // sweeps = number of validate executions
        let validate = spec.module_by_name("validate").unwrap();
        let sweeps = run
            .vertices()
            .filter(|&v| run.origin(v) == validate)
            .count();
        println!(
            "{:>10} {:>10} {:>12} {:>14.1} {:>15.1}%",
            sweeps,
            run.vertex_count(),
            labeled.fixed_label_bits(),
            labeled.average_label_bits(),
            100.0 * context_only as f64 / pairs.len() as f64
        );
    }

    // ---- drill-down on the largest run ---------------------------------
    let GeneratedRun { run, .. } = generate_run_with_target(&spec, 5, 100_000);
    let skeleton = SpecScheme::build(SchemeKind::Bfs, spec.graph());
    let labeled = LabeledRun::build(&spec, skeleton, &run).unwrap();
    let validate = spec.module_by_name("validate").unwrap();

    // "the alert fired — which sweep's validation first influenced it?"
    let alert_vertex = run.sink();
    let first_influencer = run
        .vertices()
        .filter(|&v| run.origin(v) == validate)
        .find(|&v| labeled.reaches(v, alert_vertex));
    println!(
        "\ndrill-down over {} executions: first influencing validation = vertex {:?}",
        run.vertex_count(),
        first_influencer
    );
    // every validation eventually influences the alert in a serial loop
    let influencing = run
        .vertices()
        .filter(|&v| run.origin(v) == validate && labeled.reaches(v, alert_vertex))
        .count();
    let total = run
        .vertices()
        .filter(|&v| run.origin(v) == validate)
        .count();
    println!("{influencing}/{total} validations influence the alert (serial loop ⇒ all)");
}
