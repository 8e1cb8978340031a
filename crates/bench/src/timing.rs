//! Wall-clock measurement helpers.
//!
//! The paper reports milliseconds for construction and milliseconds per
//! query (averaged over 10⁶ queries). Wall time is the right metric here —
//! the algorithms are single-threaded and allocation-dominated effects are
//! exactly what the comparison is about. `std::hint::black_box` keeps the
//! optimizer honest.

use std::hint::black_box;
use std::time::Instant;

use wfp_model::RunVertexId;
use wfp_skl::LabeledRun;
use wfp_speclabel::SpecIndex;

/// Average milliseconds of `f` over `reps` repetitions (at least one).
pub fn time_ms<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let reps = reps.max(1);
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() * 1e3 / reps as f64
}

/// Average milliseconds per query over a prepared pair workload.
///
/// Returns (ms per query, number of positive answers — also serving as the
/// black-box sink).
pub fn query_time_ms<S: SpecIndex>(
    labeled: &LabeledRun<S>,
    pairs: &[(RunVertexId, RunVertexId)],
) -> (f64, usize) {
    let start = Instant::now();
    let mut positive = 0usize;
    for &(u, v) in pairs {
        positive += labeled.reaches(u, v) as usize;
    }
    let elapsed = start.elapsed().as_secs_f64() * 1e3;
    (elapsed / pairs.len().max(1) as f64, black_box(positive))
}

/// Average milliseconds per query for an arbitrary predicate closure, over
/// run-vertex or spec-module pairs alike.
pub fn predicate_time_ms<V: Copy, F: FnMut(V, V) -> bool>(
    pairs: &[(V, V)],
    mut pred: F,
) -> (f64, usize) {
    let start = Instant::now();
    let mut positive = 0usize;
    for &(u, v) in pairs {
        positive += pred(u, v) as usize;
    }
    let elapsed = start.elapsed().as_secs_f64() * 1e3;
    (elapsed / pairs.len().max(1) as f64, black_box(positive))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_ms_is_positive_and_averaged() {
        let mut counter = 0u64;
        let ms = time_ms(5, || {
            for i in 0..1000u64 {
                counter = counter.wrapping_add(std::hint::black_box(i));
            }
        });
        assert!(ms >= 0.0);
        assert!(counter > 0);
    }

    #[test]
    fn query_time_runs_over_a_real_index() {
        use wfp_model::fixtures::{paper_run, paper_spec};
        use wfp_speclabel::{SchemeKind, SpecScheme};
        let spec = paper_spec();
        let run = paper_run(&spec);
        let labeled = LabeledRun::build(
            &spec,
            SpecScheme::build(SchemeKind::Tcm, spec.graph()),
            &run,
        )
        .unwrap();
        let pairs: Vec<_> = run.vertices().map(|v| (run.source(), v)).collect();
        let (ms, positive) = query_time_ms(&labeled, &pairs);
        assert!(ms >= 0.0);
        assert_eq!(positive, run.vertex_count(), "source reaches everything");
        let (_, p2) = predicate_time_ms(&pairs, |u, v| labeled.reaches(u, v));
        assert_eq!(p2, positive);
    }
}
