//! Synthetic data-item attachment for runs.
//!
//! The paper's run graphs carry data items on every channel (Figure 11).
//! This generator annotates an existing run: each module execution produces
//! a random number of items, and each item flows over a random nonempty
//! subset of the producer's outgoing edges (multi-consumer items exercise
//! the `k > 1` cases of §6).

use wfp_graph::rng::Xoshiro256;
use wfp_model::{Run, RunEdgeId};

use crate::data::{RunData, RunDataBuilder};

/// Attaches synthetic data items to `run`.
///
/// `mean_items` is the expected number of items produced per module
/// execution with outgoing edges (at least one item is attached to every
/// outgoing edge so no channel is empty, matching the paper's figures).
pub fn attach_data(run: &Run, seed: u64, mean_items: f64) -> RunData {
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xc2b2_ae3d_27d4_eb4f);
    let mut builder = RunDataBuilder::new(run);
    let mut next_id = 0usize;
    for v in run.vertices() {
        let out: Vec<RunEdgeId> = run.edge_ids().filter(|&e| run.edge(e).0 == v).collect();
        if out.is_empty() {
            continue;
        }
        // every outgoing channel carries at least one dedicated item
        for &e in &out {
            builder
                .add_item(format!("x{next_id}"), &[e])
                .expect("generated names are unique");
            next_id += 1;
        }
        // plus extra (possibly shared) items
        let extra = if mean_items <= 0.0 {
            0
        } else {
            rng.geometric(1.0 / (1.0 + mean_items)) as usize
        };
        for _ in 0..extra {
            // random nonempty subset of the out-edges
            let mut subset: Vec<RunEdgeId> =
                out.iter().copied().filter(|_| rng.gen_bool(0.5)).collect();
            if subset.is_empty() {
                subset.push(out[rng.gen_usize(out.len())]);
            }
            builder
                .add_item(format!("x{next_id}"), &subset)
                .expect("subset shares the producer by construction");
            next_id += 1;
        }
    }
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfp_model::fixtures::{paper_run, paper_spec};

    #[test]
    fn every_channel_carries_data() {
        let spec = paper_spec();
        let run = paper_run(&spec);
        let data = attach_data(&run, 3, 1.0);
        for e in run.edge_ids() {
            assert!(!data.data_on_edge(e).is_empty(), "edge {e} carries no data");
        }
        assert!(data.item_count() >= run.edge_count());
    }

    #[test]
    fn items_have_single_producers() {
        let spec = paper_spec();
        let run = paper_run(&spec);
        let data = attach_data(&run, 9, 2.0);
        for (_, item) in data.items() {
            assert!(!item.consumers.is_empty());
            // producer consistency is enforced by the builder; spot-check
            // that consumers are successors of the producer
            for &c in &item.consumers {
                assert!(
                    run.graph().has_edge(item.producer.raw(), c.raw()),
                    "consumer not adjacent to producer"
                );
            }
        }
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let spec = paper_spec();
        let run = paper_run(&spec);
        let a = attach_data(&run, 1, 1.0);
        let b = attach_data(&run, 1, 1.0);
        assert_eq!(a.item_count(), b.item_count());
        // mean 0 still gives one item per edge
        let zero = attach_data(&run, 1, 0.0);
        assert_eq!(zero.item_count(), run.edge_count());
    }
}
