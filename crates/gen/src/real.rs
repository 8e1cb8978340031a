//! Stand-ins for the real scientific workflows of Table 1.
//!
//! The paper's real dataset comes from the myExperiment repository
//! (Taverna/Kepler/Triana workflows). Those files are not redistributable
//! and the paper characterizes each workflow by exactly four parameters —
//! `n_G`, `m_G`, `|T_G|` and `[T_G]` — which are also the only quantities
//! SKL's behaviour depends on. Each stand-in is therefore a seeded
//! synthetic specification matching its row of Table 1 *exactly* (the
//! substitution is documented in DESIGN.md §3).

use crate::specgen::{generate_spec, SpecGenConfig};
use wfp_model::Specification;

/// One row of Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RealWorkflow {
    /// Workflow name as printed in the paper.
    pub name: &'static str,
    /// `n_G`: number of modules.
    pub modules: usize,
    /// `m_G`: number of channels.
    pub edges: usize,
    /// `|T_G|`: hierarchy size.
    pub hierarchy_size: usize,
    /// `[T_G]`: hierarchy depth.
    pub hierarchy_depth: usize,
}

/// Table 1: characteristics of the six real-life scientific workflows.
pub const fn real_workflows() -> [RealWorkflow; 6] {
    [
        RealWorkflow {
            name: "EBI",
            modules: 29,
            edges: 31,
            hierarchy_size: 4,
            hierarchy_depth: 2,
        },
        RealWorkflow {
            name: "PubMed",
            modules: 35,
            edges: 45,
            hierarchy_size: 3,
            hierarchy_depth: 3,
        },
        RealWorkflow {
            name: "QBLAST",
            modules: 58,
            edges: 72,
            hierarchy_size: 6,
            hierarchy_depth: 3,
        },
        RealWorkflow {
            name: "BioAID",
            modules: 71,
            edges: 87,
            hierarchy_size: 10,
            hierarchy_depth: 4,
        },
        RealWorkflow {
            name: "ProScan",
            modules: 89,
            edges: 119,
            hierarchy_size: 9,
            hierarchy_depth: 4,
        },
        RealWorkflow {
            name: "ProDisc",
            modules: 111,
            edges: 158,
            hierarchy_size: 9,
            hierarchy_depth: 3,
        },
    ]
}

/// The Table 1 row with the given name (`"QBLAST"`, ...).
pub fn by_name(name: &str) -> Option<RealWorkflow> {
    real_workflows().into_iter().find(|w| w.name == name)
}

/// Builds the deterministic stand-in specification for a workflow: the
/// first seed whose random layout realizes the exact Table 1 parameters.
pub fn stand_in(workflow: RealWorkflow) -> Specification {
    for seed in 0..10_000u64 {
        let cfg = SpecGenConfig {
            modules: workflow.modules,
            edges: workflow.edges,
            hierarchy_size: workflow.hierarchy_size,
            hierarchy_depth: workflow.hierarchy_depth,
            seed: seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0xb5ad_4ece_da1c_e2a9,
        };
        if let Ok(spec) = generate_spec(&cfg) {
            return spec;
        }
    }
    unreachable!("Table 1 parameters are feasible for the generator")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_stand_ins_match_table_1_exactly() {
        for w in real_workflows() {
            let spec = stand_in(w);
            assert_eq!(spec.module_count(), w.modules, "{}", w.name);
            assert_eq!(spec.channel_count(), w.edges, "{}", w.name);
            assert_eq!(spec.hierarchy().size(), w.hierarchy_size, "{}", w.name);
            assert_eq!(
                spec.hierarchy().max_depth(),
                w.hierarchy_depth,
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(by_name("QBLAST").unwrap().modules, 58);
        assert_eq!(by_name("EBI").unwrap().hierarchy_depth, 2);
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn stand_ins_are_deterministic() {
        let w = by_name("EBI").unwrap();
        let a = stand_in(w);
        let b = stand_in(w);
        assert_eq!(
            wfp_model::io::spec_to_xml(&a),
            wfp_model::io::spec_to_xml(&b)
        );
    }
}
