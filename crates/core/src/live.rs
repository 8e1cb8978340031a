//! Query-while-running: the live ingestion engine over the online labeler.
//!
//! The paper's conclusion (§9) asks for labels assigned "as soon as it is
//! generated … enabling efficient provenance queries on intermediate data
//! results even before the workflow completes". [`crate::online`] supplies
//! the labeler half of that program; this module supplies the *serving*
//! half: a [`LiveRun`] ingests the event stream of an in-flight workflow
//! and answers reachability queries **at any intermediate moment** with the
//! same O(1) three-comparison predicate — and the same batched,
//! struct-of-arrays evaluation — that [`crate::engine::QueryEngine`] uses
//! for completed runs.
//!
//! The key observation: Algorithm 3 never reads the *values* of the three
//! coordinates, only their *order*. Offline, the coordinates are preorder
//! positions; online, each bracket list ([`wfp_graph::OrderList`]) already
//! carries a `u64` tag per bracket that increases strictly along the list.
//! A [`LiveRun`] therefore keeps an incrementally-appended
//! [`SoaColumns<u64>`] of the tags of each vertex's context — appended once
//! per [`exec`](LiveRun::exec) event — and runs the *identical* batch
//! kernel over them:
//!
//! * the `F−`/`L−` fast path is three tag comparisons (Lemma 4.5 holds at
//!   every intermediate moment, because the relative order of existing
//!   brackets never changes);
//! * `+`-LCA pairs delegate to the skeleton through the specification's
//!   **shared** [`SpecContext`] memo, so repeated probes amortize mid-run
//!   exactly as they do offline — and across every other run of the same
//!   spec holding the same context.
//!
//! Order-maintenance lists occasionally retag themselves globally
//! (amortized O(1) per insertion); the engine watches each order's rebuild
//! counter and repairs the affected column in one linear sweep — queries
//! between repairs stay branch-free.
//!
//! When the run completes, [`LiveRun::freeze`] extracts the offline
//! scheme's exact integer labels from the bracket lists and pairs them —
//! as a slim [`RunHandle`] — with the *same* `Arc`-shared context, so the
//! frozen [`QueryEngine`] starts with every `(origin, origin)` sub-answer
//! accumulated during the run: no plan reconstruction, no skeleton
//! rebuild, no repeated probes.
//!
//! ```
//! use wfp_model::fixtures;
//! use wfp_skl::live::LiveRun;
//! use wfp_speclabel::{SchemeKind, SpecScheme};
//!
//! let spec = fixtures::paper_spec();
//! let f1 = fixtures::paper_subgraph(&spec, "F1");
//! let l2 = fixtures::paper_subgraph(&spec, "L2");
//! let m = |n: &str| spec.module_by_name(n).unwrap();
//!
//! let mut live = LiveRun::new(&spec, SpecScheme::build(SchemeKind::Tcm, spec.graph()));
//! let a1 = live.exec(m("a")).unwrap();
//! live.begin_group(f1).unwrap();
//! live.begin_copy().unwrap();
//! live.begin_group(l2).unwrap();
//! live.begin_copy().unwrap();
//! let b1 = live.exec(m("b")).unwrap();
//! let c1 = live.exec(m("c")).unwrap();
//! live.end_copy().unwrap();
//!
//! // the workflow is still running — queries answer anyway
//! assert_eq!(live.answer_batch(&[(a1, c1), (c1, b1)]), vec![true, false]);
//! ```

use std::cell::Cell;
use std::sync::Arc;

use wfp_model::{ModuleId, RunVertexId, Specification, SubgraphId};
use wfp_speclabel::SpecIndex;

use crate::context::{RunHandle, SpecContext};
use crate::engine::{answer_into, EngineStats, QueryEngine, SoaColumns};
use crate::online::{OnlineError, OnlineLabeler};

/// Counters describing a live run's ingestion and query work so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LiveStats {
    /// Structural events accepted (`begin_*`/`end_*`/`exec`).
    pub events: u64,
    /// Column repairs after an order-maintenance retagging (each repairs
    /// one column in one linear sweep; amortized O(1) per event).
    pub tag_repairs: u64,
    /// Query-decision counters, shaped like the frozen engine's. The memo
    /// counters are the shared context's — context-wide when several runs
    /// share it.
    pub engine: EngineStats,
}

/// A workflow run being labeled *while it executes*, queryable at every
/// intermediate moment. See the module docs for the design.
///
/// Events are forwarded to the wrapped [`OnlineLabeler`] (and validated by
/// it — a rejected event leaves both the labeler and the column store
/// untouched); queries run over the incrementally-maintained tag columns,
/// delegating `+`-LCA pairs through the `Arc`-shared [`SpecContext`].
pub struct LiveRun<'s, S> {
    labeler: OnlineLabeler<'s, Arc<SpecContext<S>>>,
    /// tag columns, one row per executed vertex, in exec order
    cols: SoaColumns<u64>,
    /// context plan node per executed vertex (for column repairs)
    ctx_nodes: Vec<u32>,
    /// per-order retagging counters at the last sync
    rebuilds: [usize; 3],
    context_only: Cell<u64>,
    skeleton_queries: Cell<u64>,
    events: u64,
    tag_repairs: u64,
}

impl<'s, S: SpecIndex> LiveRun<'s, S> {
    /// Starts ingesting a run of `spec`, delegating `+`-LCA queries to
    /// `skeleton` wrapped in a fresh single-run [`SpecContext`]. To serve
    /// several runs off one skeleton, build the context once and use
    /// [`with_context`](Self::with_context) (or a
    /// [`crate::fleet::FleetEngine`]).
    pub fn new(spec: &'s Specification, skeleton: S) -> Self {
        Self::with_context(spec, SpecContext::for_spec(spec, skeleton).shared())
    }

    /// Starts ingesting a run of `spec` against an **already-shared**
    /// specification context — the fleet path: every live run holding the
    /// same `Arc` warms (and profits from) the same skeleton memo.
    pub fn with_context(spec: &'s Specification, ctx: Arc<SpecContext<S>>) -> Self {
        let labeler = OnlineLabeler::new(spec, ctx);
        let rebuilds = labeler.rebuild_counts();
        LiveRun {
            labeler,
            cols: SoaColumns::new(),
            ctx_nodes: Vec::new(),
            rebuilds,
            context_only: Cell::new(0),
            skeleton_queries: Cell::new(0),
            events: 0,
            tag_repairs: 0,
        }
    }

    // ---------------- event ingestion ----------------------------------

    /// After any event that inserted brackets, refresh columns whose order
    /// retagged itself since the last sync.
    fn sync_tags(&mut self) {
        let now = self.labeler.rebuild_counts();
        for which in 0..3 {
            if now[which] != self.rebuilds[which] {
                let labeler = &self.labeler;
                let ctx_nodes = &self.ctx_nodes;
                self.cols.repair_column(which, |row| {
                    let tags = labeler.order_tags(ctx_nodes[row] as usize);
                    [tags.0, tags.1, tags.2][which]
                });
                self.tag_repairs += 1;
            }
        }
        self.rebuilds = now;
    }

    /// Opens an execution group for `sg` inside the current copy.
    pub fn begin_group(&mut self, sg: SubgraphId) -> Result<(), OnlineError> {
        self.labeler.begin_group(sg)?;
        self.events += 1;
        self.sync_tags();
        Ok(())
    }

    /// Opens the next copy of the innermost open group.
    pub fn begin_copy(&mut self) -> Result<(), OnlineError> {
        self.labeler.begin_copy()?;
        self.events += 1;
        self.sync_tags();
        Ok(())
    }

    /// Records a module execution; the returned vertex is immediately
    /// queryable. Appends one row to the tag columns — the only growth the
    /// column store ever sees.
    pub fn exec(&mut self, module: ModuleId) -> Result<RunVertexId, OnlineError> {
        let v = self.labeler.exec(module)?;
        self.events += 1;
        let node = self.labeler.context_node(v);
        let (t1, t2, t3) = self.labeler.order_tags(node);
        self.cols.push(t1, t2, t3, module.raw());
        self.ctx_nodes.push(node as u32);
        Ok(v)
    }

    /// Closes the current copy (validated for completeness).
    pub fn end_copy(&mut self) -> Result<(), OnlineError> {
        self.labeler.end_copy()?;
        self.events += 1;
        Ok(())
    }

    /// Closes the innermost open group.
    pub fn end_group(&mut self) -> Result<(), OnlineError> {
        self.labeler.end_group()?;
        self.events += 1;
        Ok(())
    }

    // ---------------- live queries -------------------------------------

    /// Whether `u ⇝ v` among the vertices executed so far — the scalar
    /// entry point. Panics if either vertex has not executed yet.
    #[inline]
    pub fn answer(&self, u: RunVertexId, v: RunVertexId) -> bool {
        self.answer_batch_into(&[(u, v)], &mut Vec::with_capacity(1))[0]
    }

    /// Answers every pair in order, over the current intermediate state.
    pub fn answer_batch(&self, pairs: &[(RunVertexId, RunVertexId)]) -> Vec<bool> {
        let mut out = Vec::new();
        self.answer_batch_into(pairs, &mut out);
        out
    }

    /// [`answer_batch`](Self::answer_batch) into a caller-owned buffer
    /// (cleared first) — the steady-state monitoring path, one allocation
    /// for the whole run.
    pub fn answer_batch_into<'o>(
        &self,
        pairs: &[(RunVertexId, RunVertexId)],
        out: &'o mut Vec<bool>,
    ) -> &'o [bool] {
        out.clear();
        out.reserve(pairs.len());
        let spec_ctx = self.context();
        let (ctx, skel) = answer_into(
            &self.cols,
            spec_ctx.skeleton(),
            spec_ctx.probe_memo(),
            pairs,
            out,
        );
        self.context_only.set(self.context_only.get() + ctx);
        self.skeleton_queries
            .set(self.skeleton_queries.get() + skel);
        out
    }

    /// The live tag columns (for fleet-level batch evaluation).
    pub(crate) fn columns(&self) -> &SoaColumns<u64> {
        &self.cols
    }

    /// Folds one externally-evaluated batch's decision counts into the
    /// run's counters (the fleet path).
    pub(crate) fn count(&self, context_only: u64, skeleton: u64) {
        self.context_only
            .set(self.context_only.get() + context_only);
        self.skeleton_queries
            .set(self.skeleton_queries.get() + skeleton);
    }

    // ---------------- introspection ------------------------------------

    /// Number of module executions so far (valid query vertices are
    /// `0..vertex_count`).
    pub fn vertex_count(&self) -> usize {
        self.cols.len()
    }

    /// Whether the run is structurally complete (only the root scope is
    /// open; root completeness itself is checked by
    /// [`freeze`](Self::freeze)).
    pub fn at_root(&self) -> bool {
        self.labeler.at_root()
    }

    /// Whether [`freeze`](Self::freeze) would succeed right now —
    /// non-consuming ([`OnlineLabeler::check_complete`]).
    pub fn check_complete(&self) -> Result<(), OnlineError> {
        self.labeler.check_complete()
    }

    /// The wrapped event-validating labeler.
    pub fn labeler(&self) -> &OnlineLabeler<'s, Arc<SpecContext<S>>> {
        &self.labeler
    }

    /// The shared spec-level state this run answers through.
    pub fn context(&self) -> &Arc<SpecContext<S>> {
        self.labeler.skeleton()
    }

    /// The skeleton index `+`-LCA queries delegate to.
    pub fn skeleton(&self) -> &S {
        self.context().skeleton()
    }

    /// Ingestion and query counters.
    pub fn stats(&self) -> LiveStats {
        let memo = self.context().memo();
        LiveStats {
            events: self.events,
            tag_repairs: self.tag_repairs,
            engine: EngineStats {
                context_only: self.context_only.get(),
                skeleton: self.skeleton_queries.get(),
                skeleton_probes: memo.probes(),
                memo_hits: memo.hits(),
            },
        }
    }

    // ---------------- freeze handoff -----------------------------------

    /// Completes the run and hands off to a frozen [`QueryEngine`] with
    /// zero re-labeling: the exact offline integer labels are extracted
    /// from the bracket lists ([`OnlineLabeler::freeze_into_parts`]) into a
    /// [`RunHandle`], and the engine views the *same* `Arc`-shared context
    /// — skeleton untouched, every `(origin, origin)` sub-answer probed
    /// during the run already warm.
    pub fn freeze(self) -> Result<QueryEngine<S>, OnlineError> {
        let (run, ctx) = self.freeze_handle()?;
        Ok(QueryEngine::from_parts(ctx, run))
    }

    /// [`freeze`](Self::freeze) returning the raw spec/run pair — the
    /// fleet's in-place freeze path.
    pub fn freeze_handle(self) -> Result<(RunHandle, Arc<SpecContext<S>>), OnlineError> {
        let (labels, _n_plus, ctx) = self.labeler.freeze_into_parts()?;
        Ok((RunHandle::from_labels(&labels), ctx))
    }

    /// [`freeze`](Self::freeze) straight into the bit-packed tier: the
    /// extracted labels are frame-of-reference encoded immediately
    /// ([`crate::PackedColumnsView`]), so a completed run lands in the
    /// compressed serving representation — same shared context, same warm
    /// memo, identical answers.
    pub fn freeze_packed(self) -> Result<crate::PackedEngine<S>, OnlineError> {
        let (run, ctx) = self.freeze_handle()?;
        Ok(crate::PackedEngine::from_parts(
            ctx,
            crate::context::PackedRunHandle::pack(&run),
        ))
    }

    /// The offline scheme's exact labels plus `n⁺` and the shared context
    /// — for callers that want the raw parts rather than an engine.
    #[allow(clippy::type_complexity)]
    pub fn freeze_into_parts(
        self,
    ) -> Result<(Vec<crate::RunLabel>, u32, Arc<SpecContext<S>>), OnlineError> {
        self.labeler.freeze_into_parts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::predicate;
    use wfp_model::fixtures::{paper_spec, paper_subgraph};
    use wfp_speclabel::{SchemeKind, SpecScheme};

    fn scheme(spec: &Specification, kind: SchemeKind) -> SpecScheme {
        SpecScheme::build(kind, spec.graph())
    }

    /// Streams the paper's Figure 3 run, checking live answers against the
    /// wrapped labeler's own (order-list) predicate at every exec.
    fn stream_paper_run(live: &mut LiveRun<'_, SpecScheme>) -> Vec<RunVertexId> {
        let spec = live.labeler().spec();
        let m = |n: &str| spec.module_by_name(n).unwrap();
        let f1 = paper_subgraph(spec, "F1");
        let f2 = paper_subgraph(spec, "F2");
        let l1 = paper_subgraph(spec, "L1");
        let l2 = paper_subgraph(spec, "L2");
        let mut vs = Vec::new();
        vs.push(live.exec(m("a")).unwrap());
        live.begin_group(f1).unwrap();
        for copies in [2usize, 1] {
            live.begin_copy().unwrap();
            live.begin_group(l2).unwrap();
            for _ in 0..copies {
                live.begin_copy().unwrap();
                vs.push(live.exec(m("b")).unwrap());
                vs.push(live.exec(m("c")).unwrap());
                live.end_copy().unwrap();
            }
            live.end_group().unwrap();
            live.end_copy().unwrap();
        }
        live.end_group().unwrap();
        vs.push(live.exec(m("d")).unwrap());
        live.begin_group(l1).unwrap();
        for copies in [1usize, 2] {
            live.begin_copy().unwrap();
            vs.push(live.exec(m("e")).unwrap());
            live.begin_group(f2).unwrap();
            for _ in 0..copies {
                live.begin_copy().unwrap();
                vs.push(live.exec(m("f")).unwrap());
                live.end_copy().unwrap();
            }
            live.end_group().unwrap();
            vs.push(live.exec(m("g")).unwrap());
            live.end_copy().unwrap();
        }
        live.end_group().unwrap();
        vs.push(live.exec(m("h")).unwrap());
        vs
    }

    #[test]
    fn live_agrees_with_the_labeler_at_every_prefix() {
        for kind in [SchemeKind::Tcm, SchemeKind::Bfs] {
            let spec = paper_spec();
            let mut live = LiveRun::new(&spec, scheme(&spec, kind));
            let vs = stream_paper_run(&mut live);
            // the labeler's own order-list predicate is the mid-run oracle
            for &u in &vs {
                for &v in &vs {
                    assert_eq!(
                        live.answer(u, v),
                        live.labeler().reaches(u, v),
                        "({u}, {v}) under {kind}"
                    );
                }
            }
            let stats = live.stats();
            assert_eq!(stats.engine.total(), (vs.len() * vs.len()) as u64);
            assert!(stats.events > 0);
        }
    }

    #[test]
    fn freeze_hands_off_identical_answers_and_a_warm_memo() {
        let spec = paper_spec();
        let mut live = LiveRun::new(&spec, scheme(&spec, SchemeKind::Bfs));
        let vs = stream_paper_run(&mut live);
        let pairs: Vec<_> = vs
            .iter()
            .flat_map(|&u| vs.iter().map(move |&v| (u, v)))
            .collect();
        let live_answers = live.answer_batch(&pairs);
        let probes_before = live.stats().engine.skeleton_probes;
        assert!(probes_before > 0, "BFS must have probed the skeleton");

        let engine = live.freeze().unwrap();
        // the probe counter travels with the shared context …
        assert_eq!(engine.stats().skeleton_probes, probes_before);
        assert_eq!(engine.answer_batch(&pairs), live_answers);
        // … and the frozen engine answered the whole matrix without one
        // new skeleton probe: every sub-answer was already warm
        assert_eq!(engine.stats().skeleton_probes, probes_before);
    }

    #[test]
    fn freeze_packed_lands_compressed_with_identical_answers() {
        let spec = paper_spec();
        let mut live = LiveRun::new(&spec, scheme(&spec, SchemeKind::Bfs));
        let vs = stream_paper_run(&mut live);
        let pairs: Vec<_> = vs
            .iter()
            .flat_map(|&u| vs.iter().map(move |&v| (u, v)))
            .collect();
        let live_answers = live.answer_batch(&pairs);
        let probes_before = live.stats().engine.skeleton_probes;

        let packed = live.freeze_packed().unwrap();
        assert_eq!(packed.vertex_count(), vs.len());
        assert!(
            packed.columns().memory_bytes() < vs.len() * 16,
            "packed columns must undercut the raw 16 bytes/vertex"
        );
        assert_eq!(packed.answer_batch(&pairs), live_answers);
        // the warm memo travelled with the shared context: the whole
        // matrix re-answers without one new skeleton probe
        assert_eq!(packed.stats().skeleton_probes, probes_before);
    }

    #[test]
    fn frozen_labels_match_the_labelers_freeze() {
        let spec = paper_spec();
        let mut live = LiveRun::new(&spec, scheme(&spec, SchemeKind::Tcm));
        let vs = stream_paper_run(&mut live);
        let (labels, n_plus, _ctx) = live.freeze_into_parts().unwrap();
        assert_eq!(labels.len(), vs.len());
        assert_eq!(n_plus, 9);
        // and the labels answer like the scalar predicate
        let skeleton = scheme(&spec, SchemeKind::Tcm);
        assert!(predicate(&labels[0], &labels[labels.len() - 1], &skeleton));
    }

    #[test]
    fn live_runs_share_one_context() {
        // Two live runs off one Arc<SpecContext>: probes warmed by the
        // first run are memo hits for the second.
        let spec = paper_spec();
        let ctx = SpecContext::for_spec(&spec, scheme(&spec, SchemeKind::Bfs)).shared();
        let mut first = LiveRun::with_context(&spec, Arc::clone(&ctx));
        let vs = stream_paper_run(&mut first);
        for &u in &vs {
            for &v in &vs {
                first.answer(u, v);
            }
        }
        let probes_after_first = ctx.memo().probes();
        assert!(probes_after_first > 0);

        let mut second = LiveRun::with_context(&spec, Arc::clone(&ctx));
        let ws = stream_paper_run(&mut second);
        for &u in &ws {
            for &v in &ws {
                assert_eq!(second.answer(u, v), second.labeler().reaches(u, v));
            }
        }
        assert_eq!(
            ctx.memo().probes(),
            probes_after_first,
            "the second run re-probed pairs the first already warmed"
        );
        // 1 external + 2 labelers hold the context
        assert_eq!(Arc::strong_count(&ctx), 3);
    }

    #[test]
    fn rejected_events_leave_the_columns_untouched() {
        let spec = paper_spec();
        let m = |n: &str| spec.module_by_name(n).unwrap();
        let mut live = LiveRun::new(&spec, scheme(&spec, SchemeKind::Tcm));
        let a = live.exec(m("a")).unwrap();
        let before = live.vertex_count();
        assert!(live.exec(m("a")).is_err()); // duplicate in the root copy
        assert!(live.exec(m("b")).is_err()); // wrong home
        assert!(live.begin_copy().is_err()); // no open group
        assert_eq!(live.vertex_count(), before);
        assert!(live.answer(a, a), "queries still work after rejections");
    }

    #[test]
    fn tag_repairs_keep_answers_correct_under_heavy_retagging() {
        // A long serial loop inserts every new copy at the *front* of O3,
        // which is the OrderList's pathological retagging case.
        let mut sb = wfp_model::SpecBuilder::new();
        let s = sb.add_module("s").unwrap();
        let a = sb.add_module("a").unwrap();
        let b = sb.add_module("b").unwrap();
        let t = sb.add_module("t").unwrap();
        sb.add_edge(s, a).unwrap();
        sb.add_edge(a, b).unwrap();
        sb.add_edge(b, t).unwrap();
        sb.add_loop_over(&[a, b]);
        let spec = sb.build().unwrap();
        let lp = spec.subgraphs().next().unwrap().0;

        let mut live = LiveRun::new(&spec, scheme(&spec, SchemeKind::Tcm));
        live.exec(s).unwrap();
        live.begin_group(lp).unwrap();
        let mut xs = Vec::new();
        for _ in 0..4000 {
            live.begin_copy().unwrap();
            xs.push(live.exec(a).unwrap());
            live.exec(b).unwrap();
            live.end_copy().unwrap();
        }
        live.end_group().unwrap();
        live.exec(t).unwrap();
        assert!(
            live.stats().tag_repairs > 0,
            "4000 front insertions must retag at least once"
        );
        // serial copies: earlier reaches later, never the reverse
        for w in xs.windows(2) {
            assert!(live.answer(w[0], w[1]));
            assert!(!live.answer(w[1], w[0]));
        }
        // and the frozen engine still agrees on a sample
        let pairs: Vec<_> = xs.windows(2).map(|w| (w[0], w[1])).collect();
        let live_ans = live.answer_batch(&pairs);
        let engine = live.freeze().unwrap();
        assert_eq!(engine.answer_batch(&pairs), live_ans);
    }
}
