//! Error-path coverage for the online event protocol: every
//! [`OnlineError`] variant is triggered by a minimal malformed event
//! stream, and after each rejected event the labeler must remain fully
//! usable — the same stream continues to completion, freezes, and yields
//! the paper run's exact label statistics. A monitoring deployment cannot
//! afford a poisoned labeler because one engine hiccup emitted a bad
//! event.

use workflow_provenance::model::fixtures::{paper_spec, paper_subgraph};
use workflow_provenance::model::io::{events_from_log, RunEvent};
use workflow_provenance::model::Specification;
use workflow_provenance::prelude::*;
use workflow_provenance::skl::online::OnlineError;
use workflow_provenance::skl::LiveRun;

/// The full Figure 3 run as an event log (subgraph ids: F1=0, L2=1, L1=2,
/// F2=3).
const PAPER_EVENTS: &str = "\
exec a
begin-group 0
begin-copy
begin-group 1
begin-copy
exec b
exec c
end-copy
begin-copy
exec b
exec c
end-copy
end-group
end-copy
begin-copy
begin-group 1
begin-copy
exec b
exec c
end-copy
end-group
end-copy
end-group
exec d
begin-group 2
begin-copy
exec e
begin-group 3
begin-copy
exec f
end-copy
end-group
exec g
end-copy
begin-copy
exec e
begin-group 3
begin-copy
exec f
end-copy
begin-copy
exec f
end-copy
end-group
exec g
end-copy
end-group
exec h
";

fn paper_events(spec: &Specification) -> Vec<RunEvent> {
    events_from_log(PAPER_EVENTS, spec).unwrap()
}

fn apply(live: &mut LiveRun<'_, SpecScheme>, ev: RunEvent) -> Result<(), OnlineError> {
    match ev {
        RunEvent::BeginGroup(sg) => live.begin_group(sg),
        RunEvent::BeginCopy => live.begin_copy(),
        RunEvent::Exec(m) => live.exec(m).map(|_| ()),
        RunEvent::EndCopy => live.end_copy(),
        RunEvent::EndGroup => live.end_group(),
    }
}

/// Replays the paper stream, injecting `bad` after `prefix` events;
/// asserts the rejection matches, then finishes the stream and freezes —
/// the usability property.
fn inject_and_recover(
    prefix: usize,
    bad: impl FnOnce(&mut LiveRun<'_, SpecScheme>) -> Result<(), OnlineError>,
    expect: impl FnOnce(&OnlineError) -> bool,
) {
    let spec = paper_spec();
    let events = paper_events(&spec);
    let mut live = LiveRun::new(&spec, SpecScheme::build(SchemeKind::Tcm, spec.graph()));
    for &ev in &events[..prefix] {
        apply(&mut live, ev).unwrap();
    }
    let vertices_before = live.vertex_count();
    let err = bad(&mut live).expect_err("the injected event must be rejected");
    assert!(expect(&err), "unexpected rejection {err:?}");
    assert_eq!(
        live.vertex_count(),
        vertices_before,
        "a rejected event must not create vertices"
    );
    // the stream continues as if nothing happened …
    for &ev in &events[prefix..] {
        apply(&mut live, ev).unwrap();
    }
    // … and freezes to the paper run's exact statistics
    assert_eq!(live.vertex_count(), 16);
    let (labels, n_plus, _) = live.freeze_into_parts().unwrap();
    assert_eq!(labels.len(), 16);
    assert_eq!(n_plus, 9);
}

#[test]
fn no_open_copy_rejected_and_recovered() {
    // begin_group / exec while the top of the stack is a *group*
    let spec = paper_spec();
    let l2 = paper_subgraph(&spec, "L2");
    let b = spec.module_by_name("b").unwrap();
    // prefix 2 = [exec a, begin-group F1]: top is the F1 group
    inject_and_recover(2, |l| l.begin_group(l2), |e| *e == OnlineError::NoOpenCopy);
    inject_and_recover(
        2,
        |l| l.exec(b).map(|_| ()),
        |e| *e == OnlineError::NoOpenCopy,
    );
}

#[test]
fn no_open_group_rejected_and_recovered() {
    // begin_copy at the root; end_group while the top is a copy
    inject_and_recover(0, |l| l.begin_copy(), |e| *e == OnlineError::NoOpenGroup);
    // prefix 3 = […, begin-copy]: top is the F1 copy
    inject_and_recover(3, |l| l.end_group(), |e| *e == OnlineError::NoOpenGroup);
}

#[test]
fn unbalanced_end_rejected_and_recovered() {
    // end_copy at the root …
    inject_and_recover(1, |l| l.end_copy(), |e| *e == OnlineError::UnbalancedEnd);
    // … and while the top is a group
    inject_and_recover(2, |l| l.end_copy(), |e| *e == OnlineError::UnbalancedEnd);
}

#[test]
fn wrong_nesting_rejected_and_recovered() {
    // L2 directly under the root (its parent is F1)
    let spec = paper_spec();
    let l2 = paper_subgraph(&spec, "L2");
    inject_and_recover(
        0,
        move |l| l.begin_group(l2),
        |e| matches!(e, OnlineError::WrongNesting(_)),
    );
}

#[test]
fn duplicate_group_rejected_and_recovered() {
    // prefix 13 = F1 copy A just closed its L2 group; reopening L2 inside
    // the same copy is a duplicate
    let spec = paper_spec();
    let l2 = paper_subgraph(&spec, "L2");
    inject_and_recover(
        13,
        move |l| l.begin_group(l2),
        |e| matches!(e, OnlineError::DuplicateGroup(_)),
    );
}

#[test]
fn wrong_home_rejected_and_recovered() {
    // module b executes at the root (its home is L2)
    let spec = paper_spec();
    let b = spec.module_by_name("b").unwrap();
    inject_and_recover(
        1,
        move |l| l.exec(b).map(|_| ()),
        |e| matches!(e, OnlineError::WrongHome(_)),
    );
}

#[test]
fn duplicate_exec_rejected_and_recovered() {
    // prefix 6 = [… begin-copy, exec b]: a second b in the same L2 copy
    let spec = paper_spec();
    let b = spec.module_by_name("b").unwrap();
    inject_and_recover(
        6,
        move |l| l.exec(b).map(|_| ()),
        |e| matches!(e, OnlineError::DuplicateExec(_)),
    );
}

#[test]
fn incomplete_copy_rejected_and_recovered() {
    // prefix 5 = the first L2 copy just opened: closing it before b and c
    // have executed is incomplete
    inject_and_recover(
        5,
        |l| l.end_copy(),
        |e| {
            matches!(
                e,
                OnlineError::IncompleteCopy {
                    missing_modules: 2,
                    missing_groups: 0
                }
            )
        },
    );
}

#[test]
fn empty_group_rejected_and_recovered() {
    // prefix 4 = the L2 group just opened: closing it with zero copies
    inject_and_recover(4, |l| l.end_group(), |e| *e == OnlineError::EmptyGroup);
}

#[test]
fn run_still_open_and_incomplete_root_on_freeze() {
    let spec = paper_spec();
    let events = paper_events(&spec);
    // freeze with an open copy
    let mut live = LiveRun::new(&spec, SpecScheme::build(SchemeKind::Tcm, spec.graph()));
    for &ev in &events[..5] {
        apply(&mut live, ev).unwrap();
    }
    assert!(matches!(live.freeze(), Err(OnlineError::RunStillOpen)));
    // freeze at the root but with the root incomplete
    let live = LiveRun::new(&spec, SpecScheme::build(SchemeKind::Tcm, spec.graph()));
    assert!(matches!(
        live.freeze(),
        Err(OnlineError::IncompleteCopy { .. })
    ));
}

/// One end-to-end pass: a rejection injected before *every single event*
/// of the stream still leaves a labeler that completes, freezes, and
/// yields labels identical to the clean stream's. The injection is chosen
/// from the upcoming event, which reveals the stack state: when a group is
/// on top (`begin-copy`/`end-group` comes next), `end_copy` is illegal
/// (`UnbalancedEnd`); otherwise a copy is on top and `end_group` is
/// illegal (`NoOpenGroup`).
#[test]
fn heavily_abused_stream_still_labels_correctly() {
    let spec = paper_spec();
    let events = paper_events(&spec);

    let mut clean = LiveRun::new(&spec, SpecScheme::build(SchemeKind::Tcm, spec.graph()));
    let mut abused = LiveRun::new(&spec, SpecScheme::build(SchemeKind::Tcm, spec.graph()));
    for (i, &ev) in events.iter().enumerate() {
        apply(&mut clean, ev).unwrap();
        let rejection = match ev {
            RunEvent::BeginCopy | RunEvent::EndGroup => abused.end_copy(),
            _ => abused.end_group(),
        };
        assert!(
            matches!(
                rejection,
                Err(OnlineError::UnbalancedEnd | OnlineError::NoOpenGroup)
            ),
            "injection before event #{i} must be rejected, got {rejection:?}"
        );
        apply(&mut abused, ev)
            .unwrap_or_else(|e| panic!("clean event #{i} rejected after abuse: {e}"));
    }
    let (clean_labels, clean_np, _) = clean.freeze_into_parts().unwrap();
    let (abused_labels, abused_np, _) = abused.freeze_into_parts().unwrap();
    assert_eq!(clean_labels, abused_labels, "abuse must not perturb labels");
    assert_eq!(clean_np, abused_np);
    assert_eq!(clean_np, 9);
}
