//! Error-path tests against the real `wfp` binary: every malformed input
//! must exit non-zero with a diagnostic on stderr (and nothing fatal on
//! stdout), because scripted pipelines branch on exactly that contract.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

use wfp_model::fixtures::{paper_run, paper_spec};
use wfp_model::io::{run_to_xml, spec_to_xml};

/// A path in this test's own directory, named from the pid and the
/// test's thread name: parallel tests, and parallel test processes, never
/// write the same file.
fn tmp(name: &str) -> PathBuf {
    let thread = std::thread::current();
    let test = thread.name().unwrap_or("main").replace("::", "-");
    let dir = std::env::temp_dir()
        .join("wfp-cli-bin-tests")
        .join(format!("{}-{test}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn paper_files() -> (PathBuf, PathBuf) {
    let spec = paper_spec();
    let run = paper_run(&spec);
    let sp = tmp("spec.xml");
    let rp = tmp("run.xml");
    fs::write(&sp, spec_to_xml(&spec)).unwrap();
    fs::write(&rp, run_to_xml(&run)).unwrap();
    (sp, rp)
}

fn wfp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wfp"))
        .args(args)
        .output()
        .expect("wfp binary runs")
}

/// Asserts non-zero exit and that stderr mentions every needle.
fn assert_fails(args: &[&str], needles: &[&str]) {
    let out = wfp(args);
    assert!(
        !out.status.success(),
        "{args:?} must exit non-zero; stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.trim().is_empty(),
        "{args:?} must print a diagnostic"
    );
    for needle in needles {
        assert!(
            stderr.contains(needle),
            "{args:?}: stderr {stderr:?} must mention {needle:?}"
        );
    }
}

// ---------------- wfp query --pairs ----------------------------------

#[test]
fn query_pairs_malformed_line() {
    let (sp, rp) = paper_files();
    let pf = tmp("arity.txt");
    fs::write(&pf, "b1 c1\nb1 b2 b3\n").unwrap();
    assert_fails(
        &[
            "query",
            sp.to_str().unwrap(),
            rp.to_str().unwrap(),
            "--pairs",
            pf.to_str().unwrap(),
        ],
        &[":2:", "expected two vertex names"],
    );
}

#[test]
fn query_pairs_out_of_range_vertex() {
    let (sp, rp) = paper_files();
    let pf = tmp("range.txt");
    // b9 is out of range: the paper run executes b three times
    fs::write(&pf, "b1 b9\n").unwrap();
    assert_fails(
        &[
            "query",
            sp.to_str().unwrap(),
            rp.to_str().unwrap(),
            "--pairs",
            pf.to_str().unwrap(),
        ],
        &["b9", "no vertex"],
    );
}

#[test]
fn query_pairs_empty_file() {
    let (sp, rp) = paper_files();
    let pf = tmp("empty.txt");
    fs::write(&pf, "# nothing but comments\n\n").unwrap();
    assert_fails(
        &[
            "query",
            sp.to_str().unwrap(),
            rp.to_str().unwrap(),
            "--pairs",
            pf.to_str().unwrap(),
        ],
        &["no queries"],
    );
}

#[test]
fn query_pairs_missing_file() {
    let (sp, rp) = paper_files();
    assert_fails(
        &[
            "query",
            sp.to_str().unwrap(),
            rp.to_str().unwrap(),
            "--pairs",
            "/nonexistent/p.txt",
        ],
        &["cannot read"],
    );
}

// ---------------- wfp ingest -----------------------------------------

#[test]
fn ingest_unknown_module_in_log() {
    let (sp, _) = paper_files();
    let ep = tmp("unknown.events");
    fs::write(&ep, "exec nosuchmodule\n").unwrap();
    assert_fails(
        &["ingest", sp.to_str().unwrap(), ep.to_str().unwrap()],
        &["line 1", "nosuchmodule"],
    );
}

#[test]
fn ingest_protocol_violation_names_the_event() {
    let (sp, _) = paper_files();
    let ep = tmp("protocol.events");
    // module b executes inside L2, not at the root: WrongHome
    fs::write(&ep, "exec a\nexec b\n").unwrap();
    assert_fails(
        &["ingest", sp.to_str().unwrap(), ep.to_str().unwrap()],
        &["event #2", "foreign copy"],
    );
}

#[test]
fn ingest_probe_on_unexecuted_vertex() {
    let (sp, _) = paper_files();
    let ep = tmp("short.events");
    fs::write(&ep, "exec a\n").unwrap();
    let pp = tmp("early.probes");
    fs::write(&pp, "1 a1 h1\n").unwrap();
    assert_fails(
        &[
            "ingest",
            sp.to_str().unwrap(),
            ep.to_str().unwrap(),
            "--probe",
            pp.to_str().unwrap(),
        ],
        &["h1", "not executed"],
    );
}

#[test]
fn ingest_malformed_probe_line() {
    let (sp, _) = paper_files();
    let ep = tmp("ok.events");
    fs::write(&ep, "exec a\n").unwrap();
    let pp = tmp("bad.probes");
    fs::write(&pp, "soon a1 a1\n").unwrap();
    assert_fails(
        &[
            "ingest",
            sp.to_str().unwrap(),
            ep.to_str().unwrap(),
            "--probe",
            pp.to_str().unwrap(),
        ],
        &["bad event number"],
    );
}

#[test]
fn ingest_missing_event_log() {
    let (sp, _) = paper_files();
    assert_fails(
        &["ingest", sp.to_str().unwrap(), "/nonexistent/run.events"],
        &["cannot read"],
    );
}

// ---------------- wfp fleet --save / --load ---------------------------

#[test]
fn fleet_load_missing_snapshot_dir() {
    let (sp, _) = paper_files();
    assert_fails(
        &[
            "fleet",
            sp.to_str().unwrap(),
            "--load",
            "/nonexistent/snapdir",
        ],
        &["cannot read", "fleet.wfps"],
    );
}

#[test]
fn fleet_load_rejects_corrupt_snapshot() {
    let (sp, _) = paper_files();
    let dir = tmp("corrupt-snap");
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join("fleet.wfps"), b"WFPSgarbage-that-is-not-a-table").unwrap();
    assert_fails(
        &[
            "fleet",
            sp.to_str().unwrap(),
            "--load",
            dir.to_str().unwrap(),
        ],
        &["fleet.wfps"],
    );
}

#[test]
fn fleet_load_conflicts_with_run_sources() {
    let (sp, rp) = paper_files();
    let dir = tmp("unused-snap");
    assert_fails(
        &[
            "fleet",
            sp.to_str().unwrap(),
            rp.to_str().unwrap(),
            "--load",
            dir.to_str().unwrap(),
        ],
        &["--load", "--runs"],
    );
}

#[test]
fn fleet_save_load_round_trip_exits_zero() {
    let (sp, rp) = paper_files();
    let dir = tmp("roundtrip-snap");
    let out = wfp(&[
        "fleet",
        sp.to_str().unwrap(),
        rp.to_str().unwrap(),
        "--runs",
        "2",
        "--target",
        "40",
        "--probes",
        "500",
        "--scheme",
        "bfs",
        "--save",
        dir.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("saved fleet snapshot"), "{stdout}");
    assert!(dir.join("fleet.wfps").is_file());

    let out = wfp(&[
        "fleet",
        sp.to_str().unwrap(),
        "--probes",
        "500",
        "--load",
        dir.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("restored fleet"), "{stdout}");
    assert!(stdout.contains("3 runs"), "{stdout}");
    assert!(stdout.contains("no re-labeling"), "{stdout}");
}

// ---------------- flags a command does not take ----------------------

/// Runs `args`, which carry `flag` that their command does not take: the
/// command must exit 1 before any work, name the flag, and print nothing
/// on stdout.
fn assert_unknown_flag(args: &[&str], flag: &str) {
    let out = wfp(args);
    assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let want = format!("unknown flag {flag} for wfp {}", args[0]);
    assert!(
        stderr.contains(&want),
        "{args:?}: stderr {stderr:?} must say {want:?}"
    );
    assert!(out.stdout.is_empty(), "{args:?} did work before failing");
}

#[test]
fn fleet_rejects_the_retired_packed_flag_and_saves_nothing() {
    let (sp, _) = paper_files();
    let dir = tmp("packed-snap");
    let _ = fs::remove_dir_all(&dir);
    let sp = sp.to_str().unwrap();
    let save = dir.to_str().unwrap();
    assert_unknown_flag(
        &[
            "fleet", sp, "--runs", "2", "--target", "40", "--packed", "--save", save,
        ],
        "--packed",
    );
    assert!(!dir.exists(), "a rejected command wrote {save}");
}

/// `fleet` and `serve` answer each batch on one thread (a server's
/// parallelism is its shard count), so they take no `--threads`; `query
/// --pairs` keeps it.
#[test]
fn fleet_rejects_the_retired_threads_flag_and_saves_nothing() {
    let (sp, _) = paper_files();
    let dir = tmp("threads-snap");
    let _ = fs::remove_dir_all(&dir);
    let sp = sp.to_str().unwrap();
    let save = dir.to_str().unwrap();
    assert_unknown_flag(
        &[
            "fleet",
            sp,
            "--runs",
            "2",
            "--target",
            "40",
            "--probes",
            "10",
            "--threads",
            "4",
            "--save",
            save,
        ],
        "--threads",
    );
    assert!(!dir.exists(), "a rejected command wrote {save}");
}

#[test]
fn serve_rejects_the_retired_threads_flag() {
    assert_unknown_flag(
        &[
            "serve",
            "--gen-specs",
            "2",
            "--runs",
            "1",
            "--target",
            "50",
            "--probes",
            "10",
            "--threads",
            "2",
        ],
        "--threads",
    );
}

#[test]
fn registry_rejects_a_mistyped_flag() {
    assert_unknown_flag(
        &[
            "registry",
            "--gen-specs",
            "2",
            "--runs",
            "1",
            "--target",
            "50",
            "--probes",
            "10",
            "--budgte",
            "1K",
        ],
        "--budgte",
    );
}

/// A flag given twice is refused before any work, not resolved to the
/// last value given.
#[test]
fn fleet_rejects_a_repeated_flag_and_saves_nothing() {
    let (sp, _) = paper_files();
    let dir = tmp("repeated-snap");
    let _ = fs::remove_dir_all(&dir);
    let sp = sp.to_str().unwrap();
    let save = dir.to_str().unwrap();
    let args = [
        "fleet", sp, "--runs", "2", "--target", "40", "--probes", "10", "--seed", "1", "--seed",
        "2", "--save", save,
    ];
    let out = wfp(&args);
    assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--seed given more than once"),
        "stderr {stderr:?} must name the repeated flag"
    );
    assert!(out.stdout.is_empty(), "{args:?} did work before failing");
    assert!(!dir.exists(), "a rejected command wrote {save}");
}

// ---------------- wfp registry ----------------------------------------

#[test]
fn registry_load_missing_directory() {
    assert_fails(
        &["registry", "--load", "/nonexistent/regdir"],
        &["/nonexistent/regdir", "registry.manifest"],
    );
}

#[test]
fn registry_load_rejects_corrupt_manifest() {
    let dir = tmp("corrupt-registry");
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join("registry.manifest"), b"WFPSnot-a-real-manifest").unwrap();
    assert_fails(
        &["registry", "--load", dir.to_str().unwrap()],
        &["snapshot format"],
    );
}

#[test]
fn registry_load_conflicts_with_spec_sources() {
    let (sp, _) = paper_files();
    let dir = tmp("unused-registry");
    assert_fails(
        &[
            "registry",
            sp.to_str().unwrap(),
            "--load",
            dir.to_str().unwrap(),
        ],
        &["--load", "spec.xml"],
    );
}

#[test]
fn registry_without_specs_is_an_error() {
    assert_fails(&["registry"], &["no specs"]);
}

#[test]
fn registry_rejects_malformed_budget() {
    assert_fails(
        &["registry", "--gen-specs", "1", "--budget", "12xyz"],
        &["invalid --budget", "12xyz"],
    );
    assert_fails(
        &["registry", "--gen-specs", "1", "--budget", "999999999999G"],
        &["--budget", "overflows"],
    );
}

#[test]
fn registry_save_load_round_trip_exits_zero() {
    let dir = tmp("roundtrip-registry");
    let out = wfp(&[
        "registry",
        "--gen-specs",
        "3",
        "--runs",
        "2",
        "--target",
        "60",
        "--probes",
        "400",
        "--save",
        dir.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("registry: 3 specs"), "{stdout}");
    assert!(stdout.contains("saved registry to"), "{stdout}");
    assert!(dir.join("registry.manifest").is_file());
    let snapshots = fs::read_dir(&dir)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .path()
                .extension()
                .is_some_and(|x| x == "wfps")
        })
        .count();
    assert_eq!(snapshots, 3, "one *.wfps per spec");

    // reopening is lazy, answers the same traffic, and a tight budget
    // forces evictions without changing the exit code
    let out = wfp(&[
        "registry",
        "--probes",
        "400",
        "--budget",
        "24K",
        "--load",
        dir.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 loaded (lazy)"), "{stdout}");
    assert!(stdout.contains("lazy-loaded"), "{stdout}");
    assert!(stdout.contains("lazy loads"), "{stdout}");
}

// ---------------- sanity: the happy path stays green ------------------

#[test]
fn ingest_happy_path_exits_zero() {
    let (sp, _) = paper_files();
    let ep = tmp("happy.events");
    fs::write(
        &ep,
        "exec a\nbegin-group 0\nbegin-copy\nbegin-group 1\nbegin-copy\n\
         exec b\nexec c\nend-copy\nend-group\nend-copy\nend-group\nexec d\n",
    )
    .unwrap();
    let pp = tmp("happy.probes");
    fs::write(&pp, "7 b1 c1\n").unwrap();
    let out = wfp(&[
        "ingest",
        sp.to_str().unwrap(),
        ep.to_str().unwrap(),
        "--probe",
        pp.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("@7 b1 c1 true"), "{stdout}");
}
