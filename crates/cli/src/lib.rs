//! Implementation of the `wfp` command-line tool.
//!
//! Commands operate on the XML formats of `wfp-model::io` and the packed
//! label files of `wfp-skl`:
//!
//! ```sh
//! wfp validate spec.xml                 # validate a specification
//! wfp inspect  spec.xml                 # characteristics + hierarchy
//! wfp gen-spec -n 100 -m 200 -k 10 -d 4 --seed 1 -o spec.xml
//! wfp gen-run  spec.xml --target 10000 --seed 2 -o run.xml
//! wfp gen-events spec.xml --target 10000 -o run.events   # streaming log
//! wfp plan     spec.xml run.xml         # recovered execution-plan stats
//! wfp label    spec.xml run.xml -o labels.wfpl [--scheme tcm]
//! wfp query    spec.xml run.xml b3 h1   # reachability between executions
//! wfp query    spec.xml run.xml --pairs pairs.txt [--threads 8]  # batch mode
//! wfp ingest   spec.xml run.events --probe probes.txt   # query-while-running
//! wfp fleet    spec.xml --runs 8 --target 10000 --probes 1000000  # multi-run serving
//! wfp fleet    spec.xml --runs 8 --save snap/    # persist the serving fleet
//! wfp fleet    spec.xml --load snap/             # restore it warm, no re-labeling
//! wfp serve    --gen-specs 4 --runs 4 --probes 200000 --clients 4  # request/response loop
//! ```
//!
//! All command logic lives in this library (returning strings/errors) so it
//! is unit-testable; the binary is a thin wrapper.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use wfp_gen::{
    generate_fleet, generate_run_with_target, generate_spec, GeneratedRun, SpecGenConfig,
};
use wfp_model::io::{
    events_from_log, events_to_log, plan_to_events, run_from_xml, run_to_xml, spec_from_xml,
    spec_to_xml, RunEvent,
};
use wfp_model::{Run, RunVertexId, Specification};
use wfp_skl::fleet::{FleetEngine, RunId};
use wfp_skl::{
    construct_plan_with_stats, label_run, LabeledRun, LiveRun, QueryEngine, QueryPath,
    RegistryError, RunLabel, ServiceRegistry, SpecContext, SpecId,
};
use wfp_speclabel::{SchemeKind, SpecScheme};

/// A CLI failure, printed to stderr with exit code 1.
pub type CliError = Box<dyn std::error::Error>;

fn load_spec(path: &Path) -> Result<Specification, CliError> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Ok(spec_from_xml(&text)?)
}

fn load_run(path: &Path, spec: &Specification) -> Result<Run, CliError> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Ok(run_from_xml(&text, spec)?)
}

/// Parses a scheme name (`tcm`, `bfs`, `dfs`, `treecover`, `chain`).
pub fn parse_scheme(name: &str) -> Result<SchemeKind, CliError> {
    match name.to_ascii_lowercase().as_str() {
        "tcm" => Ok(SchemeKind::Tcm),
        "bfs" => Ok(SchemeKind::Bfs),
        "dfs" => Ok(SchemeKind::Dfs),
        "treecover" => Ok(SchemeKind::TreeCover),
        "chain" => Ok(SchemeKind::Chain),
        "2hop" | "hop2" => Ok(SchemeKind::Hop2),
        other => Err(format!(
            "unknown scheme {other:?} (expected tcm|bfs|dfs|treecover|chain|2hop)"
        )
        .into()),
    }
}

/// `wfp validate <spec.xml>`
pub fn cmd_validate(spec_path: &Path) -> Result<String, CliError> {
    let spec = load_spec(spec_path)?;
    Ok(format!(
        "OK: {} modules, {} channels, {} forks, {} loops, |T_G| = {}, depth = {}",
        spec.module_count(),
        spec.channel_count(),
        spec.forks().count(),
        spec.loops().count(),
        spec.hierarchy().size(),
        spec.hierarchy().max_depth()
    ))
}

/// `wfp inspect <spec.xml>`
pub fn cmd_inspect(spec_path: &Path) -> Result<String, CliError> {
    let spec = load_spec(spec_path)?;
    let h = spec.hierarchy();
    let mut out = String::new();
    writeln!(
        out,
        "specification: n_G = {}, m_G = {}, |T_G| = {}, [T_G] = {}",
        spec.module_count(),
        spec.channel_count(),
        h.size(),
        h.max_depth()
    )?;
    writeln!(out, "hierarchy:")?;
    for level in 1..=h.max_depth() {
        let row: Vec<String> = h
            .level(level)
            .iter()
            .map(|&node| match h.subgraph_at(node) {
                None => "G".to_string(),
                Some(sg) => {
                    let s = spec.subgraph(sg);
                    format!(
                        "{}[{}→{}; {} edges]",
                        s.kind,
                        spec.name(s.source),
                        spec.name(s.sink),
                        s.edges.len()
                    )
                }
            })
            .collect();
        writeln!(out, "  level {level}: {}", row.join("  "))?;
    }
    Ok(out)
}

/// `wfp gen-spec -n N -m M -k SIZE -d DEPTH --seed S -o OUT`
pub fn cmd_gen_spec(cfg: &SpecGenConfig, out: &Path) -> Result<String, CliError> {
    let spec = generate_spec(cfg)?;
    fs::write(out, spec_to_xml(&spec))?;
    Ok(format!(
        "wrote {} (n_G = {}, m_G = {})",
        out.display(),
        spec.module_count(),
        spec.channel_count()
    ))
}

/// `wfp gen-run <spec.xml> --target N --seed S -o OUT`
pub fn cmd_gen_run(
    spec_path: &Path,
    target: usize,
    seed: u64,
    out: &Path,
) -> Result<String, CliError> {
    let spec = load_spec(spec_path)?;
    let GeneratedRun { run, .. } = generate_run_with_target(&spec, seed, target);
    fs::write(out, run_to_xml(&run))?;
    Ok(format!(
        "wrote {} (n_R = {}, m_R = {})",
        out.display(),
        run.vertex_count(),
        run.edge_count()
    ))
}

/// `wfp plan <spec.xml> <run.xml>`
pub fn cmd_plan(spec_path: &Path, run_path: &Path) -> Result<String, CliError> {
    let spec = load_spec(spec_path)?;
    let run = load_run(run_path, &spec)?;
    let (plan, stats) = construct_plan_with_stats(&spec, &run)?;
    Ok(format!(
        "run conforms: {} vertices, {} edges\n\
         execution plan: {} nodes ({} copies, {} groups), {} nonempty + nodes\n\
         contraction: {} special edges (Lemma 4.2 bound: {} ≤ {})",
        run.vertex_count(),
        run.edge_count(),
        plan.node_count(),
        stats.copies,
        stats.groups,
        plan.nonempty_plus_count(),
        stats.special_edges,
        plan.node_count(),
        4 * run.edge_count()
    ))
}

/// `wfp label <spec.xml> <run.xml> [-o OUT] [--scheme KIND]`
pub fn cmd_label(
    spec_path: &Path,
    run_path: &Path,
    scheme: SchemeKind,
    out: Option<&Path>,
) -> Result<String, CliError> {
    let spec = load_spec(spec_path)?;
    let run = load_run(run_path, &spec)?;
    let labeled = LabeledRun::build(&spec, SpecScheme::build(scheme, spec.graph()), &run)?;
    let encoded = labeled.encode();
    let mut msg = format!(
        "labeled {} vertices: {} bits/label (max), {:.1} bits average, n⁺ = {}",
        labeled.vertex_count(),
        labeled.fixed_label_bits(),
        labeled.average_label_bits(),
        labeled.nonempty_plus_count()
    );
    if let Some(out) = out {
        let bytes = encoded.to_bytes();
        fs::write(out, &bytes)?;
        write!(msg, "\nwrote {} ({} bytes)", out.display(), bytes.len())?;
    }
    Ok(msg)
}

/// `wfp query <spec.xml> <run.xml> <from> <to> [--scheme KIND]`
///
/// Vertices are addressed by numbered name (`b3`) as printed by the paper.
pub fn cmd_query(
    spec_path: &Path,
    run_path: &Path,
    from: &str,
    to: &str,
    scheme: SchemeKind,
) -> Result<String, CliError> {
    let spec = load_spec(spec_path)?;
    let run = load_run(run_path, &spec)?;
    let names = run.numbered_names(&spec);
    let find = |name: &str| {
        names
            .iter()
            .position(|n| n == name)
            .map(|i| wfp_model::RunVertexId(i as u32))
            .ok_or_else(|| format!("no vertex named {name:?} in the run"))
    };
    let u = find(from)?;
    let v = find(to)?;
    let labeled = LabeledRun::build(&spec, SpecScheme::build(scheme, spec.graph()), &run)?;
    let (ans, path) = labeled.reaches_traced(u, v);
    Ok(format!(
        "{from} ⇝ {to}: {ans} (decided by {})",
        match path {
            QueryPath::ContextOnly => "context encodings alone",
            QueryPath::Skeleton => "the skeleton labels",
        }
    ))
}

/// `wfp query <spec.xml> <run.xml> --pairs <file> [--scheme KIND] [--threads N]`
///
/// Batch mode: the pairs file holds one query per line — two
/// whitespace-separated numbered vertex names (`b3 h1`); blank lines and
/// `#` comments are skipped. All pairs are answered through the batched
/// [`QueryEngine`] (sharded over `threads` worker threads when `threads >
/// 1`) and reported one `from to answer` line per query plus a summary of
/// how the batch was decided.
pub fn cmd_query_batch(
    spec_path: &Path,
    run_path: &Path,
    pairs_path: &Path,
    scheme: SchemeKind,
    threads: usize,
) -> Result<String, CliError> {
    let spec = load_spec(spec_path)?;
    let run = load_run(run_path, &spec)?;
    let names = run.numbered_names(&spec);
    // First-wins on colliding numbered names (module "b" run 11 vs module
    // "b1" run 1 both print as "b11"), matching scalar `cmd_query`'s
    // position()-based resolution exactly.
    let mut index_of: std::collections::HashMap<&str, RunVertexId> =
        std::collections::HashMap::with_capacity(names.len());
    for (i, n) in names.iter().enumerate() {
        index_of.entry(n.as_str()).or_insert(RunVertexId(i as u32));
    }

    let text = fs::read_to_string(pairs_path)
        .map_err(|e| format!("cannot read {}: {e}", pairs_path.display()))?;
    let mut pairs: Vec<(RunVertexId, RunVertexId)> = Vec::new();
    let mut echo: Vec<(&str, &str)> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let (from, to) = match (it.next(), it.next(), it.next()) {
            (Some(a), Some(b), None) => (a, b),
            _ => {
                return Err(format!(
                    "{}:{}: expected two vertex names, got {line:?}",
                    pairs_path.display(),
                    lineno + 1
                )
                .into())
            }
        };
        let resolve = |name: &str| {
            index_of.get(name).copied().ok_or_else(|| {
                format!(
                    "{}:{}: no vertex named {name:?} in the run",
                    pairs_path.display(),
                    lineno + 1
                )
            })
        };
        pairs.push((resolve(from)?, resolve(to)?));
        echo.push((from, to));
    }
    if pairs.is_empty() {
        return Err(format!(
            "{}: no queries (the pairs file is empty or all comments)",
            pairs_path.display()
        )
        .into());
    }

    let labeled = LabeledRun::build(&spec, SpecScheme::build(scheme, spec.graph()), &run)?;
    let engine = QueryEngine::from_labeled(labeled);
    let started = std::time::Instant::now();
    let answers = if threads > 1 {
        engine.answer_batch_parallel(&pairs, threads)
    } else {
        engine.answer_batch(&pairs)
    };
    let elapsed = started.elapsed().as_secs_f64();

    let mut out = String::new();
    for ((from, to), ans) in echo.iter().zip(&answers) {
        writeln!(out, "{from} {to} {ans}")?;
    }
    let stats = engine.stats();
    let reachable = answers.iter().filter(|&&a| a).count();
    write!(
        out,
        "# {} queries: {} reachable; {} context-only, {} skeleton; {:.3} ms ({:.0} q/s)",
        pairs.len(),
        reachable,
        stats.context_only,
        stats.skeleton,
        elapsed * 1e3,
        pairs.len() as f64 / elapsed.max(1e-9),
    )?;
    Ok(out)
}

// ======================================================================
// Live ingestion (§9 query-while-running)
// ======================================================================

/// One scheduled probe: answer `from ⇝ to` once `at` events have been
/// ingested.
struct Probe {
    at: usize,
    from: String,
    to: String,
}

/// Parses a probe file: one `EVENT# FROM TO` line per probe (blank lines
/// and `#`-comments skipped), FROM/TO in streaming numbered-name form
/// (`b3` = third execution of module `b`, in event order).
fn parse_probes(path: &Path) -> Result<Vec<Probe>, CliError> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut probes = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_whitespace();
        match (it.next(), it.next(), it.next(), it.next()) {
            (Some(at), Some(from), Some(to), None) => {
                let at: usize = at.parse().map_err(|_| {
                    format!("{}:{}: bad event number {at:?}", path.display(), lineno + 1)
                })?;
                probes.push(Probe {
                    at,
                    from: from.to_string(),
                    to: to.to_string(),
                });
            }
            _ => {
                return Err(format!(
                    "{}:{}: expected \"EVENT# FROM TO\", got {line:?}",
                    path.display(),
                    lineno + 1
                )
                .into())
            }
        }
    }
    probes.sort_by_key(|p| p.at);
    Ok(probes)
}

/// `wfp ingest <spec.xml> <events.log> [--scheme KIND] [--probe FILE]`
///
/// Replays a line-based event log (`wfp-model::io` format, see
/// `gen-events`) through the live engine and answers the probe file's
/// queries **mid-stream**, at the exact event offsets they name — the §9
/// scenario: provenance queries on intermediate data before the workflow
/// completes. Vertices are addressed by streaming numbered names (`b3` =
/// third `exec b` of the log). After the last event, if the run is
/// structurally complete, the engine freezes (zero re-labeling) and every
/// probe is re-answered against the frozen labels as a parity check.
pub fn cmd_ingest(
    spec_path: &Path,
    events_path: &Path,
    scheme: SchemeKind,
    probe_path: Option<&Path>,
) -> Result<String, CliError> {
    let spec = load_spec(spec_path)?;
    let text = fs::read_to_string(events_path)
        .map_err(|e| format!("cannot read {}: {e}", events_path.display()))?;
    let events = events_from_log(&text, &spec)?;
    let probes = match probe_path {
        Some(p) => parse_probes(p)?,
        None => Vec::new(),
    };

    let mut live = LiveRun::new(&spec, SpecScheme::build(scheme, spec.graph()));
    // streaming numbered names, assigned in exec order
    let mut counters = vec![0u32; spec.module_count()];
    let mut vertex_by_name: std::collections::HashMap<String, RunVertexId> =
        std::collections::HashMap::new();

    let mut out = String::new();
    let mut answered: Vec<(usize, RunVertexId, RunVertexId, bool)> = Vec::new();
    let mut next_probe = 0usize;
    let total = events.len();

    let answer_due = |live: &LiveRun<SpecScheme>,
                      vertex_by_name: &std::collections::HashMap<String, RunVertexId>,
                      processed: usize,
                      out: &mut String,
                      answered: &mut Vec<(usize, RunVertexId, RunVertexId, bool)>,
                      next_probe: &mut usize|
     -> Result<(), CliError> {
        while *next_probe < probes.len()
            && (probes[*next_probe].at <= processed
                || (processed == total && probes[*next_probe].at > total))
        {
            let p = &probes[*next_probe];
            let resolve = |name: &str| {
                vertex_by_name.get(name).copied().ok_or_else(|| {
                    format!(
                        "probe at event {}: vertex {name:?} has not executed yet \
                         ({} executions so far)",
                        p.at,
                        live.vertex_count()
                    )
                })
            };
            let (u, v) = (resolve(&p.from)?, resolve(&p.to)?);
            let ans = live.answer(u, v);
            let late = if p.at > total {
                " (clamped to end)"
            } else {
                ""
            };
            writeln!(out, "@{} {} {} {ans}{late}", p.at.min(total), p.from, p.to)?;
            answered.push((p.at, u, v, ans));
            *next_probe += 1;
        }
        Ok(())
    };

    answer_due(
        &live,
        &vertex_by_name,
        0,
        &mut out,
        &mut answered,
        &mut next_probe,
    )?;
    for (i, ev) in events.iter().enumerate() {
        let result = match *ev {
            RunEvent::BeginGroup(sg) => live.begin_group(sg),
            RunEvent::BeginCopy => live.begin_copy(),
            RunEvent::Exec(m) => live.exec(m).map(|v| {
                counters[m.index()] += 1;
                let name = format!("{}{}", spec.name(m), counters[m.index()]);
                // First-wins on colliding numbered names (module "b" run
                // 11 vs module "b1" run 1 both print as "b11"), matching
                // `cmd_query_batch`'s resolution policy.
                vertex_by_name.entry(name).or_insert(v);
            }),
            RunEvent::EndCopy => live.end_copy(),
            RunEvent::EndGroup => live.end_group(),
        };
        result.map_err(|e| format!("event #{} ({ev:?}): {e}", i + 1))?;
        answer_due(
            &live,
            &vertex_by_name,
            i + 1,
            &mut out,
            &mut answered,
            &mut next_probe,
        )?;
    }

    let stats = live.stats();
    writeln!(
        out,
        "# ingested {} events: {} executions, {} probes answered live \
         ({} context-only, {} skeleton; {} tag repairs)",
        total,
        live.vertex_count(),
        answered.len(),
        stats.engine.context_only,
        stats.engine.skeleton,
        stats.tag_repairs,
    )?;
    if live.at_root() {
        match live.freeze() {
            Ok(engine) => {
                let agree = answered
                    .iter()
                    .filter(|&&(_, u, v, live_ans)| engine.answer(u, v) == live_ans)
                    .count();
                write!(
                    out,
                    "# frozen: {} labels; parity check {agree}/{} probes agree",
                    engine.vertex_count(),
                    answered.len()
                )?;
                if agree != answered.len() {
                    return Err("live/frozen parity check failed".into());
                }
            }
            Err(e) => write!(out, "# run incomplete at end of log ({e}): freeze skipped")?,
        }
    } else {
        write!(out, "# run still open at end of log: freeze skipped")?;
    }
    Ok(out)
}

/// `wfp gen-events <spec.xml> --target N [--seed S] -o OUT
///  [--probes K --probe-out FILE]`
///
/// Simulates a run (like `gen-run`) and writes it as a streaming event log
/// instead of a completed XML run — the input `wfp ingest` replays.
/// Optionally also writes `K` probe queries spread evenly across the
/// stream, each over vertices that have already executed at its offset.
pub fn cmd_gen_events(
    spec_path: &Path,
    target: usize,
    seed: u64,
    out: &Path,
    probes: Option<(usize, &Path)>,
) -> Result<String, CliError> {
    let spec = load_spec(spec_path)?;
    let gen = generate_run_with_target(&spec, seed, target);
    let (events, _mapping) = plan_to_events(&gen.run, &gen.plan);
    fs::write(out, events_to_log(&events, &spec))?;
    let mut msg = format!(
        "wrote {} ({} events, {} executions)",
        out.display(),
        events.len(),
        gen.run.vertex_count()
    );

    if let Some((count, probe_out)) = probes {
        // streaming numbered names per exec-ordered vertex
        let mut counters = vec![0u32; spec.module_count()];
        let mut names = Vec::new();
        let mut execs_before = Vec::with_capacity(events.len() + 1); // per event offset
        let mut execs = 0usize;
        for ev in &events {
            execs_before.push(execs);
            if let RunEvent::Exec(m) = *ev {
                counters[m.index()] += 1;
                names.push(format!("{}{}", spec.name(m), counters[m.index()]));
                execs += 1;
            }
        }
        execs_before.push(execs);

        let mut rng = wfp_graph::rng::Xoshiro256::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
        let mut lines = String::from("# EVENT# FROM TO (streaming numbered names)\n");
        let mut placed = 0usize;
        for j in 0..count {
            // evenly spaced offsets, skipping ones with < 2 executions
            let at = ((j + 1) * events.len()) / (count + 1);
            let n = execs_before[at];
            if n < 2 {
                continue;
            }
            let (a, b) = (rng.gen_usize(n), rng.gen_usize(n));
            lines.push_str(&format!("{at} {} {}\n", names[a], names[b]));
            placed += 1;
        }
        fs::write(probe_out, lines)?;
        write!(
            msg,
            "\nwrote {} ({placed} probes over {} offsets)",
            probe_out.display(),
            count
        )?;
    }
    Ok(msg)
}

// ======================================================================
// Fleet serving (spec/run split: one skeleton context, many runs)
// ======================================================================

fn fmt_bytes(b: usize) -> String {
    if b >= 1 << 20 {
        format!("{:.1} MiB", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1} KiB", b as f64 / (1 << 10) as f64)
    } else {
        format!("{b} B")
    }
}

/// The file `wfp fleet --save DIR` writes (and `--load DIR` reads): one
/// snapshot container holding the spec record, the warm memo and every
/// frozen run's bit-packed label columns.
pub const FLEET_SNAPSHOT_FILE: &str = "fleet.wfps";

/// Options for [`cmd_fleet`] beyond the specification path.
pub struct FleetOpts<'a> {
    /// Completed run XML files to load and register.
    pub run_paths: &'a [&'a Path],
    /// Additional runs to generate (`--runs K`).
    pub gen_runs: usize,
    /// Target vertex count per generated run.
    pub target: usize,
    /// Generator / traffic seed.
    pub seed: u64,
    /// Mixed cross-run probes to answer.
    pub probes: usize,
    /// Skeleton scheme (ignored under `--load`: the snapshot records its
    /// own scheme).
    pub scheme: SchemeKind,
    /// Persist the serving fleet to `DIR/fleet.wfps` after answering.
    pub save: Option<&'a Path>,
    /// Restore the fleet from `DIR/fleet.wfps` instead of labeling runs.
    pub load: Option<&'a Path>,
}

/// `wfp fleet <spec.xml> [run.xml...] [--runs K] [--target N] [--seed S]
///  [--probes M] [--scheme KIND] [--save DIR] [--load DIR]`
///
/// The multi-run serving scenario the paper's amortization argument is
/// about: load the given runs and/or generate `K` more (all conforming to
/// one specification), register them all under **one** shared skeleton
/// context in a [`FleetEngine`], which stores each run's label columns
/// bit-packed, answer `M` mixed cross-run probes, and report throughput
/// plus the shared-vs-duplicated memory accounting — what the fleet holds
/// once versus what `K` independent engines would hold. With `--save DIR`
/// the serving fleet (spec record + warm memo + per-run packed label
/// columns) is persisted as one snapshot container; with `--load DIR` it
/// is restored **without re-labeling a single run** and with the memo
/// warm from the saved process's traffic.
pub fn cmd_fleet(spec_path: &Path, opts: &FleetOpts<'_>) -> Result<String, CliError> {
    let spec = load_spec(spec_path)?;
    let mut out = String::new();

    let fleet: FleetEngine<'_, SpecScheme> = if let Some(dir) = opts.load {
        if !opts.run_paths.is_empty() || opts.gen_runs > 0 {
            return Err(
                "--load restores a saved fleet; drop the run.xml arguments and --runs".into(),
            );
        }
        let path = dir.join(FLEET_SNAPSHOT_FILE);
        let bytes = fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let started = std::time::Instant::now();
        let (fleet, graph) =
            FleetEngine::load(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
        let load_ms = started.elapsed().as_secs_f64() * 1e3;
        if graph.vertex_count() != spec.graph().vertex_count()
            || graph.edges() != spec.graph().edges()
        {
            return Err(format!(
                "{}: snapshot was saved for a different specification",
                path.display()
            )
            .into());
        }
        let stats = fleet.stats();
        writeln!(
            out,
            "restored fleet from {} in {load_ms:.1} ms: {} runs ({} evicted), \
             scheme {}, {} warm memo cells (no re-labeling)",
            path.display(),
            stats.packed,
            stats.evicted,
            fleet.context().skeleton().kind(),
            fleet.context().memo().warm_entries(),
        )?;
        fleet
    } else {
        let mut runs: Vec<Run> = Vec::new();
        for p in opts.run_paths {
            runs.push(load_run(p, &spec)?);
        }
        runs.extend(
            generate_fleet(&spec, opts.seed, opts.gen_runs, opts.target)
                .into_iter()
                .map(|g| g.run),
        );
        if runs.is_empty() {
            return Err("no runs: pass run.xml files, --runs K, or --load DIR".into());
        }

        // one spec-level context for the whole fleet
        let ctx =
            SpecContext::for_spec(&spec, SpecScheme::build(opts.scheme, spec.graph())).shared();
        let mut fleet = FleetEngine::new(ctx);
        let label_started = std::time::Instant::now();
        for run in &runs {
            // labels carry only the *pointer* to the skeleton, so labeling
            // a fleet member never builds (or clones) a per-run skeleton
            let (labels, _n_plus) = label_run(&spec, run)?;
            fleet.register_labels(&labels);
        }
        let label_ms = label_started.elapsed().as_secs_f64() * 1e3;
        let total_vertices: usize = runs.iter().map(Run::vertex_count).sum();
        writeln!(
            out,
            "fleet: {} runs ({} loaded, {} generated), {total_vertices} vertices total, \
             scheme {}",
            runs.len(),
            opts.run_paths.len(),
            opts.gen_runs,
            opts.scheme,
        )?;
        writeln!(
            out,
            "labeled in {label_ms:.1} ms (no per-run skeletons built)"
        )?;
        fleet
    };

    // mixed probe traffic: uniformly random (run, u, v) triples over the
    // active runs that executed at least one module (a loaded run XML may
    // be legally empty — it just cannot receive probes)
    let ids: Vec<RunId> = fleet.run_ids().collect();
    let sizes: Vec<usize> = ids
        .iter()
        .map(|&id| fleet.vertex_count(id).expect("active id"))
        .collect();
    let probeable: Vec<usize> = (0..ids.len()).filter(|&i| sizes[i] > 0).collect();
    if opts.probes > 0 && probeable.is_empty() {
        return Err("every run is empty: nothing to probe".into());
    }
    let mut rng = wfp_graph::rng::Xoshiro256::seed_from_u64(opts.seed ^ 0xF1EE_7BA7_C0FF_EE00);
    let traffic: Vec<(RunId, RunVertexId, RunVertexId)> = (0..opts.probes)
        .map(|_| {
            let which = probeable[rng.gen_usize(probeable.len())];
            let n = sizes[which];
            (
                ids[which],
                RunVertexId(rng.gen_usize(n) as u32),
                RunVertexId(rng.gen_usize(n) as u32),
            )
        })
        .collect();
    let started = std::time::Instant::now();
    let answers = fleet.answer_batch(&traffic)?;
    let elapsed = started.elapsed().as_secs_f64();

    let stats = fleet.stats();
    let reachable = answers.iter().filter(|&&a| a).count();
    writeln!(
        out,
        "{} probes: {} reachable; {} context-only, {} skeleton \
         ({} probes, {} memo hits); {:.3} ms ({:.0} q/s)",
        traffic.len(),
        reachable,
        stats.engine.context_only,
        stats.engine.skeleton,
        stats.engine.skeleton_probes,
        stats.engine.memo_hits,
        elapsed * 1e3,
        traffic.len() as f64 / elapsed.max(1e-9),
    )?;
    write!(
        out,
        "memory: spec state {} shared once (runs hold {}); \
         {} independent engines would hold {} — saved {} ({}x sharing, \
         {} context refs)",
        fmt_bytes(stats.spec_bytes),
        fmt_bytes(stats.run_bytes),
        stats.active(),
        fmt_bytes(stats.spec_bytes_if_per_run),
        fmt_bytes(stats.bytes_saved()),
        stats.active(),
        stats.context_refs,
    )?;

    if let Some(dir) = opts.save {
        fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let bytes = fleet.save(spec.graph())?;
        let path = dir.join(FLEET_SNAPSHOT_FILE);
        fs::write(&path, &bytes).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        write!(
            out,
            "\nsaved fleet snapshot to {} ({}: 1 spec record + warm memo + {} run segments)",
            path.display(),
            fmt_bytes(bytes.len()),
            stats.packed,
        )?;
    }
    Ok(out)
}

/// Parses a `--budget` byte count: a plain number, or a number with a
/// binary suffix `K`, `M` or `G` (case-insensitive).
pub fn parse_budget(text: &str) -> Result<usize, CliError> {
    let t = text.trim();
    let (digits, multiplier) = match t.char_indices().last() {
        Some((i, 'k' | 'K')) => (&t[..i], 1usize << 10),
        Some((i, 'm' | 'M')) => (&t[..i], 1usize << 20),
        Some((i, 'g' | 'G')) => (&t[..i], 1usize << 30),
        _ => (t, 1),
    };
    if digits.is_empty() {
        // a bare suffix ("M", "k") would otherwise surface as an opaque
        // integer-parse failure; name the actual mistake
        return Err(format!(
            "invalid --budget {text:?}: missing the number before the \
             suffix (expected e.g. 64M, 512K)"
        )
        .into());
    }
    let value: usize = digits
        .parse()
        .map_err(|_| format!("invalid --budget {text:?} (expected BYTES, or e.g. 64M, 512K)"))?;
    value
        .checked_mul(multiplier)
        .ok_or_else(|| format!("--budget {text:?} overflows").into())
}

/// The spec set `wfp registry` and `wfp serve` build: the spec XMLs at
/// `spec_paths`, then `gen_specs` generated specs, each with
/// `runs_per_spec` generated runs of about `target` vertices. An empty set
/// is an error.
fn build_spec_set(
    spec_paths: &[&Path],
    gen_specs: usize,
    runs_per_spec: usize,
    target: usize,
    seed: u64,
) -> Result<Vec<(Specification, Vec<GeneratedRun>)>, CliError> {
    let specs = spec_paths
        .iter()
        .map(|p| load_spec(p))
        .collect::<Result<Vec<_>, _>>()?;
    let mut set: Vec<_> = specs
        .into_iter()
        .enumerate()
        .map(|(i, spec)| {
            let fleet_seed = seed ^ (i as u64 + 1).wrapping_mul(0xD134_2543_DE82_EF95);
            let fleet = generate_fleet(&spec, fleet_seed, runs_per_spec, target);
            (spec, fleet)
        })
        .collect();
    let generated = wfp_gen::generate_registry(seed, gen_specs, runs_per_spec, target);
    set.extend(generated.specs.into_iter().zip(generated.fleets));
    if set.is_empty() {
        return Err("no specs: pass spec.xml files, --gen-specs N, or --load DIR".into());
    }
    Ok(set)
}

/// Makes spec `id` resident and returns what its probes address: each of
/// its runs with the run's vertex count, empty runs left out.
fn probe_book(
    registry: &mut ServiceRegistry<'_>,
    id: SpecId,
) -> Result<Vec<(RunId, usize)>, RegistryError> {
    registry.ensure_resident(id)?;
    let fleet = registry.fleet(id).expect("just made resident");
    Ok(fleet
        .run_ids()
        .map(|r| (r, fleet.vertex_count(r).expect("active id")))
        .filter(|&(_, n)| n > 0)
        .collect())
}

/// Options for [`cmd_registry`].
pub struct RegistryOpts<'a> {
    /// Specification XML files to serve (one fleet each).
    pub spec_paths: &'a [&'a Path],
    /// Additional synthetic specs to generate (`--gen-specs N`).
    pub gen_specs: usize,
    /// Runs generated per spec.
    pub runs_per_spec: usize,
    /// Target vertex count per generated run.
    pub target: usize,
    /// Generator / traffic seed.
    pub seed: u64,
    /// Mixed cross-spec probes to answer.
    pub probes: usize,
    /// Resident-byte budget across all fleets (`--budget`, parsed by
    /// [`parse_budget`]); `None` disables pressure eviction.
    pub budget: Option<usize>,
    /// Persist the registry as a snapshot directory after answering.
    pub save: Option<&'a Path>,
    /// Open a saved snapshot directory (lazy: fleets load on first probe)
    /// instead of building one.
    pub load: Option<&'a Path>,
}

/// `wfp registry [spec.xml...] [--gen-specs N] [--runs K] [--target V]
///  [--seed S] [--probes M] [--budget BYTES] [--save DIR] [--load DIR]`
///
/// The multi-spec serving scenario: each specification (loaded from XML
/// and/or generated) gets its own fleet of `K` runs, all behind one
/// [`ServiceRegistry`] keyed by content-derived spec id, with the schemes
/// cycling through all six spec-labeling kinds. `M` mixed probes are
/// routed across the specs in one batch; with `--budget` the registry
/// offloads least-recently-used fleets to their snapshot under memory
/// pressure and reloads them transparently. `--save DIR` writes the
/// snapshot directory (one `*.wfps` per spec + `registry.manifest`);
/// `--load DIR` opens one lazily — nothing is loaded until its first
/// probe, and the cold-load cost is reported per spec.
///
/// [`ServiceRegistry`]: wfp_skl::registry::ServiceRegistry
pub fn cmd_registry(opts: &RegistryOpts<'_>) -> Result<String, CliError> {
    let mut out = String::new();

    let mut registry: ServiceRegistry<'static> = if let Some(dir) = opts.load {
        if !opts.spec_paths.is_empty() || opts.gen_specs > 0 {
            return Err(
                "--load opens a saved registry; drop the spec.xml arguments and --gen-specs".into(),
            );
        }
        let registry = ServiceRegistry::open_dir(dir, opts.budget)
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        writeln!(
            out,
            "opened registry at {}: {} specs in manifest, 0 loaded (lazy)",
            dir.display(),
            registry.len(),
        )?;
        registry
    } else {
        let set = build_spec_set(
            opts.spec_paths,
            opts.gen_specs,
            opts.runs_per_spec,
            opts.target,
            opts.seed,
        )?;
        let mut registry = ServiceRegistry::new();
        registry.set_budget(opts.budget)?;
        let started = std::time::Instant::now();
        let mut total_runs = 0usize;
        for (i, (spec, fleet)) in set.iter().enumerate() {
            let kind = SchemeKind::ALL[i % SchemeKind::ALL.len()];
            let id = registry.register_spec(spec, kind)?;
            for g in fleet {
                let (labels, _) = label_run(spec, &g.run)?;
                registry.register_labels(id, &labels)?;
                total_runs += 1;
            }
        }
        let label_ms = started.elapsed().as_secs_f64() * 1e3;
        writeln!(
            out,
            "registry: {} specs ({} loaded, {} generated), {total_runs} runs, \
             schemes cycling {}",
            set.len(),
            opts.spec_paths.len(),
            opts.gen_specs,
            SchemeKind::ALL.map(|k| k.to_string()).join("/"),
        )?;
        writeln!(out, "labeled + registered in {label_ms:.1} ms")?;
        registry
    };

    // per-spec probe-address books; under --load this is the lazy cold
    // load itself, so time each spec's first touch
    let ids: Vec<_> = registry.spec_ids().collect();
    let mut books: Vec<Vec<(RunId, usize)>> = Vec::with_capacity(ids.len());
    for &id in &ids {
        let cold = !registry.resident(id);
        let before = registry.stats();
        let started = std::time::Instant::now();
        let book = probe_book(&mut registry, id)?;
        if cold {
            let after = registry.stats();
            writeln!(
                out,
                "  spec {id} ({}): lazy-loaded {} runs, {} ({}) in {:.1} ms",
                registry.scheme(id).expect("registered"),
                registry.run_count(id)?,
                fmt_bytes((after.reload_bytes - before.reload_bytes) as usize),
                if after.zero_copy_loads > before.zero_copy_loads {
                    "zero-copy"
                } else {
                    "decoded"
                },
                started.elapsed().as_secs_f64() * 1e3,
            )?;
        }
        books.push(book);
    }

    let probeable: Vec<usize> = (0..ids.len()).filter(|&i| !books[i].is_empty()).collect();
    if opts.probes > 0 && probeable.is_empty() {
        return Err("every run of every spec is empty: nothing to probe".into());
    }
    let mut rng = wfp_graph::rng::Xoshiro256::seed_from_u64(opts.seed ^ 0xF1EE_7BA7_C0FF_EE00);
    let traffic: Vec<_> = (0..opts.probes)
        .map(|_| {
            let which = probeable[rng.gen_usize(probeable.len())];
            let (run, n) = books[which][rng.gen_usize(books[which].len())];
            (
                ids[which],
                run,
                RunVertexId(rng.gen_usize(n) as u32),
                RunVertexId(rng.gen_usize(n) as u32),
            )
        })
        .collect();
    let started = std::time::Instant::now();
    let answers = registry.answer_batch(&traffic)?;
    let elapsed = started.elapsed().as_secs_f64();

    let stats = registry.stats();
    let reachable = answers.iter().filter(|&&a| a).count();
    writeln!(
        out,
        "{} mixed-spec probes: {} reachable; {:.3} ms ({:.0} q/s)",
        traffic.len(),
        reachable,
        elapsed * 1e3,
        traffic.len() as f64 / elapsed.max(1e-9),
    )?;
    write!(
        out,
        "residency: {}/{} fleets in memory, {} resident{}; \
         {} evictions, {} lazy loads ({} zero-copy, {} read, {:.1} ms)",
        stats.resident,
        stats.specs,
        fmt_bytes(stats.resident_bytes),
        match stats.budget {
            Some(b) => format!(" (budget {})", fmt_bytes(b)),
            None => " (no budget)".to_string(),
        },
        stats.evictions,
        stats.lazy_loads,
        stats.zero_copy_loads,
        fmt_bytes(stats.reload_bytes as usize),
        stats.decode_ms,
    )?;

    if let Some(dir) = opts.save {
        registry
            .save_dir(dir)
            .map_err(|e| format!("cannot save {}: {e}", dir.display()))?;
        write!(
            out,
            "\nsaved registry to {}: {} spec snapshots + {}",
            dir.display(),
            stats.specs,
            wfp_skl::registry::MANIFEST_FILE,
        )?;
    }
    Ok(out)
}

/// Options for [`cmd_serve`].
pub struct ServeOpts<'a> {
    /// Specification XML files to serve (one fleet each).
    pub spec_paths: &'a [&'a Path],
    /// Additional synthetic specs to generate (`--gen-specs N`).
    pub gen_specs: usize,
    /// Runs generated per spec.
    pub runs_per_spec: usize,
    /// Target vertex count per generated run.
    pub target: usize,
    /// Generator / traffic seed.
    pub seed: u64,
    /// Total probes replayed across all client threads.
    pub probes: usize,
    /// Concurrent client threads.
    pub clients: usize,
    /// Arrival pattern (`--arrival closed|uniform:RATE|poisson:RATE|bursty:RATE:BURST`).
    pub arrival: wfp_gen::Arrival,
    /// Resident-byte budget for the registry behind the loop.
    pub budget: Option<usize>,
    /// Serve a saved snapshot directory instead of building fleets.
    pub load: Option<&'a Path>,
    /// Admission-window flush threshold in probes (`--batch`).
    pub batch: usize,
    /// Admission-window flush deadline in microseconds (`--window`).
    pub window_us: u64,
    /// Most requests admitted and not yet answered (`--queue`).
    pub queue: usize,
    /// Shard workers, each owning its own registry (`--shards`).
    pub shards: usize,
    /// Spec mix across the probe traffic (`--mix uniform|zipf:SKEW`).
    pub mix: wfp_gen::SpecMix,
}

/// `wfp serve [spec.xml...] [--gen-specs N] [--runs K] [--target V]
///  [--seed S] [--probes M] [--clients C] [--arrival PATTERN]
///  [--budget BYTES] [--load DIR] [--batch N] [--window US] [--queue N]
///  [--shards S] [--mix uniform|zipf:SKEW]`
///
/// The request/response serving loop: one registry per `--shards` worker
/// of [`mod@wfp_skl::serve`], built (or lazily opened with `--load`) to
/// hold only the specs the [`ShardPlan`] routes to that shard, then `C`
/// client threads replay a mixed-spec probe workload through cloneable
/// [`ServeHandle`]s on the allocation-free single-probe path.
/// Open-loop arrival patterns ([`wfp_gen::Arrival`]) pace the
/// submissions; the admission windows coalesce them into run-sharded
/// batches per shard. `--mix zipf:SKEW` skews the spec mix so a head
/// shard saturates while the tail idles. The report shows sustained
/// throughput, the batch-size histogram, per-shard load, and per-scheme
/// p50/p99 serve latency from [`ServeStats`]. Probes a client could not
/// get admitted (`--queue` requests already in flight under open-loop
/// overload) are counted as dropped, never silently lost; any probe the
/// registry rejects is a hard error.
///
/// [`ServeHandle`]: wfp_skl::ServeHandle
/// [`ServeStats`]: wfp_skl::ServeStats
/// [`ShardPlan`]: wfp_skl::ShardPlan
pub fn cmd_serve(opts: &ServeOpts<'_>) -> Result<String, CliError> {
    use wfp_skl::{serve_sharded, Probe, ServeConfig, ServeError, ShardPlan};

    let mut out = String::new();

    // Spec loading, generation and labeling happen here, before the
    // server starts; their failures are CLI errors.
    let mut payload: Vec<(Specification, SchemeKind, Vec<Vec<RunLabel>>)> = Vec::new();
    if let Some(dir) = opts.load {
        if !opts.spec_paths.is_empty() || opts.gen_specs > 0 {
            return Err(
                "--load serves a saved registry; drop the spec.xml arguments and --gen-specs"
                    .into(),
            );
        }
        writeln!(out, "serving saved registry at {}", dir.display())?;
    } else {
        let started = std::time::Instant::now();
        let set = build_spec_set(
            opts.spec_paths,
            opts.gen_specs,
            opts.runs_per_spec,
            opts.target,
            opts.seed,
        )?;
        let mut total_runs = 0usize;
        for (i, (spec, fleet)) in set.into_iter().enumerate() {
            let kind = SchemeKind::ALL[i % SchemeKind::ALL.len()];
            let mut labeled = Vec::with_capacity(fleet.len());
            for g in &fleet {
                let (labels, _) = label_run(&spec, &g.run)?;
                labeled.push(labels);
                total_runs += 1;
            }
            payload.push((spec, kind, labeled));
        }
        writeln!(
            out,
            "serve: {} specs, {total_runs} runs labeled in {:.1} ms",
            payload.len(),
            started.elapsed().as_secs_f64() * 1e3,
        )?;
    }

    let config = ServeConfig {
        max_batch: opts.batch.max(1),
        window: std::time::Duration::from_micros(opts.window_us),
        queue_cap: opts.queue.max(1),
    };
    let shards = opts.shards.max(1);
    writeln!(
        out,
        "config: batch {} / window {} us / queue {}, \
         {shards} shard(s), {} client(s), arrival {:?}, mix {:?}",
        config.max_batch,
        opts.window_us,
        config.queue_cap,
        opts.clients.max(1),
        opts.arrival,
        opts.mix,
    )?;

    // Each shard's registry holds only the specs the plan routes there;
    // its context is that shard's slice of the probe address book the
    // traffic generator needs.
    type Book = Vec<(SpecId, Vec<(RunId, usize)>)>;
    let plan = ShardPlan::new();
    // Split the resident-byte budget across the shard registries so the
    // total stays what the caller asked for.
    let shard_budget = opts.budget.map(|b| (b / shards).max(1));
    let server = serve_sharded(config, shards, plan.clone(), |shard, shards| {
        let mut registry: ServiceRegistry<'static> = if let Some(dir) = opts.load {
            ServiceRegistry::open_dir_filtered(dir, shard_budget, |id| {
                plan.shard_of(id, shards) == shard
            })?
        } else {
            let mut registry = ServiceRegistry::new();
            registry.set_budget(shard_budget)?;
            for (spec, kind, labeled) in &payload {
                let id = SpecId::of(*kind, spec.graph());
                if plan.shard_of(id, shards) != shard {
                    continue;
                }
                let id = registry.register_spec(spec, *kind)?;
                for labels in labeled {
                    registry.register_labels(id, labels)?;
                }
            }
            registry
        };
        let ids: Vec<SpecId> = registry.spec_ids().collect();
        let mut book: Book = Vec::with_capacity(ids.len());
        for id in ids {
            book.push((id, probe_book(&mut registry, id)?));
        }
        Ok((registry, book))
    })
    .map_err(|e| format!("cannot start serving loop: {e}"))?;

    let book: Book = server
        .contexts()
        .iter()
        .flat_map(|shard_book| shard_book.iter().cloned())
        .collect();
    let probeable: Vec<usize> = (0..book.len()).filter(|&i| !book[i].1.is_empty()).collect();
    if opts.probes > 0 && probeable.is_empty() {
        let _ = server.shutdown();
        return Err("every run of every spec is empty: nothing to probe".into());
    }
    let mut rng = wfp_graph::rng::Xoshiro256::seed_from_u64(opts.seed ^ 0xF1EE_7BA7_C0FF_EE00);
    let picks = if opts.probes == 0 {
        Vec::new()
    } else {
        wfp_gen::spec_mix_indices(opts.mix, probeable.len(), opts.probes, opts.seed)
    };
    let traffic: Vec<Probe> = picks
        .into_iter()
        .map(|s| {
            let (id, runs) = &book[probeable[s]];
            let (run, n) = runs[rng.gen_usize(runs.len())];
            (
                *id,
                run,
                RunVertexId(rng.gen_usize(n) as u32),
                RunVertexId(rng.gen_usize(n) as u32),
            )
        })
        .collect();
    let offsets = wfp_gen::arrival_offsets_us(opts.arrival, traffic.len(), opts.seed);

    // Client c replays the strided slice c, c+C, c+2C, ... Closed-loop
    // clients block on each answer; open-loop clients submit on schedule
    // and drain their tickets afterwards, so a full admission cap surfaces
    // as dropped (shed) probes rather than back-pressure on the schedule.
    let clients = opts.clients.max(1);
    let closed_loop = opts.arrival == wfp_gen::Arrival::Closed;
    let started = std::time::Instant::now();
    let mut reachable = 0usize;
    let mut dropped = 0usize;
    let mut first_error: Option<ServeError> = None;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let handle = server.handle();
                let traffic = &traffic;
                let offsets = &offsets;
                scope.spawn(move || {
                    let epoch = std::time::Instant::now();
                    let mut reachable = 0usize;
                    let mut dropped = 0usize;
                    let mut first_error: Option<ServeError> = None;
                    let mut tickets = Vec::new();
                    for i in (c..traffic.len()).step_by(clients) {
                        if !closed_loop {
                            let at = std::time::Duration::from_micros(offsets[i]);
                            if let Some(wait) = at.checked_sub(epoch.elapsed()) {
                                std::thread::sleep(wait);
                            }
                        }
                        // Allocation-free single-probe path: no request
                        // `Vec`, no reply `Vec` — the answer bit rides the
                        // pooled slot.
                        match handle.submit_one(traffic[i]) {
                            Ok(ticket) if closed_loop => match ticket.wait_one() {
                                Ok(reached) => reachable += usize::from(reached),
                                Err(e) => {
                                    first_error.get_or_insert(e);
                                }
                            },
                            Ok(ticket) => tickets.push(ticket),
                            Err(ServeError::Overloaded) => dropped += 1,
                            Err(e) => {
                                first_error.get_or_insert(e);
                            }
                        }
                    }
                    for ticket in tickets {
                        match ticket.wait_one() {
                            Ok(reached) => reachable += usize::from(reached),
                            Err(e) => {
                                first_error.get_or_insert(e);
                            }
                        }
                    }
                    (reachable, dropped, first_error)
                })
            })
            .collect();
        for worker in workers {
            let (r, d, e) = worker.join().expect("client thread");
            reachable += r;
            dropped += d;
            if let Some(e) = e {
                first_error.get_or_insert(e);
            }
        }
    });
    let elapsed = started.elapsed().as_secs_f64();

    let sharded = server
        .shutdown()
        .map_err(|e| format!("serving loop did not shut down cleanly: {e}"))?;
    if let Some(e) = first_error {
        return Err(format!("probe failed while serving: {e}").into());
    }
    let stats = &sharded.merged;
    let answered = stats.probes_answered;
    writeln!(
        out,
        "traffic: {} probes, {answered} answered ({reachable} reachable), \
         {} failed, {dropped} dropped",
        traffic.len(),
        stats.probes_failed,
    )?;
    writeln!(
        out,
        "wall: {:.3} s -> {:.0} probes/s sustained across {clients} client(s)",
        elapsed,
        answered as f64 / elapsed.max(1e-9),
    )?;
    writeln!(
        out,
        "batches: {} ({} full / {} timer / {} drain); probes/batch p50 {} p99 {} max {}",
        stats.batches,
        stats.batches_full,
        stats.batches_timer,
        stats.batches_drain,
        stats.batch_probes.quantile(0.50).unwrap_or(0),
        stats.batch_probes.quantile(0.99).unwrap_or(0),
        stats.batch_probes.max(),
    )?;
    if shards > 1 {
        writeln!(out, "per-shard load:")?;
        for (i, s) in sharded.per_shard.iter().enumerate() {
            writeln!(
                out,
                "  shard {i}: {:>9} probes answered in {:>6} batches, {} failed",
                s.probes_answered, s.batches, s.probes_failed,
            )?;
        }
    }
    writeln!(out, "per-scheme serve latency (submit -> reply):")?;
    for kind in SchemeKind::ALL {
        let lat = stats.scheme(kind);
        if lat.probes == 0 {
            continue;
        }
        writeln!(
            out,
            "  {:<9} {:>9} probes   p50 {:>6} us   p99 {:>6} us",
            kind.to_string(),
            lat.probes,
            lat.p50_us().unwrap_or(0),
            lat.p99_us().unwrap_or(0),
        )?;
    }
    write!(
        out,
        "shutdown: clean; {} requests / {} batches / {} controls drained",
        stats.requests, stats.batches, stats.controls,
    )?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfp_model::fixtures::{paper_run, paper_spec};

    /// A path in this test's own directory, named from the pid and the
    /// test's thread name: parallel tests, and parallel test processes,
    /// never write the same file.
    fn tmp(name: &str) -> std::path::PathBuf {
        let thread = std::thread::current();
        let test = thread.name().unwrap_or("main").replace("::", "-");
        let dir = std::env::temp_dir()
            .join("wfp-cli-tests")
            .join(format!("{}-{test}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn write_paper_files() -> (std::path::PathBuf, std::path::PathBuf) {
        let spec = paper_spec();
        let run = paper_run(&spec);
        let sp = tmp("paper-spec.xml");
        let rp = tmp("paper-run.xml");
        fs::write(&sp, spec_to_xml(&spec)).unwrap();
        fs::write(&rp, run_to_xml(&run)).unwrap();
        (sp, rp)
    }

    #[test]
    fn validate_and_inspect() {
        let (sp, _) = write_paper_files();
        let v = cmd_validate(&sp).unwrap();
        assert!(v.contains("8 modules"), "{v}");
        assert!(v.contains("2 forks"), "{v}");
        let i = cmd_inspect(&sp).unwrap();
        assert!(i.contains("level 1: G"), "{i}");
        assert!(i.contains("level 3"), "{i}");
    }

    #[test]
    fn validate_rejects_bad_files() {
        // cyclic specification
        let p = tmp("bad.xml");
        fs::write(
            &p,
            "<specification>\
             <module id=\"0\" name=\"a\"/><module id=\"1\" name=\"b\"/>\
             <channel from=\"0\" to=\"1\"/><channel from=\"1\" to=\"0\"/>\
             </specification>",
        )
        .unwrap();
        assert!(cmd_validate(&p).is_err());
        assert!(cmd_validate(Path::new("/nonexistent/x.xml")).is_err());
        // a single-module spec is degenerate but legal (source == sink)
        let p1 = tmp("one.xml");
        fs::write(
            &p1,
            "<specification><module id=\"0\" name=\"a\"/></specification>",
        )
        .unwrap();
        assert!(cmd_validate(&p1).is_ok());
    }

    #[test]
    fn gen_roundtrip_plan_label_query() {
        let sp = tmp("gen-spec.xml");
        let cfg = SpecGenConfig {
            modules: 40,
            edges: 60,
            hierarchy_size: 6,
            hierarchy_depth: 3,
            seed: 5,
        };
        let msg = cmd_gen_spec(&cfg, &sp).unwrap();
        assert!(msg.contains("n_G = 40"), "{msg}");

        let rp = tmp("gen-run.xml");
        let msg = cmd_gen_run(&sp, 500, 3, &rp).unwrap();
        assert!(msg.contains("n_R ="), "{msg}");

        let msg = cmd_plan(&sp, &rp).unwrap();
        assert!(msg.contains("run conforms"), "{msg}");

        let lp = tmp("labels.wfpl");
        let msg = cmd_label(&sp, &rp, SchemeKind::Tcm, Some(&lp)).unwrap();
        assert!(msg.contains("bits/label"), "{msg}");
        let bytes = fs::read(&lp).unwrap();
        assert!(wfp_skl::EncodedLabels::from_bytes(&bytes).is_ok());
    }

    #[test]
    fn query_paper_claims() {
        let (sp, rp) = write_paper_files();
        let ans = cmd_query(&sp, &rp, "b1", "c3", SchemeKind::Tcm).unwrap();
        assert!(ans.contains("false"), "{ans}");
        assert!(ans.contains("context encodings"), "{ans}");
        let ans = cmd_query(&sp, &rp, "b1", "c1", SchemeKind::Bfs).unwrap();
        assert!(ans.contains("true"), "{ans}");
        assert!(cmd_query(&sp, &rp, "zz9", "c1", SchemeKind::Tcm).is_err());
    }

    #[test]
    fn query_batch_answers_pairs_file() {
        let (sp, rp) = write_paper_files();
        let pf = tmp("pairs.txt");
        fs::write(
            &pf,
            "# reachability probes\n\
             b1 c3\n\
             c1 b2\n\
             \n\
             a1 h1\n",
        )
        .unwrap();
        for threads in [1usize, 4] {
            let out = cmd_query_batch(&sp, &rp, &pf, SchemeKind::Tcm, threads).unwrap();
            let lines: Vec<&str> = out.lines().collect();
            assert_eq!(lines[0], "b1 c3 false", "{out}");
            assert_eq!(lines[1], "c1 b2 true", "{out}");
            assert_eq!(lines[2], "a1 h1 true", "{out}");
            assert!(lines[3].starts_with("# 3 queries: 2 reachable"), "{out}");
        }
    }

    #[test]
    fn query_batch_rejects_bad_files() {
        let (sp, rp) = write_paper_files();
        let bad_name = tmp("bad-name.txt");
        fs::write(&bad_name, "b1 zz9\n").unwrap();
        let err = cmd_query_batch(&sp, &rp, &bad_name, SchemeKind::Tcm, 1)
            .unwrap_err()
            .to_string();
        assert!(err.contains("zz9"), "{err}");
        assert!(err.contains(":1:"), "{err}");
        let bad_arity = tmp("bad-arity.txt");
        fs::write(&bad_arity, "b1 c1\nb1 b2 b3\n").unwrap();
        let err = cmd_query_batch(&sp, &rp, &bad_arity, SchemeKind::Tcm, 1)
            .unwrap_err()
            .to_string();
        assert!(err.contains(":2:"), "{err}");
        assert!(cmd_query_batch(
            &sp,
            &rp,
            Path::new("/nonexistent/p.txt"),
            SchemeKind::Tcm,
            1
        )
        .is_err());
    }

    #[test]
    fn query_batch_rejects_empty_pairs_file() {
        let (sp, rp) = write_paper_files();
        let empty = tmp("empty-pairs.txt");
        fs::write(&empty, "# only a comment\n\n").unwrap();
        let err = cmd_query_batch(&sp, &rp, &empty, SchemeKind::Tcm, 1)
            .unwrap_err()
            .to_string();
        assert!(err.contains("no queries"), "{err}");
    }

    #[test]
    fn gen_events_then_ingest_round_trips_with_probes() {
        let sp = tmp("live-spec.xml");
        let cfg = SpecGenConfig {
            modules: 40,
            edges: 60,
            hierarchy_size: 6,
            hierarchy_depth: 3,
            seed: 5,
        };
        cmd_gen_spec(&cfg, &sp).unwrap();
        let ep = tmp("live.events");
        let pp = tmp("live.probes");
        let msg = cmd_gen_events(&sp, 400, 3, &ep, Some((8, &pp))).unwrap();
        assert!(msg.contains("events"), "{msg}");
        assert!(msg.contains("probes"), "{msg}");

        let out = cmd_ingest(&sp, &ep, SchemeKind::Tcm, Some(&pp)).unwrap();
        assert!(out.contains("probes answered live"), "{out}");
        assert!(out.contains("parity check"), "{out}");
        // every scheduled probe produced an @EVENT# line
        let probe_lines = out.lines().filter(|l| l.starts_with('@')).count();
        assert!(probe_lines > 0, "{out}");
        assert!(
            out.contains(&format!("{probe_lines}/{probe_lines} probes agree")),
            "{out}"
        );

        // ingest without probes also works
        let out = cmd_ingest(&sp, &ep, SchemeKind::Bfs, None).unwrap();
        assert!(out.contains("0 probes answered live"), "{out}");
    }

    #[test]
    fn ingest_answers_probes_mid_stream_on_the_paper_run() {
        let (sp, _) = write_paper_files();
        let ep = tmp("paper.events");
        // the paper's Figure 3 structure: a, F1(2 copies of L2...), d, ...
        // Use a prefix: probes must answer while groups are still open.
        fs::write(
            &ep,
            "exec a\nbegin-group 0\nbegin-copy\nbegin-group 1\nbegin-copy\n\
             exec b\nexec c\nend-copy\nend-group\nend-copy\nend-group\nexec d\n",
        )
        .unwrap();
        let pp = tmp("paper.probes");
        // event 7 = right after `exec c`: b1 and c1 exist, run mid-flight
        fs::write(&pp, "7 a1 c1\n7 c1 b1\n").unwrap();
        let out = cmd_ingest(&sp, &ep, SchemeKind::Tcm, Some(&pp)).unwrap();
        assert!(out.contains("@7 a1 c1 true"), "{out}");
        assert!(out.contains("@7 c1 b1 false"), "{out}");
        // incomplete run (only part of the paper run): freeze is skipped
        assert!(out.contains("freeze skipped"), "{out}");
    }

    #[test]
    fn ingest_rejects_bad_inputs() {
        let (sp, _) = write_paper_files();
        let ep = tmp("bad.events");
        fs::write(&ep, "exec nosuch\n").unwrap();
        assert!(cmd_ingest(&sp, &ep, SchemeKind::Tcm, None).is_err());

        // protocol violation: exec outside the module's home copy
        fs::write(&ep, "exec b\n").unwrap();
        let err = cmd_ingest(&sp, &ep, SchemeKind::Tcm, None)
            .unwrap_err()
            .to_string();
        assert!(err.contains("event #1"), "{err}");

        // probe naming a vertex that has not executed yet
        fs::write(&ep, "exec a\n").unwrap();
        let pp = tmp("bad.probes");
        fs::write(&pp, "1 a1 zz9\n").unwrap();
        let err = cmd_ingest(&sp, &ep, SchemeKind::Tcm, Some(&pp))
            .unwrap_err()
            .to_string();
        assert!(err.contains("zz9"), "{err}");
        // malformed probe line
        fs::write(&pp, "not-a-number a1 a1\n").unwrap();
        assert!(cmd_ingest(&sp, &ep, SchemeKind::Tcm, Some(&pp)).is_err());
        fs::write(&pp, "1 a1\n").unwrap();
        assert!(cmd_ingest(&sp, &ep, SchemeKind::Tcm, Some(&pp)).is_err());
        // missing files
        assert!(cmd_ingest(&sp, Path::new("/nonexistent/e.log"), SchemeKind::Tcm, None).is_err());
    }

    fn fleet_opts<'a>(run_paths: &'a [&'a Path], gen_runs: usize, probes: usize) -> FleetOpts<'a> {
        FleetOpts {
            run_paths,
            gen_runs,
            target: 60,
            seed: 7,
            probes,
            scheme: SchemeKind::Bfs,
            save: None,
            load: None,
        }
    }

    #[test]
    fn fleet_serves_loaded_and_generated_runs() {
        let (sp, rp) = write_paper_files();
        let paths = [rp.as_path(), rp.as_path()];
        let out = cmd_fleet(&sp, &fleet_opts(&paths, 6, 5_000)).unwrap();
        assert!(out.contains("8 runs (2 loaded, 6 generated)"), "{out}");
        assert!(out.contains("5000 probes"), "{out}");
        assert!(out.contains("shared once"), "{out}");
        assert!(out.contains("8 independent engines would hold"), "{out}");
    }

    #[test]
    fn fleet_rejects_empty_and_bad_inputs() {
        let (sp, _) = write_paper_files();
        let err = cmd_fleet(&sp, &fleet_opts(&[], 0, 10))
            .unwrap_err()
            .to_string();
        assert!(err.contains("no runs"), "{err}");
        assert!(cmd_fleet(Path::new("/nonexistent/spec.xml"), &fleet_opts(&[], 2, 10)).is_err());
    }

    #[test]
    fn fleet_save_load_round_trip_restores_warm_serving() {
        let (sp, rp) = write_paper_files();
        let dir = tmp("fleet-snap");
        let paths = [rp.as_path()];
        let save_opts = FleetOpts {
            save: Some(&dir),
            ..fleet_opts(&paths, 3, 2_000)
        };
        let out = cmd_fleet(&sp, &save_opts).unwrap();
        assert!(out.contains("saved fleet snapshot"), "{out}");
        assert!(out.contains("4 run segments"), "{out}");
        assert!(dir.join(FLEET_SNAPSHOT_FILE).is_file());

        let load_opts = FleetOpts {
            load: Some(&dir),
            ..fleet_opts(&[], 0, 2_000)
        };
        let out = cmd_fleet(&sp, &load_opts).unwrap();
        assert!(out.contains("restored fleet"), "{out}");
        assert!(out.contains("4 runs (0 evicted), scheme BFS"), "{out}");
        assert!(out.contains("no re-labeling"), "{out}");
        assert!(out.contains("2000 probes"), "{out}");
        // the saved process's traffic warmed the memo; the restored fleet
        // answers the identical traffic without new skeleton probes
        assert!(out.contains("(0 probes,"), "{out}");

        // mixing --load with run sources is rejected
        let bad = FleetOpts {
            load: Some(&dir),
            ..fleet_opts(&paths, 0, 10)
        };
        let err = cmd_fleet(&sp, &bad).unwrap_err().to_string();
        assert!(err.contains("--load"), "{err}");
        // a snapshot for a different spec is rejected
        let other_sp = tmp("other-spec.xml");
        let cfg = SpecGenConfig {
            modules: 12,
            edges: 14,
            hierarchy_size: 4,
            hierarchy_depth: 3,
            seed: 9,
        };
        cmd_gen_spec(&cfg, &other_sp).unwrap();
        let err = cmd_fleet(&other_sp, &load_opts).unwrap_err().to_string();
        assert!(err.contains("different specification"), "{err}");
    }

    #[test]
    fn fleet_packed_serves_and_round_trips_smaller_snapshots() {
        use wfp_skl::snapshot::{seg, SnapshotReader};
        let (sp, rp) = write_paper_files();
        let paths = [rp.as_path()];

        let dir = tmp("fleet-packed-snap");
        let packed_opts = FleetOpts {
            save: Some(&dir),
            ..fleet_opts(&paths, 3, 2_000)
        };
        let saved = cmd_fleet(&sp, &packed_opts).unwrap();
        assert!(saved.contains("4 run segments"), "{saved}");
        // every run is saved bit-packed: four packed segments, no raw one
        let bytes = fs::read(dir.join(FLEET_SNAPSHOT_FILE)).unwrap();
        let r = SnapshotReader::parse(&bytes).unwrap();
        assert_eq!(r.all(seg::PACKED_COLUMNS_ALIGNED).count(), 4);
        assert_eq!(r.all(0x0003).count(), 0, "a raw run segment");

        // restore: runs come back packed, memo warm, no re-labeling
        let load_opts = FleetOpts {
            load: Some(&dir),
            ..fleet_opts(&[], 0, 2_000)
        };
        let out = cmd_fleet(&sp, &load_opts).unwrap();
        assert!(out.contains("restored fleet"), "{out}");
        assert!(out.contains("4 runs (0 evicted)"), "{out}");
        assert!(out.contains("(0 probes,"), "{out}");
        // decision counters are cumulative (the snapshot carries them), so
        // only the answers themselves are comparable after the reload
        let reachable = |s: &str| {
            let l = s.lines().find(|l| l.contains("2000 probes")).unwrap();
            l.split(';').next().unwrap().to_string()
        };
        assert_eq!(reachable(&out), reachable(&saved));
    }

    #[test]
    fn scheme_parsing() {
        assert_eq!(parse_scheme("TCM").unwrap(), SchemeKind::Tcm);
        assert_eq!(parse_scheme("treecover").unwrap(), SchemeKind::TreeCover);
        assert!(parse_scheme("nope").is_err());
    }

    #[test]
    fn budget_parsing_accepts_both_suffix_cases() {
        assert_eq!(parse_budget("4096").unwrap(), 4096);
        // lowercase and uppercase binary suffixes are interchangeable
        assert_eq!(parse_budget("512k").unwrap(), 512 << 10);
        assert_eq!(parse_budget("512K").unwrap(), 512 << 10);
        assert_eq!(parse_budget("64m").unwrap(), 64 << 20);
        assert_eq!(parse_budget("64M").unwrap(), 64 << 20);
        assert_eq!(parse_budget("2g").unwrap(), 2 << 30);
        assert_eq!(parse_budget("2G").unwrap(), 2 << 30);
        assert_eq!(parse_budget("  8K  ").unwrap(), 8 << 10, "whitespace trims");
    }

    #[test]
    fn budget_parsing_rejects_garbage_with_clear_errors() {
        // a bare suffix names the missing number, not a parse failure
        for bare in ["M", "k", "G", " m "] {
            let err = parse_budget(bare).unwrap_err().to_string();
            assert!(
                err.contains("missing the number before the suffix"),
                "{bare:?} -> {err}"
            );
        }
        assert!(parse_budget("").is_err());
        assert!(parse_budget("12xyzM").is_err());
        assert!(parse_budget("-4K").is_err());
        assert!(
            parse_budget(&format!("{}G", usize::MAX)).is_err(),
            "suffix multiplication overflow is a typed error"
        );
    }

    fn serve_opts(arrival: wfp_gen::Arrival, probes: usize) -> ServeOpts<'static> {
        ServeOpts {
            spec_paths: &[],
            gen_specs: 3,
            runs_per_spec: 2,
            target: 400,
            seed: 11,
            probes,
            clients: 4,
            arrival,
            budget: None,
            load: None,
            batch: 512,
            window_us: 100,
            queue: 256,
            shards: 1,
            mix: wfp_gen::SpecMix::Uniform,
        }
    }

    #[test]
    fn serve_answers_every_probe_closed_loop() {
        let out = cmd_serve(&serve_opts(wfp_gen::Arrival::Closed, 5_000)).unwrap();
        assert!(
            out.contains("5000 probes, 5000 answered"),
            "every submitted probe must come back: {out}"
        );
        assert!(out.contains("0 failed, 0 dropped"), "{out}");
        assert!(out.contains("shutdown: clean"), "{out}");
        assert!(out.contains("per-scheme serve latency"), "{out}");
        // 3 specs cycle through tcm/bfs/dfs — each scheme row appears
        for scheme in ["TCM", "BFS", "DFS"] {
            assert!(out.contains(scheme), "missing {scheme} row: {out}");
        }
    }

    #[test]
    fn serve_paces_open_loop_arrivals_and_reports_drops() {
        // an aggressive Poisson rate with a generous queue: probes may be
        // shed under overload, but answered + dropped must account for all
        let mut opts = serve_opts(wfp_gen::Arrival::Poisson { per_sec: 200_000.0 }, 3_000);
        opts.queue = 4096; // deep enough that nothing sheds in practice
        let out = cmd_serve(&opts).unwrap();
        assert!(out.contains("3000 probes"), "{out}");
        assert!(out.contains("0 failed"), "{out}");
        assert!(out.contains("shutdown: clean"), "{out}");
    }

    #[test]
    fn serve_sharded_zipf_answers_every_probe() {
        let mut opts = serve_opts(wfp_gen::Arrival::Closed, 4_000);
        opts.gen_specs = 4;
        opts.shards = 4;
        opts.mix = wfp_gen::SpecMix::Zipf { skew: 1.0 };
        let out = cmd_serve(&opts).unwrap();
        assert!(out.contains("4000 probes, 4000 answered"), "{out}");
        assert!(out.contains("0 failed, 0 dropped"), "{out}");
        assert!(out.contains("per-shard load:"), "{out}");
        assert!(out.contains("shutdown: clean"), "{out}");
    }

    #[test]
    fn serve_rejects_empty_inputs() {
        let mut opts = serve_opts(wfp_gen::Arrival::Closed, 10);
        opts.gen_specs = 0;
        let err = cmd_serve(&opts).unwrap_err().to_string();
        assert!(err.contains("no specs"), "{err}");
    }
}
