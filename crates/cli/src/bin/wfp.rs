//! The `wfp` command-line tool. See `wfp --help`.

use std::path::PathBuf;
use std::process::exit;

use wfp_cli::*;
use wfp_gen::SpecGenConfig;
use wfp_speclabel::SchemeKind;

const USAGE: &str = "\
wfp — workflow provenance tools (skeleton-label reachability)

usage:
  wfp validate <spec.xml>
  wfp inspect  <spec.xml>
  wfp gen-spec -n MODULES -m EDGES -k HIERARCHY -d DEPTH [--seed S] -o OUT
  wfp gen-run  <spec.xml> --target VERTICES [--seed S] -o OUT
  wfp gen-events <spec.xml> --target VERTICES [--seed S] -o OUT
               [--probes K --probe-out FILE]
  wfp plan     <spec.xml> <run.xml>
  wfp label    <spec.xml> <run.xml> [--scheme KIND] [-o OUT.wfpl]
  wfp query    <spec.xml> <run.xml> <from> <to> [--scheme KIND]
  wfp query    <spec.xml> <run.xml> --pairs FILE [--threads N] [--scheme KIND]
  wfp ingest   <spec.xml> <events.log> [--scheme KIND] [--probe FILE]
  wfp fleet    <spec.xml> [run.xml...] [--runs K] [--target VERTICES]
               [--seed S] [--probes M] [--scheme KIND] [--save DIR]
               [--load DIR]
  wfp registry [spec.xml...] [--gen-specs N] [--runs K] [--target VERTICES]
               [--seed S] [--probes M] [--budget BYTES] [--save DIR]
               [--load DIR]
  wfp serve    [spec.xml...] [--gen-specs N] [--runs K] [--target VERTICES]
               [--seed S] [--probes M] [--clients C] [--arrival PATTERN]
               [--budget BYTES] [--load DIR] [--batch N] [--window US]
               [--queue N] [--shards S] [--mix MIX]

KIND: tcm | bfs | dfs | treecover | chain | 2hop   (default: tcm)
vertex names use the paper's numbered form, e.g. b3 = third execution of b;
--pairs batch mode reads one \"from to\" query per line (#-comments allowed)
and answers all of them through the batched query engine, split over
--threads N worker threads (default 1).
ingest replays a line-based event log through the live (query-while-running)
engine; --probe FILE schedules \"EVENT# FROM TO\" queries answered mid-stream,
then re-checked against the frozen labels when the run completes.
fleet loads the given runs and/or generates --runs more, registers them all
under one shared skeleton context (each run's label columns bit-packed),
answers --probes mixed cross-run queries (default 1000000) and reports the
shared-vs-duplicated memory accounting. --save DIR persists the serving
fleet (spec record + warm memo + per-run packed label columns) to
DIR/fleet.wfps; --load DIR restores it warm, with no re-labeling (drop
run.xml/--runs when loading).
registry serves many specs at once, each by its own fleet behind one
content-addressed registry (schemes cycle per spec); --budget BYTES (or
e.g. 64M, 512K) evicts least-recently-used fleets to their snapshot under
memory pressure, --save DIR writes one *.wfps per spec + registry.manifest,
and --load DIR opens the directory lazily: each fleet loads on first probe
(runs are packed as they register, so reloads bind the snapshot zero-copy).
serve runs the same multi-spec registry behind the request/response loop:
--clients C threads replay --probes M mixed probes, at most --queue N
requests in flight, coalesced into batches of up to --batch probes per
--window US microseconds. PATTERN is closed (default; submit as answers
return) or open-loop uniform:RATE | poisson:RATE | bursty:RATE:BURST in
probes/second; an open-loop submit beyond --queue sheds its probe
(reported as dropped). --shards S runs S shard workers, one thread each
and the server's only parallelism, each owning the registry slice a
deterministic spec-affinity plan routes to it (probes fan out by spec and
reassemble in submission order); --budget splits evenly across the
shards. MIX is uniform (default) or zipf:SKEW, which skews the spec mix
onto a hot head shard. The report shows sustained throughput, the
batch-size histogram, per-shard load and per-scheme p50/p99 serve
latency.
A flag the command does not take, or one given twice, is an error.";

struct Args {
    positional: Vec<String>,
    flags: std::collections::HashMap<String, String>,
}

/// The flags `command` takes, space-separated, or `None` for an unknown
/// command. Every flag takes a value.
fn accepted_flags(command: &str) -> Option<&'static str> {
    Some(match command {
        "validate" | "inspect" | "plan" | "--help" | "-h" | "help" => "",
        "gen-spec" => "n m k d seed o",
        "gen-run" => "target seed o",
        "gen-events" => "target seed o probes probe-out",
        "ingest" => "scheme probe",
        "label" => "scheme o",
        "query" => "scheme pairs threads",
        "fleet" => "runs target seed probes scheme save load",
        "registry" => "gen-specs runs target seed probes budget save load",
        "serve" => {
            "gen-specs runs target seed probes clients arrival budget load batch window \
             queue shards mix"
        }
        _ => return None,
    })
}

/// Splits `argv` into positional arguments and `--name value` / `-n value`
/// flags; a flag given twice is an error, like a flag without a value.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut positional = Vec::new();
    let mut flags = std::collections::HashMap::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let name = match a.strip_prefix("--") {
            Some(name) => name,
            None => match a.strip_prefix('-') {
                Some(name) if name.len() == 1 => name,
                Some(_) => return Err(format!("unknown flag {a}")),
                None => {
                    positional.push(a.clone());
                    continue;
                }
            },
        };
        let value = it.next().ok_or_else(|| format!("{a} needs a value"))?;
        if flags.insert(name.to_string(), value.clone()).is_some() {
            return Err(format!("{a} given more than once"));
        }
    }
    Ok(Args { positional, flags })
}

impl Args {
    fn path(&self, i: usize) -> Result<PathBuf, String> {
        self.positional
            .get(i)
            .map(PathBuf::from)
            .ok_or_else(|| format!("missing argument #{}", i + 1))
    }

    fn num<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.flags.get(flag) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("bad value for --{flag}: {v:?}")),
        }
    }

    fn required_num<T: std::str::FromStr>(&self, flag: &str) -> Result<T, String> {
        self.num(flag)?
            .ok_or_else(|| format!("missing required flag -{flag}"))
    }

    fn scheme(&self) -> Result<SchemeKind, CliError> {
        match self.flags.get("scheme") {
            None => Ok(SchemeKind::Tcm),
            Some(s) => parse_scheme(s),
        }
    }
}

fn run() -> Result<String, CliError> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first().cloned() else {
        return Err(USAGE.into());
    };
    let args = parse_args(&argv[1..])?;
    let Some(accepted) = accepted_flags(&command) else {
        return Err(format!("unknown command {command:?}\n\n{USAGE}").into());
    };
    // checked before any work, so a mistyped flag changes nothing
    let takes = |name: &str| accepted.split_whitespace().any(|flag| flag == name);
    if let Some(name) = args.flags.keys().filter(|name| !takes(name)).min() {
        let dashes = if name.len() == 1 { "-" } else { "--" };
        return Err(format!("unknown flag {dashes}{name} for wfp {command}").into());
    }
    match command.as_str() {
        "validate" => cmd_validate(&args.path(0)?),
        "inspect" => cmd_inspect(&args.path(0)?),
        "gen-spec" => {
            let cfg = SpecGenConfig {
                modules: args.required_num("n")?,
                edges: args.required_num("m")?,
                hierarchy_size: args.required_num("k")?,
                hierarchy_depth: args.required_num("d")?,
                seed: args.num("seed")?.unwrap_or(0),
            };
            let out = args
                .flags
                .get("o")
                .map(PathBuf::from)
                .ok_or("missing -o OUT")?;
            cmd_gen_spec(&cfg, &out)
        }
        "gen-run" => {
            let out = args
                .flags
                .get("o")
                .map(PathBuf::from)
                .ok_or("missing -o OUT")?;
            cmd_gen_run(
                &args.path(0)?,
                args.required_num("target")?,
                args.num("seed")?.unwrap_or(0),
                &out,
            )
        }
        "gen-events" => {
            let out = args
                .flags
                .get("o")
                .map(PathBuf::from)
                .ok_or("missing -o OUT")?;
            let probes = match (args.num::<usize>("probes")?, args.flags.get("probe-out")) {
                (Some(k), Some(p)) => Some((k, PathBuf::from(p))),
                (None, None) => None,
                _ => return Err("--probes and --probe-out go together".into()),
            };
            cmd_gen_events(
                &args.path(0)?,
                args.required_num("target")?,
                args.num("seed")?.unwrap_or(0),
                &out,
                probes.as_ref().map(|(k, p)| (*k, p.as_path())),
            )
        }
        "ingest" => cmd_ingest(
            &args.path(0)?,
            &args.path(1)?,
            args.scheme()?,
            args.flags.get("probe").map(PathBuf::from).as_deref(),
        ),
        "plan" => cmd_plan(&args.path(0)?, &args.path(1)?),
        "label" => cmd_label(
            &args.path(0)?,
            &args.path(1)?,
            args.scheme()?,
            args.flags.get("o").map(PathBuf::from).as_deref(),
        ),
        "query" => {
            if let Some(pairs) = args.flags.get("pairs") {
                if args.positional.len() > 2 {
                    return Err("--pairs batch mode takes no <from>/<to> arguments".into());
                }
                cmd_query_batch(
                    &args.path(0)?,
                    &args.path(1)?,
                    &PathBuf::from(pairs),
                    args.scheme()?,
                    args.num("threads")?.unwrap_or(1),
                )
            } else if args.flags.contains_key("threads") {
                Err("--threads requires --pairs batch mode".into())
            } else {
                let from = args.positional.get(2).ok_or("missing <from> vertex")?;
                let to = args.positional.get(3).ok_or("missing <to> vertex")?;
                cmd_query(&args.path(0)?, &args.path(1)?, from, to, args.scheme()?)
            }
        }
        "fleet" => {
            let spec = args.path(0)?;
            let run_paths: Vec<PathBuf> = args.positional[1..].iter().map(PathBuf::from).collect();
            let refs: Vec<&std::path::Path> = run_paths.iter().map(PathBuf::as_path).collect();
            let save = args.flags.get("save").map(PathBuf::from);
            let load = args.flags.get("load").map(PathBuf::from);
            cmd_fleet(
                &spec,
                &FleetOpts {
                    run_paths: &refs,
                    gen_runs: args.num("runs")?.unwrap_or(0),
                    target: args.num("target")?.unwrap_or(10_000),
                    seed: args.num("seed")?.unwrap_or(0),
                    probes: args.num("probes")?.unwrap_or(1_000_000),
                    scheme: args.scheme()?,
                    save: save.as_deref(),
                    load: load.as_deref(),
                },
            )
        }
        "registry" => {
            let spec_paths: Vec<PathBuf> = args.positional.iter().map(PathBuf::from).collect();
            let refs: Vec<&std::path::Path> = spec_paths.iter().map(PathBuf::as_path).collect();
            let save = args.flags.get("save").map(PathBuf::from);
            let load = args.flags.get("load").map(PathBuf::from);
            let budget = args
                .flags
                .get("budget")
                .map(|b| parse_budget(b))
                .transpose()?;
            cmd_registry(&RegistryOpts {
                spec_paths: &refs,
                gen_specs: args.num("gen-specs")?.unwrap_or(0),
                runs_per_spec: args.num("runs")?.unwrap_or(4),
                target: args.num("target")?.unwrap_or(2_000),
                seed: args.num("seed")?.unwrap_or(0),
                probes: args.num("probes")?.unwrap_or(100_000),
                budget,
                save: save.as_deref(),
                load: load.as_deref(),
            })
        }
        "serve" => {
            let spec_paths: Vec<PathBuf> = args.positional.iter().map(PathBuf::from).collect();
            let refs: Vec<&std::path::Path> = spec_paths.iter().map(PathBuf::as_path).collect();
            let load = args.flags.get("load").map(PathBuf::from);
            let budget = args
                .flags
                .get("budget")
                .map(|b| parse_budget(b))
                .transpose()?;
            let arrival = match args.flags.get("arrival") {
                None => wfp_gen::Arrival::Closed,
                Some(text) => wfp_gen::Arrival::parse(text)?,
            };
            let mix = match args.flags.get("mix") {
                None => wfp_gen::SpecMix::Uniform,
                Some(text) => wfp_gen::SpecMix::parse(text)?,
            };
            cmd_serve(&ServeOpts {
                spec_paths: &refs,
                gen_specs: args.num("gen-specs")?.unwrap_or(0),
                runs_per_spec: args.num("runs")?.unwrap_or(4),
                target: args.num("target")?.unwrap_or(2_000),
                seed: args.num("seed")?.unwrap_or(0),
                probes: args.num("probes")?.unwrap_or(100_000),
                clients: args.num("clients")?.unwrap_or(4),
                arrival,
                budget,
                load: load.as_deref(),
                batch: args.num("batch")?.unwrap_or(8192),
                window_us: args.num("window")?.unwrap_or(200),
                queue: args.num("queue")?.unwrap_or(1024),
                shards: args.num("shards")?.unwrap_or(1),
                mix,
            })
        }
        "--help" | "-h" | "help" => Ok(USAGE.to_string()),
        _ => unreachable!("accepted_flags knows every command"),
    }
}

fn main() {
    match run() {
        Ok(msg) => println!("{msg}"),
        Err(e) => {
            eprintln!("{e}");
            exit(1);
        }
    }
}
