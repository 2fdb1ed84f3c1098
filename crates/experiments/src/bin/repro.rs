//! `repro` — regenerate any table or figure of the paper.
//!
//! ```text
//! repro <experiment>... [--full] [--shots N] [--threads N] [--out DIR]
//!                       [--min-failures N] [--rse X] [--max-shots N]
//!                       [--resume FILE] [--policy SPEC] [--trace FILE]
//! repro all [--full]
//! repro --list
//! repro check [--dem FILE | --distance D [--kind K] | --policy SPEC | --qasm FILE]
//!             [--window W]
//! ```
//!
//! Experiments: fig1c fig1d fig3c fig4a fig4b fig6 fig7 fig10 fig11
//! fig14 fig15 fig16 fig17 fig18 fig19 fig20 fig21 fig22 table1 table2
//! runtime (fig19 includes table4; fig21 includes table5; `runtime` is
//! the program-level {workload x policy} runtime/overhead evaluation).
//! `--list` prints the known experiment names and exits 0. Markdown
//! goes to stdout; CSVs to `--out` (default `results/`).
//!
//! Every LER experiment evaluates each configuration through one
//! loop: it samples in deterministic chunks and stops at the first
//! batch where its stop rule holds. By default the rule is a ceiling
//! of `--shots N`, a fixed-shot run. `--min-failures N` and `--rse X`
//! add early-stop criteria to that loop: a configuration stops as soon
//! as every observable has accumulated `N` failures or reached a
//! relative standard error of `X`, bounded by the hard ceiling
//! `--max-shots N` (default 100x the preset shots when any of the
//! three flags is given). `--resume FILE` applies to every LER run: it
//! checkpoints each configuration's partial estimate to a JSON file
//! after every chunk and resumes from it on restart, so long `--full`
//! runs survive interruption and a finished run replays without
//! sampling. Results are bit-identical for a fixed seed regardless of
//! `--threads`.
//!
//! `--policy SPEC` restricts the policy-sweep experiments (currently
//! `runtime`) to one synchronization policy, named in the
//! `PolicySpec` grammar: `passive`, `active`, `active-intra`,
//! `extra-rounds`, `hybrid[:eps=400,max=5]`,
//! `dynamic-hybrid[:eps=400,floor=50,q=0.25,max=5,deep=25]`. The same
//! strings
//! appear in the emitted tables' policy column, so any reported row
//! can be re-run verbatim.
//!
//! `repro check` statically validates reproduction artifacts without
//! running a single shot, using [`ftqc_analyzer::artifact`]: a `.dem`
//! file's well-formedness and round structure (`FTQC010`–`FTQC012`),
//! the decoding graph and scratch capacity built from it (`FTQC013`,
//! `FTQC014`), a policy spec's parameter domains (`FTQC015`), an
//! experiment distance (`FTQC016`), or an OpenQASM file (`FTQC017`).
//! `--window W` additionally checks a fused streaming window against
//! the graph from `--dem` or `--distance`: windows shorter than the
//! graph's maximum round-spanning edge reach + 1 are rejected
//! (`FTQC018`), since such a window can never hold both endpoints of
//! that edge at once. Diagnostics go to stderr and exit 2; clean
//! inputs report `ok` and exit 0 — the same contract as every other
//! pre-flight flag.
//!
//! `--trace FILE` records a cross-layer telemetry trace of the whole
//! run (sampling, scanning, decoding, streaming commits, runtime
//! merges, adaptive stop rules) and writes Chrome trace-event JSON to
//! `FILE` — load it in Perfetto — plus an aggregated span/counter
//! summary to `FILE.summary.json`. An unwritable `FILE` exits 2 with
//! usage before any shots run, like every other bad flag.

use ftqc_experiments as exp;
use ftqc_experiments::{CheckpointStore, Config, Table};
use ftqc_sim::StopRule;
use ftqc_sync::PolicySpec;
use std::path::PathBuf;
use std::sync::Arc;

const ALL: &[&str] = &[
    "fig1c", "fig1d", "fig3c", "fig4a", "fig4b", "fig6", "fig7", "fig10", "fig11", "fig14",
    "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "fig22", "table1", "table2",
    "runtime",
];

/// Aliases accepted in addition to [`ALL`] (tables embedded in
/// figures).
const ALIASES: &[&str] = &["table4", "table5"];

fn is_known(name: &str) -> bool {
    ALL.contains(&name) || ALIASES.contains(&name)
}

fn run_one(name: &str, config: &Config) -> Option<Vec<Table>> {
    let tables = match name {
        "fig1c" => exp::fig01c::run(config),
        "fig1d" => exp::fig1d::run(config),
        "fig3c" => exp::fig03c::run(config),
        "fig4a" => exp::fig04a::run(config),
        "fig4b" => exp::fig04b::run(config),
        "fig6" => exp::fig06::run(config),
        "fig7" => exp::fig07::run(config),
        "fig10" => exp::fig10::run(config),
        "fig11" => exp::fig11::run(config),
        "fig14" => exp::fig14::run(config),
        "fig15" => exp::fig15::run(config),
        "fig16" => exp::fig16::run(config),
        "fig17" => exp::fig17::run(config),
        "fig18" => exp::fig18::run(config),
        "fig19" | "table4" => exp::fig19_table4::run(config),
        "fig20" => exp::fig20::run(config),
        "fig21" | "table5" => exp::fig21_table5::run(config),
        "fig22" => exp::fig22::run(config),
        "table1" => exp::table1::run(config),
        "table2" => exp::table2::run(config),
        "runtime" => exp::runtime::run(config),
        _ => return None,
    };
    Some(tables)
}

fn usage_and_exit() -> ! {
    eprintln!(
        "usage: repro <experiment>... [--full] [--shots N] [--threads N] [--out DIR] \
         [--min-failures N] [--rse X] [--max-shots N] [--resume FILE] [--policy SPEC] \
         [--trace FILE]"
    );
    eprintln!("       repro --list");
    eprintln!(
        "       repro check [--dem FILE | --distance D [--kind K] | --policy SPEC | --qasm FILE] \
         [--window W]"
    );
    eprintln!("experiments: {} all", ALL.join(" "));
    eprintln!("aliases: {}", ALIASES.join(" "));
    eprintln!(
        "LER runs stop at --shots N unless --min-failures/--rse add early-stop criteria \
         (ceiling --max-shots); --resume checkpoints every LER run"
    );
    std::process::exit(2);
}

/// `repro check`: static artifact validation via
/// [`ftqc_analyzer::artifact`]. Runs no shots — parses/builds the
/// requested artifact, cross-checks its invariants, and exits 0
/// (clean, one `ok` line per target on stdout) or 2 (diagnostics on
/// stderr, same as every other pre-flight failure).
fn check_and_exit(args: &[String]) -> ! {
    use ftqc_analyzer::artifact;
    use ftqc_decoder::Decoder as _;

    let mut dem: Option<PathBuf> = None;
    let mut distance: Option<u64> = None;
    let mut kind_name: Option<String> = None;
    let mut policy: Option<String> = None;
    let mut qasm: Option<PathBuf> = None;
    let mut window: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--dem" => dem = Some(PathBuf::from(flag_value(args, &mut i, "--dem"))),
            "--distance" => {
                distance = Some(parse_or_exit(
                    flag_value(args, &mut i, "--distance"),
                    "--distance",
                ))
            }
            "--kind" => kind_name = Some(flag_value(args, &mut i, "--kind").to_string()),
            "--policy" => policy = Some(flag_value(args, &mut i, "--policy").to_string()),
            "--qasm" => qasm = Some(PathBuf::from(flag_value(args, &mut i, "--qasm"))),
            "--window" => {
                window = Some(parse_or_exit(
                    flag_value(args, &mut i, "--window"),
                    "--window",
                ))
            }
            flag => {
                eprintln!("check: unknown argument `{flag}`");
                usage_and_exit();
            }
        }
        i += 1;
    }
    if dem.is_none() && distance.is_none() && policy.is_none() && qasm.is_none() {
        eprintln!("check: nothing to check (pass --dem, --distance, --policy or --qasm)");
        usage_and_exit();
    }
    if kind_name.is_some() && distance.is_none() {
        eprintln!("check: --kind only applies with --distance");
        usage_and_exit();
    }
    if window.is_some() && dem.is_none() && distance.is_none() {
        eprintln!("check: --window needs a graph to check against (pass --dem or --distance)");
        usage_and_exit();
    }
    let kind = match kind_name.as_deref() {
        None | Some("union-find") => ftqc_decoder::DecoderKind::UnionFind,
        Some("mwpm") => ftqc_decoder::DecoderKind::Mwpm,
        Some("lut") => ftqc_decoder::DecoderKind::lut(),
        Some("hierarchical") => ftqc_decoder::DecoderKind::hierarchical(),
        Some(other) => {
            eprintln!("check: unknown decoder kind `{other}` (union-find mwpm lut hierarchical)");
            usage_and_exit();
        }
    };

    let mut diags = Vec::new();
    let mut passed: Vec<String> = Vec::new();

    if let Some(path) = &dem {
        let label = path.display().to_string();
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("check: cannot read {label}: {e}");
            std::process::exit(2);
        });
        match artifact::DemFile::parse(&label, &text) {
            Err(parse_diags) => diags.extend(parse_diags),
            Ok(file) => {
                let semantic = file.validate(&label);
                if semantic.is_empty() {
                    // Only a semantically valid DEM can be promoted to a
                    // model; then cross-check the graph and scratch
                    // capacity built from it.
                    let model = file.to_model();
                    let graph = ftqc_decoder::DecodingGraph::from_dem(&model);
                    diags.extend(artifact::validate_graph(&label, &model, &graph));
                    if let Some(w) = window {
                        // Round tags from the file's `detector` lines,
                        // indexed by detector id.
                        let mut rounds: Vec<(u32, u32)> = file
                            .detectors
                            .iter()
                            .map(|&(_, id, r)| (id, r as u32))
                            .collect();
                        rounds.sort_unstable();
                        diags.extend(artifact::validate_window(
                            &label,
                            &graph,
                            |d| rounds[d as usize].1,
                            w as u32,
                        ));
                    }
                    let decoder = ftqc_decoder::UfDecoder::new(graph);
                    diags.extend(artifact::validate_scratch(
                        &label,
                        &model,
                        decoder.scratch_capacity(),
                    ));
                } else {
                    diags.extend(semantic);
                }
            }
        }
        if diags.is_empty() {
            passed.push(format!("dem {label}"));
        }
    }
    if let Some(d) = distance {
        let domain = artifact::validate_distance(d);
        if domain.is_empty() {
            // Build the full circuit -> DEM -> graph -> decoder chain at
            // this distance and cross-check it, without running shots.
            let hw = ftqc_noise::HardwareConfig::ibm();
            let pipeline =
                exp::EvalPipeline::memory(ftqc_surface::MemoryConfig::new(d as u32, d as u32, &hw))
                    .decoder(kind)
                    .build();
            let label = format!("<distance {d}, {kind}>");
            diags.extend(artifact::validate_graph(
                &label,
                pipeline.dem(),
                pipeline.graph(),
            ));
            diags.extend(artifact::validate_scratch(
                &label,
                pipeline.dem(),
                pipeline.decoder().scratch_capacity(),
            ));
            if let Some(w) = window {
                let schedule = ftqc_sim::RoundSchedule::from_circuit(pipeline.circuit());
                diags.extend(artifact::validate_window(
                    &label,
                    pipeline.graph(),
                    |det| schedule.round_of(det),
                    w as u32,
                ));
            }
            if diags.is_empty() {
                passed.push(format!("distance {d} ({kind})"));
            }
        } else {
            diags.extend(domain);
        }
    }
    if let Some(spec) = &policy {
        let policy_diags = artifact::validate_policy(spec);
        if policy_diags.is_empty() {
            passed.push(format!("policy {spec}"));
        }
        diags.extend(policy_diags);
    }
    if let Some(path) = &qasm {
        let label = path.display().to_string();
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("check: cannot read {label}: {e}");
            std::process::exit(2);
        });
        let qasm_diags = artifact::validate_qasm(&label, &text);
        if qasm_diags.is_empty() {
            passed.push(format!("qasm {label}"));
        }
        diags.extend(qasm_diags);
    }

    if diags.is_empty() {
        for target in &passed {
            println!("repro check: ok ({target})");
        }
        std::process::exit(0);
    }
    eprint!("{}", ftqc_analyzer::render_human(&diags));
    std::process::exit(2);
}

/// `repro --list`: the discoverability path — every runnable experiment
/// name on stdout, one per line, exit 0 (no need to trip the exit-2
/// validation to learn the names).
fn list_and_exit() -> ! {
    for name in ALL {
        println!("{name}");
    }
    for name in ALIASES {
        println!("{name}");
    }
    std::process::exit(0);
}

/// The value following a flag; exits with usage on a trailing flag.
fn flag_value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> &'a str {
    *i += 1;
    match args.get(*i) {
        Some(v) => v,
        None => {
            eprintln!("{flag} requires a value");
            usage_and_exit();
        }
    }
}

fn parse_or_exit<T: std::str::FromStr>(value: &str, flag: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("{flag} takes a number, got `{value}`");
        usage_and_exit();
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "check") {
        check_and_exit(&args[1..]);
    }
    let mut config = Config::quick();
    let mut out_dir = PathBuf::from("results");
    let mut experiments: Vec<String> = Vec::new();
    let mut min_failures: Option<u64> = None;
    let mut max_rse: Option<f64> = None;
    let mut max_shots: Option<u64> = None;
    let mut resume: Option<PathBuf> = None;
    let mut trace: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--list" => list_and_exit(),
            "--full" => config = Config::full(),
            "--shots" => {
                config.shots = parse_or_exit(flag_value(&args, &mut i, "--shots"), "--shots")
            }
            "--threads" => {
                config.threads = parse_or_exit(flag_value(&args, &mut i, "--threads"), "--threads")
            }
            "--out" => out_dir = PathBuf::from(flag_value(&args, &mut i, "--out")),
            "--min-failures" => {
                min_failures = Some(parse_or_exit(
                    flag_value(&args, &mut i, "--min-failures"),
                    "--min-failures",
                ))
            }
            "--rse" => max_rse = Some(parse_or_exit(flag_value(&args, &mut i, "--rse"), "--rse")),
            "--max-shots" => {
                max_shots = Some(parse_or_exit(
                    flag_value(&args, &mut i, "--max-shots"),
                    "--max-shots",
                ))
            }
            "--resume" => resume = Some(PathBuf::from(flag_value(&args, &mut i, "--resume"))),
            "--policy" => {
                let spec = flag_value(&args, &mut i, "--policy");
                match spec.parse::<PolicySpec>() {
                    Ok(p) => config.policy = Some(p),
                    Err(e) => {
                        eprintln!("--policy: {e}");
                        std::process::exit(2);
                    }
                }
            }
            "--trace" => trace = Some(PathBuf::from(flag_value(&args, &mut i, "--trace"))),
            "all" => experiments.extend(ALL.iter().map(|s| s.to_string())),
            flag if flag.starts_with("--") => {
                // An unknown flag must never be mistaken for an experiment
                // name: fail with usage, matching the bad-`--policy`
                // contract, before any shots run.
                eprintln!("unknown flag `{flag}`");
                usage_and_exit();
            }
            name => experiments.push(name.to_string()),
        }
        i += 1;
    }
    if experiments.is_empty() {
        usage_and_exit();
    }
    // Range-check flag values up front, so out-of-range inputs exit
    // with usage instead of tripping library asserts mid-run.
    for (flag, bad) in [
        ("--shots", config.shots == 0),
        ("--threads", config.threads == 0),
        ("--min-failures", min_failures == Some(0)),
        ("--max-shots", max_shots == Some(0)),
        ("--rse", max_rse.is_some_and(|r| !r.is_finite() || r <= 0.0)),
    ] {
        if bad {
            eprintln!("{flag} must be a positive number");
            usage_and_exit();
        }
    }
    // Reject unknown experiment names up front — never run half a
    // request and then fail.
    let unknown: Vec<&str> = experiments
        .iter()
        .map(String::as_str)
        .filter(|n| !is_known(n))
        .collect();
    if !unknown.is_empty() {
        eprintln!("unknown experiment(s): {}", unknown.join(" "));
        eprintln!("valid experiments: {} all", ALL.join(" "));
        eprintln!("aliases: {}", ALIASES.join(" "));
        std::process::exit(2);
    }
    // Validate the trace destination before any shots run: an unwritable
    // path must exit 2 with usage now, not lose an hour-long run at the
    // final write.
    let sink = trace.as_ref().map(|path| {
        if let Err(e) = std::fs::File::create(path) {
            eprintln!("--trace: cannot write {}: {e}", path.display());
            usage_and_exit();
        }
        let sink = Arc::new(ftqc_telemetry::RingSink::new());
        ftqc_telemetry::install(sink.clone());
        sink
    });
    if min_failures.is_some() || max_rse.is_some() || max_shots.is_some() {
        let ceiling = max_shots.unwrap_or_else(|| config.shots.saturating_mul(100).max(1));
        let mut rule = StopRule::max_shots(ceiling);
        if let Some(f) = min_failures {
            rule = rule.min_failures(f);
        }
        if let Some(r) = max_rse {
            rule = rule.max_rse(r);
        }
        config.stop = Some(rule);
        eprintln!("stop rule: min_failures={min_failures:?} rse={max_rse:?} ceiling={ceiling}");
    }
    if let Some(path) = resume {
        match CheckpointStore::open(&path) {
            Ok(store) => {
                if !store.is_empty() {
                    eprintln!(
                        "resuming {} checkpointed configuration(s) from {}",
                        store.len(),
                        path.display()
                    );
                }
                config.checkpoint = Some(Arc::new(store));
            }
            Err(e) => {
                eprintln!("could not open checkpoint {}: {e}", path.display());
                std::process::exit(2);
            }
        }
    }
    for name in &experiments {
        let started = std::time::Instant::now();
        match run_one(name, &config) {
            Some(tables) => {
                for table in &tables {
                    println!("{}", table.to_markdown());
                    if let Err(e) = table.save_csv(&out_dir) {
                        eprintln!("warning: could not save {}: {e}", table.name);
                    }
                }
                eprintln!("[{name}] done in {:.1}s", started.elapsed().as_secs_f64());
            }
            None => {
                // Unreachable after upfront validation; kept as a
                // defensive exit path.
                eprintln!("unknown experiment `{name}`; known: {}", ALL.join(" "));
                std::process::exit(2);
            }
        }
    }
    if let (Some(path), Some(sink)) = (trace, sink) {
        ftqc_telemetry::uninstall();
        let snapshot = sink.snapshot();
        if let Err(e) = std::fs::write(&path, ftqc_telemetry::chrome_trace_json(&snapshot)) {
            eprintln!("could not write trace {}: {e}", path.display());
            std::process::exit(1);
        }
        let summary_path = {
            let mut os = path.clone().into_os_string();
            os.push(".summary.json");
            PathBuf::from(os)
        };
        let summary = ftqc_telemetry::summarize(&snapshot);
        if let Err(e) = std::fs::write(&summary_path, ftqc_telemetry::summary_json(&summary)) {
            eprintln!("could not write summary {}: {e}", summary_path.display());
            std::process::exit(1);
        }
        let events: usize = snapshot.threads.iter().map(|t| t.events.len()).sum();
        eprintln!(
            "trace: {events} events from {} thread(s) -> {} (+ {})",
            snapshot.threads.len(),
            path.display(),
            summary_path.display()
        );
    }
}
