//! `perfbench`: one command for the simulator's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload bursty_machine --seed 42 --seconds 24 --trace 0
//! ```
//!
//! With `--trace 0` it repeats untraced passes of the workload for about
//! `--seconds` seconds, each in a child process of its own, and reports
//! the end-to-end metrics. With `--trace 1` it runs one untraced pass,
//! one traced pass (which also writes a Chrome-trace span file under
//! `perfbench/out/`) and one audited pass, and reports the per-layer
//! metrics. Either way the last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use accelflow_perfbench::child;
use accelflow_perfbench::layers::GROUPS;
use accelflow_perfbench::metrics::{self, Clock, Metric};
use accelflow_perfbench::spans::{escape, json_number, Tracer};
use accelflow_perfbench::workloads::{run_pass, Mode, Part, Pass, Size, Values, Workload};
use accelflow_perfbench::{pass_seed, HELD_OUT_SEED};

const USAGE: &str = "usage: perfbench --workload <bursty_machine|openloop_fleet|slo_search> \
--seed <n> --seconds <n> --trace <0|1> [--size full|smoke]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    /// Set in child processes: the one pass to run.
    child: Option<Mode>,
    part: Part,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Full;
    let mut child = None;
    let mut part = Part::Whole;
    let mut max_rps = None;
    let mut spans = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--size" => size = Size::parse(&value).ok_or_else(bad)?,
            "--child" => {
                child = Some(match value.as_str() {
                    "timed" => Mode::Timed,
                    "traced" => Mode::Traced,
                    "audit" => Mode::Audit,
                    _ => return Err(bad()),
                })
            }
            "--part" => {
                part = match value.as_str() {
                    "whole" => Part::Whole,
                    "search" => Part::Search,
                    "probe" => Part::Probe(None),
                    _ => return Err(bad()),
                }
            }
            "--max-rps" => max_rps = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    // A known search result replaces the search.
    let part = match (part, max_rps) {
        (part, None) => part,
        (Part::Search, Some(_)) => return Err("--part search runs the search".into()),
        (_, Some(rps)) => Part::Probe(Some(rps)),
    };
    if child.is_none() && part != Part::Whole {
        return Err("--part and --max-rps need --child".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(1.0),
        trace: trace.unwrap_or(false),
        size,
        child,
        part,
        spans,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.child {
        Some(mode) => child_main(&args, mode),
        None if args.trace => traced_main(&args),
        None => timed_main(&args),
    }
}

// ----- child side -----

fn child_main(args: &Args, mode: Mode) -> ExitCode {
    let mut tracer = Tracer::new(mode == Mode::Traced, args.seed);
    let mut pass = run_pass(
        args.workload,
        args.size,
        args.seed,
        mode,
        args.part,
        &mut tracer,
    );
    if let Some(path) = &args.spans {
        let json = tracer.to_chrome_json(&format!(
            "perfbench {} seed {}",
            args.workload.name(),
            args.seed
        ));
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|_| std::fs::write(path, json));
        if let Err(e) = written {
            pass.problems
                .push(format!("could not write {}: {e}", path.display()));
        }
    }
    print!("{}", child::encode(&pass));
    ExitCode::SUCCESS
}

// ----- parent side -----

/// Runs one pass at `seed` in a child process and parses its result.
fn spawn(args: &Args, seed: u64, mode: &str, extra: &[String]) -> Result<Pass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no executable path: {e}"))?;
    let size = match args.size {
        Size::Full => "full",
        Size::Smoke => "smoke",
    };
    let out = Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--size", size, "--child", mode])
        .args(extra)
        // The search runs its sequential path: one sweep thread.
        .env("ACCELFLOW_THREADS", "1")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("could not start the {mode} pass: {e}"))?;
    if !out.status.success() {
        return Err(format!("the {mode} pass exited with {}", out.status));
    }
    child::decode(&String::from_utf8_lossy(&out.stdout))
}

/// One named correctness check and its outcome.
struct Check {
    name: &'static str,
    problems: Vec<String>,
}

impl Check {
    fn new(name: &'static str) -> Self {
        Check {
            name,
            problems: Vec::new(),
        }
    }
}

/// Bitwise comparison of the simulated results two passes share.
fn compare_sim(a: &Values, b: &Values, what: &str, check: &mut Check) {
    for (k, va) in a {
        match b.get(k) {
            Some(vb) if vb.to_bits() == va.to_bits() => {}
            Some(vb) => check.problems.push(format!("{what}: {k} {va:?} != {vb:?}")),
            None => check.problems.push(format!("{what}: {k} missing")),
        }
    }
}

fn host(p: &Pass, k: &str) -> f64 {
    p.host.get(k).copied().unwrap_or(0.0)
}

fn sim(p: &Pass, k: &str) -> f64 {
    p.sim.get(k).copied().unwrap_or(0.0)
}

/// Runs one timed pass of `part` at `seed`, or records why it failed.
fn timed_pass(args: &Args, seed: u64, part: &str, failed: &mut Vec<String>) -> Option<Pass> {
    spawn(args, seed, "timed", &["--part".into(), part.into()])
        .map_err(|e| failed.push(e))
        .ok()
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Simulated requests per host second of one pass's stepped run.
fn req_per_s(p: &Pass) -> f64 {
    sim(p, "workloads.arrivals") / host(p, "run_s")
}

fn timed_main(args: &Args) -> ExitCode {
    let t0 = Instant::now();
    // Passes with a stepped run, and on `slo_search` the search passes.
    let mut stepped = Vec::new();
    let mut searches = Vec::new();
    let mut failed = Vec::new();
    let mut rounds = 0;
    // On `slo_search` the search and the stepped probe each get a fresh
    // process (run after the search in the same process, the probe's
    // steps were unevenly slower: p50 1.7-2.5 ms against 1.75-1.84 ms
    // fresh), and the probes bracket the searches, so the steps sample
    // the host at the start, between searches and at the end.
    let search = args.workload == Workload::SloSearch;
    let mut closing_s = 0.0;
    // Repeat rounds while the next one (and on `slo_search` the closing
    // probe after it) is expected to end no more than half a round past
    // the budget, so the round count is the budget over the round time,
    // rounded (always at least one).
    loop {
        let seed = pass_seed(args.seed, rounds);
        rounds += 1;
        let t = Instant::now();
        let part = if search { "probe" } else { "whole" };
        stepped.extend(timed_pass(args, seed, part, &mut failed));
        if search {
            closing_s = secs(t);
            searches.extend(timed_pass(args, seed, "search", &mut failed));
        }
        let elapsed = secs(t0);
        let next_end = elapsed + 0.5 * elapsed / rounds as f64 + closing_s;
        if !failed.is_empty() || next_end > args.seconds {
            break;
        }
    }
    if search && failed.is_empty() {
        let seed = pass_seed(args.seed, rounds);
        stepped.extend(timed_pass(args, seed, "probe", &mut failed));
        rounds += 1;
    }
    // The passes that carry the workload's pass time and footprint.
    let outer = if searches.is_empty() {
        &stepped
    } else {
        &searches
    };

    let mut run_ok = Check::new("passes_completed");
    run_ok.problems.extend(failed.iter().cloned());
    let mut model = Check::new("model_checks");
    for (i, p) in searches.iter().chain(&stepped).enumerate() {
        for problem in &p.problems {
            model.problems.push(format!("pass {i}: {problem}"));
        }
    }

    let mut values = Values::new();
    let mut steps_check = Check::new("step_percentiles");
    if let (Some(first), false) = (stepped.first(), outer.is_empty()) {
        let med = |ps: &[Pass], f: &dyn Fn(&Pass) -> f64| {
            metrics::median(&ps.iter().map(f).collect::<Vec<_>>())
        };
        values.insert("sim_req_per_s".into(), med(&stepped, &req_per_s));
        values.insert(
            "pass_s".into(),
            med(outer, &|p| {
                p.host.get("pass_s").copied().unwrap_or(host(p, "run_s"))
            }),
        );
        values.insert("setup_s".into(), med(&stepped, &|p| host(p, "setup_s")));
        values.insert(
            "peak_rss_mb".into(),
            med(outer, &|p| host(p, "peak_rss_mb")),
        );
        // Each pass's percentile over its own steps, then the median
        // over passes, so one pass that met a noisy host does not set
        // the tail.
        for (name, q) in [("step_p50_ms", 50.0), ("step_p99_ms", 99.0)] {
            let per_pass: Result<Vec<f64>, String> = stepped
                .iter()
                .map(|p| metrics::percentile(&p.steps_ms, q))
                .collect();
            match per_pass {
                Ok(v) => {
                    values.insert(name.into(), metrics::median(&v));
                }
                Err(e) => steps_check.problems.push(e),
            }
        }
        let mut sims = first.sim.clone();
        if let Some(search) = searches.first() {
            sims.extend(search.sim.clone());
        }
        for m in metrics::simulated()
            .into_iter()
            .chain(metrics::workload_specific(args.workload.name()))
        {
            let v = if m.clock == Clock::Host {
                med(outer, &|p| host(p, &m.name))
            } else {
                sims.get(&m.name).copied().unwrap_or(0.0)
            };
            values.insert(m.name, v);
        }
    }

    let checks = [run_ok, model, steps_check];
    print_header(args, searches.len() + stepped.len());
    let printed: Vec<Metric> = metrics::end_to_end()
        .into_iter()
        .chain(metrics::simulated())
        .chain(metrics::workload_specific(args.workload.name()))
        .collect();
    print_metrics(&printed, &values);
    println!(
        "  step samples: {} per pass, {} stepped passes; round seeds {}",
        stepped.first().map_or(0, |p| p.steps_ms.len()),
        stepped.len(),
        (0..rounds)
            .map(|i| pass_seed(args.seed, i).to_string())
            .collect::<Vec<_>>()
            .join(",")
    );
    finish(
        &checks,
        searches.len() + stepped.len() + failed.len(),
        failed.len(),
        &metrics::end_to_end(),
        &values,
    )
}

fn traced_main(args: &Args) -> ExitCode {
    let spans_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "spans-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
    let mut run_ok = Check::new("passes_completed");
    let mut keep = |r: Result<Pass, String>| match r {
        Ok(p) => Some(p),
        Err(e) => {
            run_ok.problems.push(e);
            None
        }
    };
    let untraced = keep(spawn(args, args.seed, "timed", &[]));
    let traced = keep(spawn(
        args,
        args.seed,
        "traced",
        &["--spans".into(), spans_path.display().to_string()],
    ));
    let mut audit_args = Vec::new();
    if let Some(rps) = untraced.as_ref().and_then(|u| u.sim.get("sim_max_rps")) {
        audit_args = vec!["--max-rps".to_string(), format!("{rps:?}")];
    }
    let audited = keep(spawn(args, args.seed, "audit", &audit_args));
    let attempted = 3;
    let failed = run_ok.problems.len();

    let mut model = Check::new("model_checks");
    let mut identical = Check::new("traced_equals_untraced");
    let mut audit = Check::new("audit_clean");
    for (what, pass) in [
        ("untraced", &untraced),
        ("traced", &traced),
        ("audited", &audited),
    ] {
        let check = if what == "audited" {
            &mut audit
        } else {
            &mut model
        };
        for problem in pass.iter().flat_map(|p| &p.problems) {
            check.problems.push(format!("{what}: {problem}"));
        }
    }
    let mut values = Values::new();
    if let (Some(u), Some(t)) = (&untraced, &traced) {
        compare_sim(&u.sim, &t.sim, "traced vs untraced", &mut identical);
        values = per_layer_values(u, t);
    }
    // The auditor only reads the model, so it must not move a result;
    // only the snapshot grows, because it carries the auditor's state.
    if let (Some(u), Some(a)) = (&untraced, &audited) {
        let mut shared = u.sim.clone();
        shared.remove("sim.snapshot_bytes");
        compare_sim(&shared, &a.sim, "audited vs untraced", &mut audit);
    }

    print_header(args, attempted - failed);
    print_metrics(&metrics::per_layer(), &values);
    if traced.is_some() {
        println!("  spans: {}", spans_path.display());
    }
    let checks = [run_ok, model, identical, audit];
    finish(&checks, attempted, failed, &metrics::per_layer(), &values)
}

/// The per-layer metrics from an untraced pass `u` and a traced pass
/// `t` of the same seed.
fn per_layer_values(u: &Pass, t: &Pass) -> Values {
    let mut v = Values::new();
    let mut put = |k: &str, x: f64| {
        v.insert(k.to_string(), x);
    };
    for k in [
        "workloads.gen_s",
        "workloads.bytes_per_arrival",
        "core.start_s",
        "core.finish_s",
        "bench.unloaded_s",
        "bench.prefix_s",
        "bench.fork_s",
        "bench.overload_fork_s",
    ] {
        put(k, host(t, k));
    }
    put("workloads.arrivals", sim(t, "workloads.arrivals"));
    put("sim.snapshot_bytes", sim(t, "sim.snapshot_bytes"));
    // slo_search's simulation cost sits in its overload probe, whose
    // results the traced pass keeps under `overload.`; the streaming
    // workloads' in their one run.
    let overload = t.sim.contains_key("overload.sim.events");
    let layer = |k: &str| {
        if overload {
            sim(t, &format!("overload.{k}"))
        } else {
            sim(t, k)
        }
    };
    for (k, _, _) in metrics::MODEL_COUNTS {
        put(k, layer(k));
    }
    let events = layer("sim.events");
    let untraced_s = if overload {
        host(t, "bench.overload_fork_s")
    } else {
        host(u, "run_s")
    };
    put("sim.events", events);
    put(
        "sim.events_per_req",
        events / layer("workloads.arrivals").max(1.0),
    );
    put("sim.ns_per_event", untraced_s * 1e9 / events.max(1.0));
    put("sim.kernel_self_s", t.groups.kernel_ns as f64 / 1e9);
    for (g, name) in GROUPS.iter().enumerate() {
        put(&format!("{name}.events"), t.groups.events[g] as f64);
        put(&format!("{name}.self_s"), t.groups.self_ns[g] as f64 / 1e9);
    }
    put("tracing_overhead_frac", req_per_s(u) / req_per_s(t) - 1.0);
    v
}

fn print_header(args: &Args, passes: usize) {
    println!(
        "perfbench {} seed {} (held-out seed {HELD_OUT_SEED}) trace {} : {passes} passes",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
}

fn print_metrics(list: &[Metric], values: &Values) {
    for m in list {
        let v = values.get(&m.name).copied().unwrap_or(f64::NAN);
        let clock = match m.clock {
            Clock::Host => "host",
            Clock::Sim => "sim",
        };
        let better = match m.better {
            metrics::Better::Lower => "lower",
            metrics::Better::Higher => "higher",
        };
        println!(
            "  {:<32} {:>16} {:<6} ({clock}, {better} is better)",
            m.name,
            format!("{v:.6}"),
            m.unit
        );
    }
}

/// Prints the checks and the result line; the exit code is non-zero
/// when any check failed.
fn finish(
    checks: &[Check],
    attempted: usize,
    failed: usize,
    declared: &[Metric],
    values: &Values,
) -> ExitCode {
    let mut correct = true;
    for c in checks {
        if c.problems.is_empty() {
            println!("  check {:<24} ok", c.name);
        } else {
            correct = false;
            println!("  check {:<24} FAILED", c.name);
            for p in &c.problems {
                println!("    {p}");
            }
        }
    }
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    let mut first = true;
    for m in declared {
        if let Some(v) = values.get(&m.name) {
            if !first {
                json.push_str(", ");
            }
            first = false;
            json.push_str(&format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape(&m.name),
                json_number(*v),
                escape(m.unit)
            ));
        }
    }
    json.push_str("}}");
    println!("{json}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
