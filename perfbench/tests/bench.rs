//! Tests of the benchmark's own code. The end-to-end ones run the
//! benchmark binary at `--size smoke`; run them with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeSet;
use std::process::Command;

use accelflow_perfbench::child;
use accelflow_perfbench::metrics::{self, Metric};
use accelflow_perfbench::workloads::{Pass, Workload};
use accelflow_perfbench::HELD_OUT_SEED;

const EXE: &str = env!("CARGO_BIN_EXE_accelflow-perfbench");

fn all_metrics() -> Vec<Metric> {
    let mut v = metrics::end_to_end();
    v.extend(metrics::simulated());
    v.extend(metrics::per_layer());
    for w in Workload::ALL {
        v.extend(metrics::workload_specific(w.name()));
    }
    v
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    for m in all_metrics() {
        assert!(metrics::valid_name(&m.name), "bad metric name {:?}", m.name);
        assert!(
            !m.unit.is_empty()
                && m.unit.len() <= 16
                && m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {:?} of {}",
            m.unit,
            m.name
        );
    }
    for list in [metrics::end_to_end(), metrics::per_layer()] {
        let names: BTreeSet<_> = list.iter().map(|m| m.name.clone()).collect();
        assert_eq!(names.len(), list.len(), "duplicate metric names");
    }
    assert!(metrics::valid_name("sim.ns_per_event"));
    assert!(!metrics::valid_name("bad name"));
    assert!(!metrics::valid_name("_leading"));
    assert!(!metrics::valid_name("a/b"));
}

/// The names listed under `key` in `BENCHMARK.json` (a flat scan: each
/// metric entry is one `{"name": ..., "unit": ...}` object).
fn declared(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list ends")];
    let field = |obj: &str, f: &str| {
        let at = obj.find(&format!("\"{f}\"")).expect("field present");
        let rest = &obj[at + f.len() + 2..];
        let open = rest.find('"').expect("value opens") + 1;
        let close = rest[open..].find('"').expect("value closes") + open;
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (key, list) in [
        ("end_to_end", metrics::end_to_end()),
        ("per_layer", metrics::per_layer()),
    ] {
        let want: Vec<(String, String)> = list
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect();
        assert_eq!(declared(&json, key), want, "{key} differs from metrics.rs");
    }
}

#[test]
fn percentile_refuses_thin_tails() {
    let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
    // 1000 samples: exactly 10 beyond p99.
    assert_eq!(metrics::percentile(&samples, 99.0), Ok(990.0));
    assert_eq!(metrics::percentile(&samples, 50.0), Ok(500.0));
    // 999 samples leave only 9 beyond p99.
    assert!(metrics::percentile(&samples[..999], 99.0).is_err());
    assert!(metrics::percentile(&samples[..100], 99.0).is_err());
    assert!(metrics::percentile(&[], 50.0).is_err());
    assert!(metrics::percentile(&samples, 101.0).is_err());
    // Unsorted input is sorted first.
    let mut rev = samples.clone();
    rev.reverse();
    assert_eq!(metrics::percentile(&rev, 99.0), Ok(990.0));
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(metrics::median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(metrics::median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    assert!(metrics::median(&[]).is_nan());
}

#[test]
fn child_protocol_round_trips_bit_for_bit() {
    let mut pass = Pass::default();
    pass.host.insert("run_s".into(), 0.1 + 0.2);
    pass.sim.insert("sim_p99_us".into(), 1.0 / 3.0);
    pass.sim.insert("sim.events".into(), 15_360_123.0);
    pass.steps_ms = vec![1e-7, 2.5, 1234.5678901234];
    pass.groups.events[2] = 41_400_000;
    pass.groups.self_ns[2] = 123_456_789;
    pass.groups.kernel_ns = 42;
    pass.problems.push("a problem".into());
    let back = child::decode(&child::encode(&pass)).expect("decodes");
    assert_eq!(back.host, pass.host);
    assert_eq!(back.sim, pass.sim);
    assert_eq!(back.steps_ms, pass.steps_ms);
    assert_eq!(back.groups, pass.groups);
    assert_eq!(back.problems, pass.problems);
}

/// Runs the benchmark binary and returns (exit ok, stdout).
fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(EXE)
        .args(args)
        .env("ACCELFLOW_THREADS", "1")
        .output()
        .expect("benchmark binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// Checks the last stdout line: the result object with every declared
/// metric (and no other) under its unit.
fn assert_result_line(stdout: &str, declared: &[Metric], what: &str) {
    let last = stdout.lines().last().unwrap_or_default();
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{what}: bad result line {last:?}\n{stdout}"
    );
    assert!(last.contains("\"failed\": 0,"), "{what}: {last}");
    for m in declared {
        let entry = format!("\"{}\": {{\"value\": ", m.name);
        let at = last
            .find(&entry)
            .unwrap_or_else(|| panic!("{what}: {} missing from {last}", m.name));
        let rest = &last[at + entry.len()..];
        let value = &rest[..rest.find(',').expect("value ends")];
        let v: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("{what}: {value:?}"));
        assert!(v.is_finite(), "{what}: {} = {v}", m.name);
        assert!(
            rest.starts_with(&format!("{value}, \"unit\": \"{}\"}}", m.unit)),
            "{what}: {} unit",
            m.name
        );
    }
    assert_eq!(
        last.matches("\"value\":").count(),
        declared.len(),
        "{what}: extra metrics in {last}"
    );
}

#[test]
fn every_workload_emits_its_declared_metrics() {
    for w in Workload::ALL {
        let base = ["--workload", w.name(), "--seed", "3", "--size", "smoke"];
        let (ok, out) = run(&[&base[..], &["--seconds", "0.01", "--trace", "0"]].concat());
        assert!(ok, "{} trace 0 failed:\n{out}", w.name());
        assert_result_line(&out, &metrics::end_to_end(), w.name());
        for m in metrics::simulated()
            .into_iter()
            .chain(metrics::workload_specific(w.name()))
        {
            assert!(
                out.lines().any(|l| {
                    let f: Vec<&str> = l.split_whitespace().collect();
                    f.len() >= 3 && f[0] == m.name && f[2] == m.unit
                }),
                "{}: {} not printed with unit {}",
                w.name(),
                m.name,
                m.unit
            );
        }

        let (ok, out) = run(&[&base[..], &["--seconds", "0.01", "--trace", "1"]].concat());
        assert!(ok, "{} trace 1 failed:\n{out}", w.name());
        assert_result_line(&out, &metrics::per_layer(), w.name());
        let spans = concat!(env!("CARGO_MANIFEST_DIR"), "/out/spans-");
        let path = format!("{spans}{}-seed3.json", w.name());
        let trace = std::fs::read_to_string(&path).expect("span file written");
        assert!(trace.starts_with("{\"traceEvents\":["), "{path}");
        assert!(trace.contains("\"name\":\"core.run_to\""), "{path}");
    }
}

/// One untraced pass's protocol output, decoded.
fn child_pass(w: Workload, seed: u64) -> Pass {
    child_part(w, seed, &[])
}

/// The same, with extra child arguments (the `slo_search` parts).
fn child_part(w: Workload, seed: u64, extra: &[&str]) -> Pass {
    let seed = seed.to_string();
    let base = [
        "--workload",
        w.name(),
        "--seed",
        &seed,
        "--size",
        "smoke",
        "--child",
        "timed",
    ];
    let (ok, out) = run(&[&base[..], extra].concat());
    assert!(ok, "{} child {extra:?} failed", w.name());
    child::decode(&out).expect("protocol decodes")
}

#[test]
fn split_search_passes_match_the_whole_pass() {
    let whole = child_pass(Workload::SloSearch, 42);
    let search = child_part(Workload::SloSearch, 42, &["--part", "search"]);
    let probe = child_part(Workload::SloSearch, 42, &["--part", "probe"]);
    assert!(search.problems.is_empty() && probe.problems.is_empty());
    assert!(search.host.contains_key("pass_s") && search.steps_ms.is_empty());
    assert!(!probe.host.contains_key("search_s") && !probe.steps_ms.is_empty());
    let mut split = probe.sim.clone();
    split.extend(search.sim.clone());
    assert_eq!(split.len(), whole.sim.len());
    for (k, v) in &whole.sim {
        assert_eq!(v.to_bits(), split[k].to_bits(), "{k} differs when split");
    }
}

#[test]
fn same_seed_repeats_and_the_held_out_seed_differs() {
    for w in Workload::ALL {
        let a = child_pass(w, 42);
        let b = child_pass(w, 42);
        assert!(a.problems.is_empty(), "{}: {:?}", w.name(), a.problems);
        assert!(a.sim.contains_key("sim.events") && a.sim.contains_key("sim_p99_us"));
        for (k, va) in &a.sim {
            assert_eq!(
                va.to_bits(),
                b.sim[k].to_bits(),
                "{}: {k} differs between same-seed invocations",
                w.name()
            );
        }
        let held = child_pass(w, HELD_OUT_SEED);
        for k in ["sim.events", "sim_p99_us", "workloads.arrivals"] {
            assert_ne!(
                a.sim[k].to_bits(),
                held.sim[k].to_bits(),
                "{}: {k} did not change under the held-out seed",
                w.name()
            );
        }
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--workload", "slo_search"][..],
        &["--workload", "slo_search", "--seed", "1", "--trace", "2"][..],
        &["--workload", "slo_search", "--seed", "1", "--part", "probe"][..],
        &[
            "--workload",
            "slo_search",
            "--seed",
            "1",
            "--part",
            "search",
            "--max-rps",
            "1",
        ][..],
    ] {
        let (ok, out) = run(args);
        assert!(!ok, "{args:?} succeeded");
        assert!(out.is_empty(), "{args:?} printed {out:?}");
    }
}
