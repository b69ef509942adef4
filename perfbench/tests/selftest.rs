//! Self-test of the benchmark at a tiny horizon: every metric named in
//! `BENCHMARK.json` is printed with its unit, every correctness check
//! fires on a deliberately broken input, and the digest of deterministic
//! counts repeats exactly across two runs.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use dsh_simcore::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn spec() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn listed(spec: &Json, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Json::as_arr)
        .expect("BENCHMARK.json lists metrics")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn workloads(spec: &Json) -> Vec<String> {
    spec.get("workloads")
        .and_then(Json::as_arr)
        .expect("BENCHMARK.json lists workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name").to_string())
        .collect()
}

/// A scratch output directory unique to one test.
fn out_dir(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct Run {
    result: Json,
    stderr: String,
}

/// Runs the benchmark binary at the tiny horizon with `extra` arguments.
fn run(workload: &str, trace: bool, out: &Path, extra: &[&str]) -> Run {
    let output = Command::new(env!("CARGO_BIN_EXE_dsh-perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0", "--tiny"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .args(extra)
        .output()
        .expect("the benchmark binary runs");
    assert!(
        output.status.success(),
        "exit {:?}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let mut lines = stdout.lines();
    let header = Json::parse(lines.next().expect("a provenance header")).expect("header parses");
    assert!(header.get("provenance").and_then(|p| p.get("commit")).is_some(), "header: {header}");
    let result = Json::parse(stdout.lines().last().expect("a result line")).expect("result parses");
    Run { result, stderr: String::from_utf8_lossy(&output.stderr).into_owned() }
}

fn correct(r: &Run) -> bool {
    r.result.get("correct") == Some(&Json::Bool(true))
}

fn assert_metrics(r: &Run, names: &[(String, String)], what: &str) {
    let metrics = r.result.get("metrics").expect("metrics object");
    let Json::Obj(printed) = metrics else { panic!("metrics is an object") };
    assert_eq!(
        printed.len(),
        names.len(),
        "{what}: printed {:?}",
        printed.keys().collect::<Vec<_>>()
    );
    for (name, unit) in names {
        let m = metrics.get(name).unwrap_or_else(|| panic!("{what}: {name} not printed"));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{what}: unit of {name}"
        );
        assert!(
            m.get("value").and_then(Json::as_f64).is_some_and(f64::is_finite),
            "{what}: {name}"
        );
    }
}

#[test]
fn every_listed_metric_is_printed_with_its_unit() {
    let spec = spec();
    let (e2e, layers) = (listed(&spec, "end_to_end"), listed(&spec, "per_layer"));
    for w in workloads(&spec) {
        let out = out_dir(&format!("metrics-{w}"));
        let plain = run(&w, false, &out, &[]);
        assert!(correct(&plain), "{w}: {}", plain.stderr);
        assert_metrics(&plain, &e2e, &format!("{w} --trace 0"));
        let traced = run(&w, true, &out, &[]);
        assert!(correct(&traced), "{w} traced: {}", traced.stderr);
        assert_metrics(&traced, &layers, &format!("{w} --trace 1"));
        assert!(out.join(format!("{w}-seed3-trace1.trace.json")).exists(), "{w}: no Chrome trace");
    }
}

#[test]
fn every_check_fires_on_a_broken_input() {
    let out = out_dir("checks");
    let cases = [
        ("drops", "data drops in a lossless cell"),
        ("wedged", "wedged flows"),
        ("digest", "digest of deterministic counts changed"),
        ("audit", "dirty MMU audit"),
    ];
    for (brk, message) in cases {
        let r = run("ls64_dsh", false, &out, &["--break", brk]);
        assert!(!correct(&r), "--break {brk} passed every check");
        assert!(r.stderr.contains(message), "--break {brk}: expected {message:?} in {}", r.stderr);
    }
    let traced = run("ls64_dsh", true, &out, &["--break", "wedged"]);
    assert!(!correct(&traced), "the traced run ignores a failed check");
}

#[test]
fn digest_repeats_exactly_across_two_runs() {
    let digests = |test: &str| {
        let out = out_dir(test);
        let r = run("ls64_dsh", false, &out, &[]);
        assert!(correct(&r), "{}", r.stderr);
        let text =
            std::fs::read_to_string(out.join("ls64_dsh-seed3-trace0.json")).expect("row file");
        let doc = Json::parse(&text).expect("row file parses");
        let d = doc.get("digests").cloned().expect("digests recorded");
        assert!(d.as_arr().is_some_and(|a| !a.is_empty()), "no digests");
        d
    };
    assert_eq!(digests("digest-a"), digests("digest-b"));
}
