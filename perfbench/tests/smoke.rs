//! Smoke self-test of the benchmark: every workload, untraced and traced,
//! at `tiny` scale, must pass its own output checks and print every
//! metric `BENCHMARK.json` declares for that mode, with its unit.

use std::path::{Path, PathBuf};
use std::process::Command;

/// `(name, unit)` of every metric object in one section of
/// `BENCHMARK.json` (one metric object per line).
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section ends")];
    let field = |line: &str, key: &str| {
        let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
        Some(rest[..rest.find('"')?].to_string())
    };
    body.lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect()
}

/// `(value, unit)` of metric `name` in a `"name": {"value": V, "unit": "U"}`
/// rendering, as both the result line and the results file write it.
fn metric(text: &str, name: &str) -> Option<(f64, String)> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &text[text.find(&key)? + key.len()..];
    let (value, rest) = rest.split_once(", \"unit\": \"")?;
    let unit = &rest[..rest.find('"')?];
    Some((value.parse().ok()?, unit.to_string()))
}

fn run(workload: &str, trace: bool, out: &Path) -> (String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--scale",
            "tiny",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&output.stdout).to_string();
    let stderr = String::from_utf8_lossy(&output.stderr).to_string();
    assert!(
        output.status.success(),
        "{workload} trace={trace} failed:\n{stderr}\n{stdout}"
    );
    let last = stdout.lines().last().unwrap_or_default().to_string();
    let file = out.join(format!("{workload}-seed7-trace{}.json", u8::from(trace)));
    let results = std::fs::read_to_string(file).expect("results file written");
    (last, results)
}

#[test]
fn every_workload_prints_every_declared_metric() {
    let out: PathBuf = Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert_eq!(end_to_end.len(), 3);
    assert!(per_layer.len() > 40);
    for workload in ["study", "ingest", "live"] {
        for trace in [false, true] {
            let (line, results) = run(workload, trace, &out);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            assert!(line.contains("\"failed\": 0, \"metrics\": {"), "{line}");
            assert!(
                results.contains("\"stamp\": {\"nproc\": "),
                "no fingerprint"
            );
            let table = if trace { &per_layer } else { &end_to_end };
            for (name, unit) in table {
                let Some((value, printed_unit)) = metric(&line, name) else {
                    // Only a layer the environment denies may be absent,
                    // and then the results file says why.
                    assert!(
                        results.contains(&format!("\"{name}\": \"")),
                        "{workload} trace={trace}: {name} missing and not marked absent"
                    );
                    continue;
                };
                assert!(value.is_finite(), "{name} = {value}");
                if !trace {
                    assert!(value > 0.0, "{workload}: end-to-end {name} = {value}");
                }
                assert_eq!(&printed_unit, unit, "{workload}: unit of {name}");
            }
        }
    }
    // The workload-specific headline figures are kept in the results file.
    for (workload, name, unit) in [
        ("study", "study_s", "s"),
        ("ingest", "ingest_dgrams_per_s", "datagrams/s"),
        ("live", "live_dgrams_per_s", "datagrams/s"),
    ] {
        let results = std::fs::read_to_string(out.join(format!("{workload}-seed7-trace0.json")))
            .expect("results file");
        let (value, printed_unit) = metric(&results, name).expect("headline figure");
        assert!(
            value > 0.0 && printed_unit == unit,
            "{workload}: {name} = {value} {printed_unit}"
        );
    }
}
