//! The benchmark's own tests: every workload, with every correctness
//! check, on tiny populations (`--smoke`), untraced and traced.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bench(args: &[&str], dir: &str) -> Output {
    let cwd = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(dir);
    std::fs::create_dir_all(&cwd).expect("test working directory");
    Command::new(env!("CARGO_BIN_EXE_qpv-e2ebench"))
        .args(args)
        .current_dir(&cwd)
        .output()
        .expect("run the benchmark binary")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn last_line(out: &Output) -> String {
    stdout(out).lines().last().unwrap_or_default().to_string()
}

const WORKLOADS: [&str; 3] = ["audit_100k", "online_10k", "monitor_100k"];

#[test]
fn smoke_runs_every_workload_with_every_check() {
    let out = bench(
        &[
            "--workload",
            "all",
            "--smoke",
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        "smoke-untraced",
    );
    let text = stdout(&out);
    assert!(
        out.status.success(),
        "exit {:?}\n{text}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let result = last_line(&out);
    assert!(result.starts_with("{\"correct\":true,"), "{result}");
    for w in WORKLOADS {
        assert!(
            text.contains(&format!("{w:<13} check  ok")),
            "{w} ran no check:\n{text}"
        );
    }
    assert!(!text.contains("check  FAIL"), "{text}");
    for metric in [
        "audit_ms_p50",
        "write_ms_p50",
        "query_us_p50",
        "monitor_ops_per_s",
        "flush_ms_p50",
        "recover_ms",
        "error_rate",
    ] {
        assert!(text.contains(metric), "{metric} not printed:\n{text}");
    }
}

#[test]
fn smoke_traced_run_reports_every_layer() {
    let out = bench(
        &[
            "--workload",
            "all",
            "--smoke",
            "--seed",
            "8",
            "--seconds",
            "1",
            "--trace",
            "1",
        ],
        "smoke-traced",
    );
    let text = stdout(&out);
    assert!(
        out.status.success(),
        "exit {:?}\n{text}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let result = last_line(&out);
    assert!(result.starts_with("{\"correct\":true,"), "{result}");
    for layer in [
        "reldb.scan_ms.prefs",
        "reldb.commit_ms",
        "sql.plan_us",
        "ppdb.audit_unattributed_ms",
        "pop.compile_self_ms",
        "audit.kernel_ms",
        "liveindex.exec_us",
        "deltalog.sync_ms",
        "incremental.apply_us_per_op",
        "trace.overhead_pct",
    ] {
        for w in WORKLOADS {
            assert!(
                result.contains(&format!("\"{w}.{layer}\":{{\"value\":")),
                "{w}.{layer} missing"
            );
        }
    }
    // Layers each workload exists to exercise report real work.
    for (w, layer) in [
        ("audit_100k", "audit.kernel_ms"),
        ("online_10k", "liveindex.exec_us"),
        ("monitor_100k", "deltalog.sync_ms"),
    ] {
        let line = text
            .lines()
            .find(|l| l.starts_with(w) && l.contains(&format!(" {layer} ")))
            .unwrap_or_else(|| panic!("{w} {layer} not printed"));
        assert!(!line.contains("not-exercised"), "{line}");
    }
    let spans = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("smoke-traced/.e2ebench_out/trace-audit_100k-seed8.json");
    let dump = std::fs::read_to_string(&spans).expect("span dump written");
    assert!(
        dump.contains("\"ppdb.certify_alpha\""),
        "certify spans missing"
    );
}

/// `(name, unit)` of every metric listed under `section` in the
/// repository's `BENCHMARK.json` (one metric object per line).
fn listed_metrics(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json");
    let field = |line: &str, key: &str| {
        let start = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(line[start..start + line[start..].find('"')?].to_string())
    };
    text.lines()
        .skip_while(|l| !l.contains(&format!("\"{section}\"")))
        .skip(1)
        .take_while(|l| l.trim_start().starts_with('{'))
        .map(|l| {
            (
                field(l, "name").expect("name"),
                field(l, "unit").expect("unit"),
            )
        })
        .collect()
}

/// The unit the result line reports for `key`.
fn reported_unit(result: &str, key: &str) -> Option<String> {
    let at = result.find(&format!("\"{key}\":{{\"value\":"))?;
    let rest = &result[at..];
    let unit = rest.find("\"unit\":\"")? + 8;
    Some(rest[unit..unit + rest[unit..].find('"')?].to_string())
}

#[test]
fn results_match_the_metrics_benchmark_json_lists() {
    for (section, trace) in [("end_to_end", "0"), ("per_layer", "1")] {
        let listed = listed_metrics(section);
        assert!(!listed.is_empty(), "no {section} metrics listed");
        let out = bench(
            &[
                "--workload",
                "all",
                "--smoke",
                "--seed",
                "9",
                "--seconds",
                "1",
                "--trace",
                trace,
            ],
            &format!("smoke-listed-{section}"),
        );
        assert!(out.status.success(), "{}", stdout(&out));
        let result = last_line(&out);
        for w in WORKLOADS {
            for (name, unit) in &listed {
                let key = format!("{w}.{name}");
                assert_eq!(
                    reported_unit(&result, &key).as_deref(),
                    Some(unit.as_str()),
                    "{key}"
                );
            }
        }
        let keys = result.matches(":{\"value\":").count();
        assert_eq!(
            keys,
            listed.len() * WORKLOADS.len(),
            "metrics beyond the {section} list"
        );
    }
}

#[test]
fn bad_arguments_exit_without_a_result() {
    let out = bench(&["--workload", "nope", "--seed", "1"], "smoke-args");
    assert_eq!(out.status.code(), Some(2));
    assert!(stdout(&out).is_empty());
}
