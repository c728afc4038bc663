//! End-to-end benchmark of the PPDB pipeline (paper §10) on a durable
//! store: certifying the store as an α-PPDB, answering violation queries
//! under churn, and continuous α-monitoring off the delta stream.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload audit_100k --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` runs the workload untraced and reports its end-to-end
//! metrics. `--trace 1` runs it twice from fresh set-ups, untraced then
//! traced, reports the per-layer metrics of the traced pass, prints both
//! passes' end-to-end figures side by side (the difference is the tracing
//! overhead) and writes the spans to `.e2ebench_out/`. `--smoke` shrinks
//! every population to a few hundred providers; `--workload all` runs the
//! three workloads in turn. End-to-end times are reported at a reference
//! host speed, priced by a probe kernel timed through the run
//! ([`sys::HostProbe`]); the run record keeps them as measured too
//! (`e2e_raw`). The last line of standard output is the
//! result: `{"correct", "attempted", "failed", "metrics"}`. The exit code
//! is 0 when every correctness check passed, 1 when one failed, 2 when the
//! run could not be carried out.

mod audit;
mod common;
mod json;
mod monitor;
mod online;
mod outcome;
mod stats;
mod sys;
mod trace;

use std::time::Instant;

use json::Json;
use outcome::{Outcome, Pass, E2E_METRICS, LAYER_METRICS};
use trace::Tracer;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Audit,
    Online,
    Monitor,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Audit, Workload::Online, Workload::Monitor];

    fn name(self) -> &'static str {
        match self {
            Workload::Audit => "audit_100k",
            Workload::Online => "online_10k",
            Workload::Monitor => "monitor_100k",
        }
    }

    fn providers(self, smoke: bool) -> usize {
        match (self, smoke) {
            (Workload::Online, false) => 10_000,
            (_, false) => 100_000,
            (Workload::Online, true) => 200,
            (_, true) => 400,
        }
    }

    /// Slices of an untraced run (see [`Pass::slices`]): as many as the
    /// set-up cost allows — a 100k-provider store takes ~10 s to load.
    fn slices(self) -> usize {
        match self {
            Workload::Audit => 3,
            Workload::Online | Workload::Monitor => 5,
        }
    }

    /// Run one pass, its end-to-end times scaled to the reference host.
    fn run(self, pass: &Pass, tr: &mut Tracer) -> Result<Outcome, String> {
        let mut out = match self {
            Workload::Audit => audit::run(pass, tr),
            Workload::Online => online::run(pass, tr),
            Workload::Monitor => monitor::run(pass, tr),
        }?;
        out.scale_to_reference_host();
        Ok(out)
    }
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workloads = if name == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![*Workload::ALL
                        .iter()
                        .find(|w| w.name() == name)
                        .ok_or(format!("unknown workload {name:?}"))?]
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload <audit_100k|online_10k|monitor_100k|all> is required".into());
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("--load-store") {
        return load_store_child(&argv[2..]);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let mut results = Vec::new();
    for &w in &args.workloads {
        match run_workload(w, &args) {
            Ok(r) => results.push((w, r)),
            Err(e) => {
                eprintln!("e2ebench: {}: {e}", w.name());
                std::process::exit(2);
            }
        }
    }
    let correct = results.iter().all(|(_, r)| r.correct);
    let attempted: u64 = results.iter().map(|(_, r)| r.attempted).sum();
    let failed: u64 = results.iter().map(|(_, r)| r.failed).sum();
    let metrics = match results.as_slice() {
        [(_, only)] => only.metrics.clone(),
        many => {
            let mut obj = Json::obj();
            for (w, r) in many {
                if let Json::Obj(fields) = &r.metrics {
                    for (k, v) in fields {
                        obj.set(&format!("{}.{k}", w.name()), v.clone());
                    }
                }
            }
            obj
        }
    };
    let result = Json::obj()
        .with("correct", correct)
        .with("attempted", attempted.max(1))
        .with("failed", failed)
        .with("metrics", metrics);
    println!("{}", result.render());
    std::process::exit(if correct { 0 } else { 1 });
}

/// `--load-store <dir> --seed <n> --providers <n>`: the set-up child of
/// [`common::setup_stores`].
fn load_store_child(argv: &[String]) {
    let value = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
    };
    let (Some(dir), Some(seed), Some(providers)) = (
        argv.first(),
        value("--seed").and_then(|v| v.parse().ok()),
        value("--providers").and_then(|v| v.parse().ok()),
    ) else {
        eprintln!("e2ebench: --load-store <dir> --seed <n> --providers <n>");
        std::process::exit(2);
    };
    if let Err(e) = common::load_store(std::path::Path::new(dir), seed, providers) {
        eprintln!("e2ebench: load: {e}");
        std::process::exit(2);
    }
}

struct WorkloadResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Json,
}

fn run_workload(w: Workload, args: &Args) -> Result<WorkloadResult, String> {
    let started = Instant::now();
    let scratch = sys::ScratchDir::new(&format!("{}-{}", w.name(), args.seed))
        .map_err(|e| format!("scratch dir: {e}"))?;
    let providers = w.providers(args.smoke);
    let pass = |slices| Pass {
        seed: args.seed,
        seconds: args.seconds,
        providers,
        slices,
        scratch: &scratch,
    };
    let (plain, traced) = if args.trace {
        let plain = w.run(&pass(1), &mut Tracer::new(false))?;
        let mut tr = Tracer::new(true);
        let mut traced = w.run(&pass(1), &mut tr)?;
        let overhead = overhead_pct(&plain, &traced, "request_ms_p50");
        traced.layer(
            "trace.overhead_pct",
            overhead,
            1,
            "traced/untraced request_ms_p50 - 1",
        );
        traced.complete_layers();
        write_spans(w, args.seed, &tr)?;
        (plain, Some(traced))
    } else {
        (w.run(&pass(w.slices()), &mut Tracer::new(false))?, None)
    };

    let probe = plain.host.samples();
    println!(
        "{:<13} host   probe p50 {:.4} ms over {} passes = {:.4}x the {} ms reference; e2e times below are divided by it",
        w.name(),
        probe.median() * 1e3,
        probe.len(),
        probe.median() / sys::REFERENCE_PROBE_S,
        sys::REFERENCE_PROBE_S * 1e3
    );
    print_table(w, "e2e", &plain.e2e);
    if let Some(traced) = &traced {
        print_table(w, "layer", &traced.layers);
        for m in &plain.e2e.items {
            let Some(t) = traced.e2e.get(&m.name) else {
                continue;
            };
            println!(
                "{:<13} {:<6} {:<28} untraced {:>14.4} traced {:>14.4} {:<6} overhead {:>+8.1}%",
                w.name(),
                "trace",
                m.name,
                m.value,
                t,
                m.unit,
                pct(t, m.value)
            );
        }
    }
    let checks: Vec<_> = plain
        .checks
        .iter()
        .chain(traced.iter().flat_map(|t| &t.checks))
        .collect();
    for c in &checks {
        println!(
            "{:<13} check  {:<4} {:<34} {}",
            w.name(),
            if c.ok { "ok" } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    let correct = checks.iter().all(|c| c.ok);
    let attempted = plain.calls.attempted + traced.as_ref().map_or(0, |t| t.calls.attempted);
    let failed = plain.calls.failed + traced.as_ref().map_or(0, |t| t.calls.failed);

    let mut record = Json::obj()
        .with("workload", w.name())
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("trace", args.trace)
        .with("smoke", args.smoke)
        .with("cpus_allowed", sys::cpus_allowed())
        .with("filesystem", sys::filesystem_of(scratch.path()))
        .with("slices", if args.trace { 1 } else { w.slices() });
    for (k, v) in &plain.facts {
        record.set(k, v.clone());
    }
    record.set("attempted", attempted);
    record.set("failed", failed);
    record.set("error_rate", stats::ratio(failed as f64, attempted as f64));
    record.set(
        "host_probe",
        Json::obj()
            .with("p50_ms", probe.median() * 1e3)
            .with("passes", probe.len())
            .with("reference_ms", sys::REFERENCE_PROBE_S * 1e3)
            .with("factor", probe.median() / sys::REFERENCE_PROBE_S),
    );
    record.set("e2e", plain.e2e.record());
    record.set("e2e_raw", plain.e2e_raw.record());
    if let Some(t) = &traced {
        record.set("e2e_traced", t.e2e.record());
        record.set("layers", t.layers.record());
        record.set("layer_map", layer_map(w));
    }
    record.set(
        "checks",
        Json::Arr(
            checks
                .iter()
                .map(|c| {
                    Json::obj()
                        .with("name", c.name.as_str())
                        .with("ok", c.ok)
                        .with("detail", c.detail.as_str())
                })
                .collect(),
        ),
    );
    record.set("wall_s", started.elapsed().as_secs_f64());
    println!("{}", Json::obj().with("run_record", record).render());

    let metrics = match &traced {
        Some(t) => {
            let names: Vec<&str> = LAYER_METRICS.iter().map(|(n, _)| *n).collect();
            t.layers.result_object(&names)
        }
        None => plain.e2e.result_object(&E2E_METRICS),
    };
    Ok(WorkloadResult {
        correct,
        attempted,
        failed,
        metrics,
    })
}

fn pct(new: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        (new / base - 1.0) * 100.0
    }
}

fn overhead_pct(plain: &Outcome, traced: &Outcome, metric: &str) -> f64 {
    pct(
        traced.e2e.get(metric).unwrap_or(0.0),
        plain.e2e.get(metric).unwrap_or(0.0),
    )
}

fn print_table(w: Workload, kind: &str, metrics: &stats::Metrics) {
    for m in &metrics.items {
        println!(
            "{:<13} {:<6} {:<28} {:>14.4} {:<6} n={:<8} {}",
            w.name(),
            kind,
            m.name,
            m.value,
            m.unit,
            m.samples,
            m.stat
        );
    }
}

/// Which end-to-end metric each layer metric should move on this workload
/// (layers the workload does not exercise are left out: the prediction
/// there is no change).
fn layer_map(w: Workload) -> Json {
    let pairs: &[(&str, &str)] = match w {
        Workload::Audit => &[
            ("reldb.scan_ms.*", "audit_ms_p50, write_ms_p50"),
            ("reldb.pool_miss_rate", "audit_ms_p50"),
            ("reldb.pool_writebacks", "audit_ms_p50"),
            (
                "reldb.wal_bytes_per_write",
                "write_ms_p50, disk_bytes_per_provider",
            ),
            ("ppdb.write_ms.*", "write_ms_p50"),
            ("ppdb.provider_ids_ms", "write_ms_p50"),
            ("ppdb.audit_engine_ms", "audit_ms_p50"),
            (
                "ppdb.audit_unattributed_ms",
                "audit_ms_p50 (ledger coverage)",
            ),
            ("ppdb.delta_backlog_max", "peak_rss_mb"),
            ("pop.compile_ms", "audit_ms_p50, restart_s"),
            ("pop.compile_self_ms", "audit_ms_p50"),
            ("pop.dedup_ratio", "peak_rss_mb"),
            ("pop.resident_mb", "peak_rss_mb"),
            ("audit.kernel_ms", "audit_ms_p50 (expected to stay small)"),
        ],
        Workload::Online => &[
            ("reldb.scan_ms.*", "write_ms_p50, write_ms_p99"),
            ("reldb.pool_miss_rate", "about 0: the store fits the pool"),
            (
                "reldb.wal_bytes_per_write",
                "write_ms_p50, disk_bytes_per_provider",
            ),
            ("reldb.commit_ms", "write_ms_p50 (fsync floor)"),
            ("sql.plan_us", "query_us_p50"),
            ("ppdb.write_ms.*", "write_ms_p50, write_ms_p99"),
            ("ppdb.provider_ids_ms", "write_ms_p50"),
            ("ppdb.delta_backlog_max", "peak_rss_mb"),
            ("liveindex.refresh_us", "query_us_p99"),
            ("liveindex.exec_us", "query_us_p50"),
            ("liveindex.rows_per_query", "query_us_p50"),
            ("liveindex.builds", "query_us_p99 (must stay 1)"),
            ("liveindex.cold_build_ms", "restart_s"),
            ("pop.dedup_ratio", "peak_rss_mb"),
            ("pop.resident_mb", "peak_rss_mb"),
        ],
        Workload::Monitor => &[
            ("deltalog.append_us", "monitor_ops_per_s"),
            (
                "deltalog.sync_ms",
                "flush_ms_p50, flush_ms_p99 (= write_ms_p50 here)",
            ),
            ("deltalog.snapshot_ms", "monitor_ops_per_s, flush_ms_p99"),
            ("deltalog.snapshots", "monitor_ops_per_s"),
            ("deltalog.bytes_per_op", "disk_bytes_per_provider"),
            ("deltalog.recover_ms", "recover_ms, restart_s"),
            ("incremental.apply_us_per_op", "flush_ms_p50"),
            ("incremental.build_ms", "recover_ms"),
            ("pop.dedup_ratio", "peak_rss_mb"),
            ("pop.resident_mb", "peak_rss_mb"),
        ],
    };
    Json::Obj(
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), Json::from(*v)))
            .collect(),
    )
}

/// Write the traced pass's spans to `.e2ebench_out/` in the working
/// directory.
fn write_spans(w: Workload, seed: u64, tr: &Tracer) -> Result<(), String> {
    let dir = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".e2ebench_out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-seed{seed}.json", w.name()));
    std::fs::write(&path, tr.dump().render()).map_err(|e| format!("{}: {e}", path.display()))
}
