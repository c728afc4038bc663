//! What one pass of a workload reports.

use crate::json::Json;
use crate::stats::{ratio, Calls, Metrics, Samples};

/// Settings of one pass over a workload.
pub struct Pass<'a> {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Initial population.
    pub providers: usize,
    /// The run is split into this many slices, each with its own set-up
    /// on a fresh store and `seconds / slices` of timed work, so the
    /// samples of every metric span the whole run rather than one window
    /// of the host's load. `setup_s` is the median of the slices' set-ups.
    pub slices: usize,
    pub scratch: &'a crate::sys::ScratchDir,
}

/// A named correctness check and what it found.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything a pass measured.
#[derive(Default)]
pub struct Outcome {
    /// End-to-end metrics: the generic set every workload reports, then the
    /// workload's own named figures.
    pub e2e: Metrics,
    /// Per-layer metrics (traced pass only).
    pub layers: Metrics,
    pub calls: Calls,
    pub checks: Vec<Check>,
    /// Workload facts for the run record (sizes, set-up order, ...).
    pub facts: Vec<(String, Json)>,
    /// The host's speed through the pass; timed loops tick it.
    pub host: crate::sys::HostProbe,
    /// `e2e` as measured, before [`Outcome::scale_to_reference_host`].
    pub e2e_raw: Metrics,
}

impl Outcome {
    pub fn fact(&mut self, key: &str, value: impl Into<Json>) {
        self.facts.push((key.to_string(), value.into()));
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    /// Scale the end-to-end times to the reference host speed (see
    /// [`crate::sys::HostProbe`]), keeping the figures as measured in
    /// `e2e_raw`. Sizes and counts are left alone.
    pub fn scale_to_reference_host(&mut self) {
        let factor = self.host.factor();
        self.e2e_raw = self.e2e.clone();
        for m in &mut self.e2e.items {
            match m.unit {
                "s" | "ms" | "us" => m.value /= factor,
                "1/s" => m.value *= factor,
                _ => {}
            }
        }
    }

    /// Raw samples (seconds) of a small timing, for the run record.
    pub fn raw(&mut self, name: &str, s: &Samples) {
        let values = s
            .values()
            .iter()
            .map(|&v| Json::from(v))
            .collect::<Vec<_>>();
        self.fact(&format!("raw_{name}"), values);
    }

    /// The generic end-to-end set every workload reports; `request` holds
    /// the latencies of the workload's requests.
    #[allow(clippy::too_many_arguments)]
    pub fn generic(
        &mut self,
        setup: &Samples,
        restart: &Samples,
        write: &Samples,
        request: &Samples,
        disk_bytes_per_provider: f64,
    ) {
        self.raw("setup_s", setup);
        self.raw("restart_s", restart);
        let m = &mut self.e2e;
        m.add_quantile("setup_s", setup, 0.5, "p50", 1.0, "s");
        // A mean, not a median: restart times on a shared host fall in two
        // bands ~1.5x apart, and a median of ~20 such samples flips between
        // the bands from run to run, where the mean moves with their mix.
        m.add("restart_s", restart.mean(), "s", restart.len(), "mean");
        m.add_quantile("write_ms_p50", write, 0.5, "p50", 1e3, "ms");
        m.add_quantile("request_ms_p50", request, 0.5, "p50", 1e3, "ms");
        m.add(
            "requests_per_s",
            ratio(request.len() as f64, request.sum()),
            "1/s",
            request.len(),
            "rate",
        );
        m.add("peak_rss_mb", crate::sys::peak_rss_mb(), "MB", 1, "peak");
        m.add(
            "disk_bytes_per_provider",
            disk_bytes_per_provider,
            "bytes",
            1,
            "after-setup",
        );
        let error_rate = self.calls.error_rate();
        self.e2e.add(
            "error_rate",
            error_rate,
            "ratio",
            self.calls.attempted as usize,
            "failed/attempted",
        );
    }
}

/// Every per-layer metric with its unit, grouped by the repository module
/// it prices. A workload reports 0 (with 0 samples) for a layer it does not
/// exercise.
pub const LAYER_METRICS: [(&str, &str); 37] = [
    ("reldb.scan_ms.data", "ms"),
    ("reldb.scan_ms.prefs", "ms"),
    ("reldb.scan_ms.sens", "ms"),
    ("reldb.scan_ms.thresholds", "ms"),
    ("reldb.pool_miss_rate", "ratio"),
    ("reldb.pool_writebacks", "count"),
    ("reldb.wal_bytes_per_write", "bytes"),
    ("reldb.commit_ms", "ms"),
    ("sql.plan_us", "us"),
    ("ppdb.write_ms.register", "ms"),
    ("ppdb.write_ms.remove", "ms"),
    ("ppdb.write_ms.prefs", "ms"),
    ("ppdb.write_ms.sens", "ms"),
    ("ppdb.write_ms.threshold", "ms"),
    ("ppdb.provider_ids_ms", "ms"),
    ("ppdb.audit_engine_ms", "ms"),
    ("ppdb.audit_unattributed_ms", "ms"),
    ("ppdb.delta_backlog_max", "count"),
    ("pop.compile_ms", "ms"),
    ("pop.compile_self_ms", "ms"),
    ("pop.dedup_ratio", "ratio"),
    ("pop.resident_mb", "MB"),
    ("audit.kernel_ms", "ms"),
    ("liveindex.refresh_us", "us"),
    ("liveindex.exec_us", "us"),
    ("liveindex.rows_per_query", "count"),
    ("liveindex.builds", "count"),
    ("liveindex.cold_build_ms", "ms"),
    ("deltalog.append_us", "us"),
    ("deltalog.sync_ms", "ms"),
    ("deltalog.snapshot_ms", "ms"),
    ("deltalog.snapshots", "count"),
    ("deltalog.bytes_per_op", "bytes"),
    ("deltalog.recover_ms", "ms"),
    ("incremental.apply_us_per_op", "us"),
    ("incremental.build_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// The end-to-end metrics every workload reports, in `BENCHMARK.json`
/// order.
pub const E2E_METRICS: [&str; 6] = [
    "setup_s",
    "restart_s",
    "request_ms_p50",
    "requests_per_s",
    "peak_rss_mb",
    "disk_bytes_per_provider",
];

impl Outcome {
    /// Record a per-layer metric (its unit comes from [`LAYER_METRICS`]).
    pub fn layer(&mut self, name: &str, value: f64, samples: usize, stat: &'static str) {
        let unit = LAYER_METRICS
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown layer metric {name}"))
            .1;
        self.layers.add(name, value, unit, samples, stat);
    }

    /// A per-layer timing median; `scale` converts seconds to its unit.
    pub fn layer_median(&mut self, name: &str, s: &Samples, scale: f64) {
        self.layer(name, s.median() * scale, s.len(), "p50");
    }

    /// Fill every per-layer metric the workload did not report with 0.
    pub fn complete_layers(&mut self) {
        for (name, _) in LAYER_METRICS {
            if self.layers.get(name).is_none() {
                self.layer(name, 0.0, 0, "not-exercised");
            }
        }
    }
}
