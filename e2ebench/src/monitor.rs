//! `monitor_100k`: continuous α-monitoring fed by the delta stream
//! (§10). Delta-log fsyncs and snapshots plus the incremental auditor do
//! the work; reldb does none.
//!
//! Set-up order: generate the inputs; then, per slice (see [`Pass`]),
//! `Monitor::start` in a fresh directory (snapshot generation 0, build the
//! live auditor), `sync(2)`, then the timed closed loop: a fixed stream of
//! [`OPS_PER_PROVIDER`] churn op per provider, in `churn_batches` deltas of
//! [`OPS_PER_DELTA`] ops, through `Monitor::ingest` (cut short if it
//! overruns [`INGEST_SHARE`] of the slice), a final flush, a check,
//! `sync(2)`, and `Monitor::recover` repeated to the end of the slice (at least once).

use std::time::{Duration, Instant};

use qpv_core::deltalog::{log_path, DeltaLog, Monitor, MonitorConfig};
use qpv_core::{CompiledPopulation, IncrementalAuditor, PopulationDelta};
use qpv_synth::churn_batches;
use qpv_synth::generate_stable;

use crate::common::{House, Mirror};
use crate::outcome::{Outcome, Pass};
use crate::stats::{ratio, tail_quantile, Calls, Samples};
use crate::sys;
use crate::trace::Tracer;

pub const OPS_PER_DELTA: usize = 10;
/// Most of a slice the ingest may take; recovery takes the rest.
pub const INGEST_SHARE: f64 = 0.7;
/// Churn ops per provider in each slice's stream: a fixed amount of
/// ingest work (100k ops, ~1.5 s at 100k providers on a 2-CPU host), so
/// throughput is measured over the same stream on every commit.
pub const OPS_PER_PROVIDER: usize = 1;

pub fn run(pass: &Pass, tr: &mut Tracer) -> Result<Outcome, String> {
    let house = House::new();
    let n = pass.providers;
    let attrs = house.spec.attribute_names();
    let weights = house.spec.attribute_weights();
    let config = MonitorConfig::default();
    let mut out = Outcome::default();

    // ---- inputs, all generated before timing -----------------------------
    let t = Instant::now();
    let profiles = generate_stable(&house.spec, n, pass.seed).profiles;
    let stream = churn_batches(
        &house.spec,
        n,
        OPS_PER_PROVIDER * n,
        OPS_PER_DELTA,
        pass.seed,
    );
    out.fact("generator_s", t.elapsed().as_secs_f64());

    out.fact(
        "setup_order",
        "generate; per slice: sync, Monitor::start in a fresh directory (snapshot + auditor build), sync, \
         timed ingest of the stream, final flush, check, sync, then Monitor::recover repeated to the end \
         of the slice",
    );

    let mut calls = Calls::default();
    let mut setup = Samples::default();
    let mut append = Samples::default();
    let mut flush = Samples::default();
    let mut snapshot = Samples::default();
    let mut ingest = Samples::default();
    let mut recover = Samples::default();
    let mut probes = Probes::default();
    let mut ops_ingested = 0usize;
    let mut disk = 0.0;
    let slice_s = pass.seconds / pass.slices as f64;
    for slice in 0..pass.slices {
        // ---- set-up ----------------------------------------------------------
        let dir = pass.scratch.sub(&format!("monitor{slice}"));
        let _ = std::fs::remove_dir_all(&dir);
        // Write-back of earlier slices lands here, outside every timing.
        sys::settle();
        let initial = profiles.clone();
        let t = Instant::now();
        let mut monitor = Monitor::start(
            &dir,
            initial,
            attrs.clone(),
            &weights,
            house.policy.clone(),
            config.clone(),
        )
        .map_err(|e| format!("Monitor::start: {e}"))?;
        setup.push(t.elapsed().as_secs_f64());
        if slice == 0 {
            disk = sys::dir_bytes(&dir) as f64 / n as f64;
        }

        // ---- timed closed loop: ingest ---------------------------------------
        probes.start_twin(tr, &monitor, &house, &attrs, &weights);
        sys::settle();
        let mut mirror = Mirror::new(&profiles);
        let start = Instant::now();
        let ingest_deadline = start + Duration::from_secs_f64(slice_s * INGEST_SHARE);
        let deadline = start + Duration::from_secs_f64(slice_s);
        for delta in stream.iter() {
            if Instant::now() >= ingest_deadline {
                break;
            }
            out.host.tick();
            mirror.apply_delta(delta);
            let delta = delta.clone();
            let ops = delta.len();
            if tr.enabled() {
                probes.staged.push(delta.clone());
            }
            let seq = monitor.seq();
            let generation = monitor.log().generation();
            let log_before = tr
                .enabled()
                .then(|| sys::file_bytes(&log_path(&dir, generation)));
            let req = tr.request("monitor.request");
            let call = tr.enter("monitor.ingest");
            let t = Instant::now();
            let result = calls.count(monitor.ingest(delta));
            let dt = t.elapsed().as_secs_f64();
            tr.exit(call);
            ops_ingested += ops;
            if result.is_ok() {
                ingest.push(dt);
                if monitor.seq() == seq {
                    append.push(dt);
                } else {
                    flush.push(dt);
                    let rotated = monitor.log().generation() != generation;
                    if rotated {
                        snapshot.push(dt);
                    }
                    if let Some(before) = log_before {
                        let growth =
                            sys::file_bytes(&log_path(&dir, generation)).saturating_sub(before);
                        probes.after_flush(tr, dt, rotated, growth);
                    }
                }
            }
            tr.exit(req);
        }
        calls.count(monitor.flush()).ok();

        // ---- check, then recovery until the end of the slice ------------------
        let expected = house
            .engine
            .counts(&CompiledPopulation::from_profiles(&mirror.profiles()));
        let outcome = monitor.outcome();
        out.check(
            "monitor_outcome_equals_mirror",
            outcome == expected,
            format!("slice {slice}: monitor {outcome:?} vs fresh compile {expected:?}"),
        );
        if slice == 0 {
            out.fact("dedup_ratio", monitor.auditor().compiled().dedup_ratio());
        }
        if tr.enabled() && slice + 1 == pass.slices {
            let pop = monitor.auditor().compiled();
            out.layer("pop.dedup_ratio", pop.dedup_ratio(), 1, "last");
            out.layer(
                "pop.resident_mb",
                pop.resident_bytes() as f64 / (1024.0 * 1024.0),
                1,
                "last",
            );
        }
        drop(monitor);
        sys::settle();
        let mut recoveries = 0usize;
        let mut recovered_ok = 0usize;
        while recoveries == 0 || Instant::now() < deadline {
            out.host.tick();
            recoveries += 1;
            let req = tr.request("monitor.restart");
            let call = tr.enter("monitor.recover");
            let t = Instant::now();
            let result = calls.count(Monitor::recover(
                &dir,
                attrs.clone(),
                &weights,
                house.policy.clone(),
                config.clone(),
            ));
            let dt = t.elapsed().as_secs_f64();
            tr.exit(call);
            if tr.enabled() {
                tr.probe("deltalog.recover", || DeltaLog::recover(&dir).map(|_| ()))
                    .0
                    .ok();
            }
            tr.exit(req);
            match result {
                Ok(m) => {
                    recover.push(dt);
                    if m.outcome() == expected {
                        recovered_ok += 1;
                    }
                }
                Err(e) => out.check(
                    "monitor_recover",
                    false,
                    format!("slice {slice}: Monitor::recover failed: {e}"),
                ),
            }
        }
        out.check(
            "recovered_outcome_equals_mirror",
            recovered_ok == recoveries,
            format!("slice {slice}: {recovered_ok} of {recoveries} recoveries matched the mirror"),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    out.calls = calls;
    let ingest_busy = ingest.sum();

    // ---- metrics -------------------------------------------------------------
    out.generic(&setup, &recover, &flush, &ingest, disk);
    out.e2e.add(
        "monitor_ops_per_s",
        ratio(ops_ingested as f64, ingest_busy),
        "1/s",
        ops_ingested,
        "ops/ingest-busy-s",
    );
    out.e2e
        .add_quantile("flush_ms_p50", &flush, 0.5, "p50", 1e3, "ms");
    let (q, label) = tail_quantile(flush.len());
    out.e2e
        .add_quantile(&format!("flush_ms_{label}"), &flush, q, label, 1e3, "ms");
    out.e2e
        .add_quantile("recover_ms", &recover, 0.5, "p50", 1e3, "ms");
    out.fact("providers", n);
    out.fact("ops_per_delta", OPS_PER_DELTA);
    out.fact("ops_ingested", ops_ingested);
    out.fact(
        "flush_policy",
        format!(
            "deltalog: group_commit={} deltas per sync_data, snapshot_every={} deltas (MonitorConfig::default)",
            config.group_commit, config.snapshot_every
        ),
    );
    if tr.enabled() {
        out.layer_median("deltalog.append_us", &append, 1e6);
        out.layer_median("deltalog.snapshot_ms", &snapshot, 1e3);
        out.layer("deltalog.snapshots", snapshot.len() as f64, 1, "count");
        let recover_log = tr.durations("deltalog.recover");
        out.layer_median("deltalog.recover_ms", &recover_log, 1e3);
        out.layer(
            "incremental.build_ms",
            (recover.median() - recover_log.median()) * 1e3,
            recover.len(),
            "p50(Monitor::recover) - p50(DeltaLog::recover)",
        );
        probes.report(&mut out);
    }
    Ok(out)
}

/// Layer probes of the traced run: a second auditor, built from the same
/// initial population, is fed every batch the monitor flushed, which
/// prices the incremental apply on its own.
#[derive(Default)]
struct Probes {
    twin: Option<IncrementalAuditor>,
    staged: Vec<PopulationDelta>,
    apply_s: f64,
    applied_ops: usize,
    sync: Samples,
    log_bytes: u64,
    logged_ops: usize,
}

impl Probes {
    /// Build the twin auditor over the monitor's freshly started
    /// population (traced pass only).
    fn start_twin(
        &mut self,
        tr: &Tracer,
        monitor: &Monitor,
        house: &House,
        attrs: &[String],
        weights: &qpv_core::AttributeSensitivities,
    ) {
        self.staged.clear();
        self.twin = tr.enabled().then(|| {
            IncrementalAuditor::from_population(
                monitor.auditor().compiled().clone(),
                attrs.to_vec(),
                weights,
                house.policy.clone(),
            )
        });
    }

    /// After an ingest call that flushed: apply the flushed batches to the
    /// twin auditor, and attribute the rest of the call to the log.
    fn after_flush(&mut self, tr: &mut Tracer, call_s: f64, rotated: bool, log_growth: u64) {
        let Some(twin) = self.twin.as_mut() else {
            return;
        };
        let batches = std::mem::take(&mut self.staged);
        let ops: usize = batches.iter().map(PopulationDelta::len).sum();
        let (_, apply_s) = tr.probe("incremental.apply", || {
            for d in &batches {
                twin.apply_delta(d)
                    .expect("twin auditor accepts the flushed batch");
            }
        });
        self.apply_s += apply_s;
        self.applied_ops += ops;
        if !rotated {
            self.sync.push(call_s - apply_s);
            self.log_bytes += log_growth;
            self.logged_ops += ops;
        }
    }

    fn report(&self, out: &mut Outcome) {
        out.layer_median("deltalog.sync_ms", &self.sync, 1e3);
        out.layer(
            "deltalog.bytes_per_op",
            ratio(self.log_bytes as f64, self.logged_ops as f64),
            self.logged_ops,
            "mean",
        );
        out.layer(
            "incremental.apply_us_per_op",
            ratio(self.apply_s * 1e6, self.applied_ops as f64),
            self.applied_ops,
            "mean",
        );
    }
}
