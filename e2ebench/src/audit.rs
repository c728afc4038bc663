//! `audit_100k`: certify the store as an α-PPDB (Defs. 2–3) while churn
//! writes land. The table pages outgrow the buffer pool, so reldb scans
//! and decoding, population compile and the audit kernel do the work.
//!
//! Set-up order: generate the inputs; then, per slice (see [`Pass`]), load
//! a fresh store in a child process (create → register every provider, one
//! fsynced transaction each → checkpoint → exit) between two `sync(2)`
//! calls, restart (open →
//! `Ppdb::open` → first `certify_alpha`), run the timed closed loop, and
//! check. Each cycle of the loop sends one churn write, then the request,
//! `certify_alpha`, then acks the delta queue; every [`RESTART_EVERY`]-th
//! cycle closes and reopens the store before its certify, which is then
//! timed as a restart.

use std::time::{Duration, Instant};

use qpv_core::{AuditReport, Ppdb};
use qpv_synth::generate_stable;

use crate::common::{self, DataRows, House, Mirror, PoolDelta, StorageProbes, ALPHA};
use crate::outcome::{Outcome, Pass};
use crate::stats::{Calls, Samples};
use crate::trace::Tracer;

/// Cycles between restarts in the timed loop.
pub const RESTART_EVERY: usize = 3;

pub fn run(pass: &Pass, tr: &mut Tracer) -> Result<Outcome, String> {
    let house = House::new();
    let n = pass.providers;
    let mut out = Outcome::default();

    // ---- inputs, all generated before timing -----------------------------
    let t = Instant::now();
    let population = generate_stable(&house.spec, n, pass.seed);
    let max_cycles = (pass.seconds / pass.slices as f64 * 200.0) as usize + 16;
    let streams = common::slice_streams(&house.spec, pass, max_cycles);
    let rows = DataRows::new(population.data_rows);
    let profiles = population.profiles;
    out.fact("generator_s", t.elapsed().as_secs_f64());
    out.fact(
        "setup_order",
        "generate; per slice: sync, load a fresh store in a child process (create, register all with 1 \
         fsynced txn each, checkpoint, exit), sync, then open, Ppdb::open, certify_alpha (restart), then \
         timed cycles, every 3rd reopening the store, then checks",
    );

    let mut calls = Calls::default();
    let mut setup = Samples::default();
    let mut restart = Samples::default();
    let mut write = Samples::default();
    let mut audit = Samples::default();
    let mut probes = Probes::default();
    let mut disk = 0.0;
    for (slice, stream) in streams.iter().enumerate() {
        // ---- set-up ----------------------------------------------------------
        let dir = pass.scratch.sub(&format!("store{slice}"));
        setup.push(common::setup_store(pass, &dir)?);
        if slice == 0 {
            disk = common::store_facts(&mut out, &dir, n);
        }

        // ---- restart: reopen, then the first certify --------------------------
        let mut certifies = 0usize;
        let t = Instant::now();
        let mut ppdb = common::open_ppdb(&dir).map_err(|e| format!("reopen: {e}"))?;
        calls
            .count(ppdb.certify_alpha(ALPHA, "restart"))
            .map_err(|e| format!("certify after restart: {e}"))?;
        restart.push(t.elapsed().as_secs_f64());
        certifies += 1;

        // ---- timed closed loop -------------------------------------------------
        let mut mirror = Mirror::new(&profiles);
        let mut last_certified = None;
        let mut ops = stream.ops().iter();
        let deadline = Instant::now() + Duration::from_secs_f64(pass.seconds / pass.slices as f64);
        let mut pool_before = ppdb.db_mut().pool_stats();
        let mut cycle = 0usize;
        while Instant::now() < deadline {
            out.host.tick();
            let Some(op) = ops.next() else { break };
            cycle += 1;
            let req = tr.request("audit.cycle");
            if let Some(dt) =
                probes
                    .storage
                    .write(&mut ppdb, &dir, op, &rows, &mut mirror, &mut calls, tr)
            {
                write.push(dt);
            }
            // Every RESTART_EVERY-th cycle closes the store and certifies from
            // a cold reopen, so restarts are sampled across the slice.
            let reopen = cycle.is_multiple_of(RESTART_EVERY);
            let t = Instant::now();
            if reopen {
                probes.writebacks += ppdb.db_mut().pool_stats().evictions - pool_before.evictions;
                drop(ppdb);
                let span = tr.enter("ppdb.open");
                ppdb = common::open_ppdb(&dir).map_err(|e| format!("reopen: {e}"))?;
                tr.exit(span);
                pool_before = ppdb.db_mut().pool_stats();
            }
            let pool = ppdb.db_mut().pool_stats();
            let span = tr.enter("ppdb.certify_alpha");
            let tc = Instant::now();
            let certified = calls.count(ppdb.certify_alpha(ALPHA, "cycle"));
            let certify_s = tc.elapsed().as_secs_f64();
            let dt = t.elapsed().as_secs_f64();
            tr.exit(span);
            if let Ok(ok) = certified {
                if reopen {
                    restart.push(dt);
                } else {
                    audit.push(dt);
                }
                certifies += 1;
                last_certified = Some(ok);
            }
            probes.storage.backlog_max = probes.storage.backlog_max.max(ppdb.delta_backlog_len());
            ppdb.ack_delta(ppdb.delta_backlog_len());
            if tr.enabled() {
                probes.certify_pool.add(pool, ppdb.db_mut().pool_stats());
                probes.run(&mut ppdb, tr, certify_s);
            }
            tr.exit(req);
        }
        probes.writebacks += ppdb.db_mut().pool_stats().evictions - pool_before.evictions;

        // ---- checks (untimed) ----------------------------------------------------
        let reference = house.engine.run_reference(&mirror.profiles());
        match ppdb.audit() {
            Ok(report) => out.check(
                "audit_equals_reference",
                sorted(report) == reference,
                format!(
                    "slice {slice}: Ppdb::audit vs run_reference over {} mirrored profiles",
                    reference.population()
                ),
            ),
            Err(e) => out.check(
                "audit_equals_reference",
                false,
                format!("slice {slice}: audit failed: {e}"),
            ),
        }
        if let Some(ok) = last_certified {
            out.check(
                "certify_matches_reference",
                ok == reference.is_alpha_ppdb(ALPHA),
                format!("slice {slice}: last certify_alpha({ALPHA}) = {ok}"),
            );
        }
        let history = ppdb.audit_history().map(|h| h.len()).unwrap_or(0);
        out.check(
            "audit_history_complete",
            history == certifies,
            format!("slice {slice}: {history} audit-log rows for {certifies} certifications"),
        );
        if slice == 0 {
            let pop = qpv_core::CompiledPopulation::from_profiles(&mirror.profiles());
            out.fact("dedup_ratio", pop.dedup_ratio());
        }
        drop(ppdb);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- metrics -------------------------------------------------------------
    out.calls = calls;
    out.generic(&setup, &restart, &write, &audit, disk);
    out.e2e
        .add_quantile("audit_ms_p50", &audit, 0.5, "p50", 1e3, "ms");
    out.raw("audit_s", &audit);
    out.fact("providers", n);
    out.fact(
        "flush_policy",
        "reldb: WAL sync_data on every commit (one txn per write); delta queue acked per cycle",
    );
    if tr.enabled() {
        probes.report(&mut out, tr);
    }
    Ok(out)
}

/// Providers in id order: the store's scan order and the mirror's order
/// differ after churn, the per-provider results must not.
fn sorted(mut report: AuditReport) -> AuditReport {
    report.providers.sort_by_key(|p| p.provider);
    report
}

/// Layer probes of the traced run: after each certify, price each layer
/// the certify went through by calling it on its own.
#[derive(Default)]
struct Probes {
    storage: StorageProbes,
    writebacks: u64,
    certify_pool: PoolDelta,
    unattributed: Samples,
    compile_self: Samples,
    dedup_ratio: f64,
    resident_mb: f64,
}

impl Probes {
    fn run(&mut self, ppdb: &mut Ppdb, tr: &mut Tracer, certify_s: f64) {
        let (engine, engine_s) = tr.probe("ppdb.audit_engine", || ppdb.audit_engine());
        let scans_s = StorageProbes::probe(ppdb, tr);
        let (pop, compile_s) = tr.probe("pop.compile", || ppdb.compiled_population());
        if let (Ok(engine), Ok(pop)) = (engine, pop) {
            let kernel_s = tr.probe("audit.kernel", || engine.audit_compiled(&pop)).1;
            self.unattributed
                .push(certify_s - engine_s - compile_s - kernel_s);
            self.compile_self.push(compile_s - scans_s);
            self.dedup_ratio = pop.dedup_ratio();
            self.resident_mb = pop.resident_bytes() as f64 / (1024.0 * 1024.0);
        }
    }

    fn report(&self, out: &mut Outcome, tr: &Tracer) {
        let pool = PoolDelta {
            evictions: self.writebacks,
            ..self.certify_pool
        };
        self.storage
            .report(out, tr, pool, "misses/requests during certify");
        out.layer_median(
            "ppdb.audit_engine_ms",
            &tr.durations("ppdb.audit_engine"),
            1e3,
        );
        out.layer_median("ppdb.audit_unattributed_ms", &self.unattributed, 1e3);
        out.layer_median("pop.compile_ms", &tr.durations("pop.compile"), 1e3);
        out.layer_median("pop.compile_self_ms", &self.compile_self, 1e3);
        out.layer("pop.dedup_ratio", self.dedup_ratio, 1, "last");
        out.layer("pop.resident_mb", self.resident_mb, 1, "last");
        out.layer_median("audit.kernel_ms", &tr.durations("audit.kernel"), 1e3);
    }
}
