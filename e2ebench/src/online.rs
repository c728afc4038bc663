//! `online_10k`: answer violation questions while providers change their
//! preferences. The store fits the buffer pool, so SQL planning, live-index
//! lookups and O(changed) index maintenance serve the reads, and the
//! writes hit a pool-resident store.
//!
//! Set-up order: generate the inputs; then, per slice (see [`Pass`]), load
//! a fresh store in a child process (create → register every provider, one
//! fsynced transaction each → checkpoint → exit) between two `sync(2)`
//! calls, restart (open →
//! `Ppdb::open` → `Ppdb::live_index`, the cold build), run the timed closed
//! loop, and check. The loop runs request blocks: [`QUERIES_PER_BLOCK`] 1%-range `query_live`
//! calls over `_qpv_violations`, each followed by an ack of the delta queue
//! up to what the live index applied, then one churn write; every
//! [`RESTART_EVERY`]-th block is followed by another restart.

use std::path::Path;
use std::time::{Duration, Instant};

use qpv_core::Ppdb;
use qpv_reldb::exec::ResultSet;
use qpv_synth::generate_stable;
use qpv_synth::workload::selectivity_ranges;

use crate::common::{self, DataRows, House, Mirror, PoolDelta, StorageProbes};
use crate::outcome::{Outcome, Pass};
use crate::stats::{ratio, tail_quantile, Calls, Samples};
use crate::trace::Tracer;

pub const QUERIES_PER_BLOCK: usize = 19;
/// Request blocks between restarts in the timed loop.
pub const RESTART_EVERY: usize = 60;
/// Queries re-run against the full sweep in the correctness check.
const CHECKED_QUERIES: usize = 40;

type Tuple = (i64, String, String, i64);

fn sql(lo: u64, hi: u64) -> String {
    format!("SELECT * FROM _qpv_violations WHERE provider >= {lo} AND provider < {hi}")
}

fn tuples(rs: &ResultSet) -> Vec<Tuple> {
    let mut out: Vec<Tuple> = rs
        .rows
        .iter()
        .map(|r| {
            (
                r.values[0].as_int().unwrap_or(-1),
                r.values[1].as_text().unwrap_or("").to_string(),
                r.values[2].as_text().unwrap_or("").to_string(),
                r.values[3].as_int().unwrap_or(-1),
            )
        })
        .collect();
    out.sort();
    out
}

pub fn run(pass: &Pass, tr: &mut Tracer) -> Result<Outcome, String> {
    let house = House::new();
    let n = pass.providers;
    let mut out = Outcome::default();

    // ---- inputs, all generated before timing -----------------------------
    let t = Instant::now();
    let population = generate_stable(&house.spec, n, pass.seed);
    let max_blocks = (pass.seconds / pass.slices as f64 * 200.0) as usize + 16;
    let streams = common::slice_streams(&house.spec, pass, max_blocks);
    let queries: Vec<Vec<(u64, u64, String)>> = (0..max_blocks)
        .map(|b| {
            let block_seed = pass.seed.wrapping_mul(0x9E37_79B9).wrapping_add(b as u64);
            selectivity_ranges(n, &[0.01; QUERIES_PER_BLOCK], block_seed)
                .into_iter()
                .map(|(_, r)| (r.start, r.end, sql(r.start, r.end)))
                .collect()
        })
        .collect();
    let rows = DataRows::new(population.data_rows);
    let profiles = population.profiles;
    out.fact("generator_s", t.elapsed().as_secs_f64());

    out.fact(
        "setup_order",
        "generate; per slice: sync, load a fresh store in a child process (create, register all with 1 \
         fsynced txn each, checkpoint, exit), sync, then open, Ppdb::open, live_index (restart), then timed \
         blocks with a restart after every 60th, then checks",
    );

    let mut calls = Calls::default();
    let mut setup = Samples::default();
    let mut restart = Samples::default();
    let mut cold_build = Samples::default();
    let mut write = Samples::default();
    let mut query = Samples::default();
    let mut request = Samples::default();
    let mut probes = Probes::default();
    let mut pool = PoolDelta::default();
    let mut disk = 0.0;
    let mut live_builds = 0;
    let mut final_providers = 0;
    for (slice, stream) in streams.iter().enumerate() {
        // ---- set-up ----------------------------------------------------------
        let dir = pass.scratch.sub(&format!("store{slice}"));
        setup.push(common::setup_store(pass, &dir)?);
        if slice == 0 {
            disk = common::store_facts(&mut out, &dir, n);
        }

        // ---- restart: reopen and cold-build the live index ------------------
        let mut ppdb = reopen(&dir, &mut calls, &mut restart, &mut cold_build)?;
        let mut queue = ppdb.delta_queue();

        // ---- timed closed loop ---------------------------------------------------
        let mut mirror = Mirror::new(&profiles);
        let mut issued = Vec::new();
        let deadline = Instant::now() + Duration::from_secs_f64(pass.seconds / pass.slices as f64);
        let mut pool_before = ppdb.db_mut().pool_stats();
        'blocks: for (b, (block, op)) in queries.iter().zip(stream.ops()).enumerate() {
            for (lo, hi, sql) in block {
                if Instant::now() >= deadline {
                    break 'blocks;
                }
                out.host.tick();
                let req = tr.request("online.query");
                if tr.enabled() {
                    probes.before_query(&mut ppdb, tr, sql);
                }
                let t = Instant::now();
                let result = calls.count(ppdb.query_live(sql));
                let dt = t.elapsed().as_secs_f64();
                probes.storage.backlog_max =
                    probes.storage.backlog_max.max(ppdb.delta_backlog_len());
                ppdb.ack_delta_through(queue.next_seq());
                let total = t.elapsed().as_secs_f64();
                if let Ok(rs) = result {
                    query.push(dt);
                    request.push(total);
                    probes.after_query(dt, rs.rows.len());
                }
                tr.exit(req);
                issued.push((*lo, *hi));
            }
            let req = tr.request("online.write");
            if let Some(dt) =
                probes
                    .storage
                    .write(&mut ppdb, &dir, op, &rows, &mut mirror, &mut calls, tr)
            {
                write.push(dt);
                request.push(dt);
            }
            if tr.enabled() {
                probes.after_write(&mut ppdb, tr);
            }
            tr.exit(req);
            // Every RESTART_EVERY-th block closes the store and cold-builds
            // the live index from a reopen, so restarts are sampled across
            // the slice.
            if (b + 1).is_multiple_of(RESTART_EVERY) {
                pool.add(pool_before, ppdb.db_mut().pool_stats());
                live_builds = live_builds.max(ppdb.live_builds());
                drop(ppdb);
                ppdb = reopen(&dir, &mut calls, &mut restart, &mut cold_build)?;
                queue = ppdb.delta_queue();
                pool_before = ppdb.db_mut().pool_stats();
            }
        }
        pool.add(pool_before, ppdb.db_mut().pool_stats());
        live_builds = live_builds.max(ppdb.live_builds());

        // ---- checks (untimed) ------------------------------------------------------
        check_queries(&mut out, &mut ppdb, &issued, pass.seed ^ slice as u64);
        let reference = house.engine.run_reference(&mirror.profiles());
        match ppdb.audit() {
            Ok(mut report) => {
                report.providers.sort_by_key(|p| p.provider);
                out.check(
                    "audit_equals_reference",
                    report == reference,
                    format!(
                        "slice {slice}: Ppdb::audit vs run_reference over {} mirrored profiles",
                        reference.population()
                    ),
                );
            }
            Err(e) => out.check(
                "audit_equals_reference",
                false,
                format!("slice {slice}: audit failed: {e}"),
            ),
        }
        final_providers = reference.population();
        if slice == 0 {
            let pop = qpv_core::CompiledPopulation::from_profiles(&mirror.profiles());
            out.fact("dedup_ratio", pop.dedup_ratio());
        }
        if tr.enabled() && slice + 1 == pass.slices {
            if let Ok(live) = ppdb.live_index() {
                let pop = live.compiled_population();
                out.layer("pop.dedup_ratio", pop.dedup_ratio(), 1, "last");
                out.layer(
                    "pop.resident_mb",
                    pop.resident_bytes() as f64 / (1024.0 * 1024.0),
                    1,
                    "last",
                );
            }
        }
        drop(ppdb);
        let _ = std::fs::remove_dir_all(&dir);
    }
    out.check(
        "live_index_built_once",
        live_builds == 1,
        format!("at most {live_builds} cold builds of the live index per open (must stay 1)"),
    );
    out.calls = calls;

    // ---- metrics -------------------------------------------------------------
    out.generic(&setup, &restart, &write, &request, disk);
    let (q, label) = tail_quantile(write.len());
    out.e2e
        .add_quantile(&format!("write_ms_{label}"), &write, q, label, 1e3, "ms");
    out.e2e
        .add_quantile("query_us_p50", &query, 0.5, "p50", 1e6, "us");
    let (q, label) = tail_quantile(query.len());
    out.e2e
        .add_quantile(&format!("query_us_{label}"), &query, q, label, 1e6, "us");
    out.fact("providers", n);
    out.fact("final_providers", final_providers);
    out.fact("queries_per_block", QUERIES_PER_BLOCK);
    out.fact(
        "flush_policy",
        "reldb: WAL sync_data on every commit (one txn per write); delta queue acked after every query",
    );
    if tr.enabled() {
        out.layer_median("liveindex.cold_build_ms", &cold_build, 1e3);
        out.layer("liveindex.builds", live_builds as f64, 1, "max per open");
        probes.report(&mut out, tr, pool);
    }
    Ok(out)
}

/// Open the store and cold-build the live index (the first answer after
/// a restart), timing both.
fn reopen(
    dir: &Path,
    calls: &mut Calls,
    restart: &mut Samples,
    cold_build: &mut Samples,
) -> Result<Ppdb, String> {
    let t = Instant::now();
    let mut ppdb = common::open_ppdb(dir).map_err(|e| format!("reopen: {e}"))?;
    let opened = t.elapsed().as_secs_f64();
    calls
        .count(ppdb.live_index().map(|_| ()))
        .map_err(|e| format!("live index after restart: {e}"))?;
    let total = t.elapsed().as_secs_f64();
    restart.push(total);
    cold_build.push(total - opened);
    Ok(ppdb)
}

/// Re-run a seeded sample of the issued ranges through `query_live` and
/// compare each with the same range filtered from a full
/// `query_violations` sweep (the snapshot path, compiled from storage).
fn check_queries(out: &mut Outcome, ppdb: &mut Ppdb, issued: &[(u64, u64)], seed: u64) {
    let sweep = match ppdb.query_violations("SELECT * FROM _qpv_violations") {
        Ok(rs) => tuples(&rs),
        Err(e) => {
            return out.check(
                "live_queries_equal_sweep",
                false,
                format!("sweep failed: {e}"),
            )
        }
    };
    let mut mismatches = 0;
    let picks = CHECKED_QUERIES.min(issued.len());
    for i in 0..picks {
        let pick = (seed
            .wrapping_mul(0x2545_F491_4F6C_DD1D)
            .wrapping_add(i as u64 * 7919)
            % issued.len() as u64) as usize;
        let (lo, hi) = issued[pick];
        let want: Vec<Tuple> = sweep
            .iter()
            .filter(|t| (lo as i64..hi as i64).contains(&t.0))
            .cloned()
            .collect();
        match ppdb.query_live(&sql(lo, hi)) {
            Ok(rs) if tuples(&rs) == want => {}
            _ => mismatches += 1,
        }
    }
    out.check(
        "live_queries_equal_sweep",
        picks > 0 && mismatches == 0,
        format!(
            "{mismatches} of {picks} sampled ranges differ from the sweep ({} rows)",
            sweep.len()
        ),
    );
}

/// Layer probes of the traced run.
#[derive(Default)]
struct Probes {
    storage: StorageProbes,
    refresh: Samples,
    plan: Samples,
    exec: Samples,
    rows: u64,
    queries: u64,
    /// Pool traffic of the probes themselves.
    pool: PoolDelta,
}

impl Probes {
    /// Refresh the live index on its own (so the query does no
    /// maintenance) and plan the query on its own.
    fn before_query(&mut self, ppdb: &mut Ppdb, tr: &mut Tracer, sql: &str) {
        let before = ppdb.db_mut().pool_stats();
        self.refresh.push(
            tr.probe("liveindex.refresh", || ppdb.live_index().map(|_| ()))
                .1,
        );
        self.plan.push(tr.probe("sql.plan", || ppdb.explain(sql)).1);
        self.pool.add(before, ppdb.db_mut().pool_stats());
    }

    fn after_query(&mut self, query_s: f64, rows: usize) {
        if let Some(plan) = self.plan.last() {
            self.exec.push(query_s - plan);
        }
        self.rows += rows as u64;
        self.queries += 1;
    }

    /// Price the storage layers the write went through.
    fn after_write(&mut self, ppdb: &mut Ppdb, tr: &mut Tracer) {
        let before = ppdb.db_mut().pool_stats();
        StorageProbes::probe(ppdb, tr);
        self.pool.add(before, ppdb.db_mut().pool_stats());
    }

    fn report(&self, out: &mut Outcome, tr: &Tracer, pool: PoolDelta) {
        // Pool traffic of the whole timed phase, probes excluded.
        let pool = PoolDelta {
            hits: pool.hits.saturating_sub(self.pool.hits),
            misses: pool.misses.saturating_sub(self.pool.misses),
            evictions: pool.evictions,
        };
        self.storage
            .report(out, tr, pool, "misses/requests in queries and writes");
        out.layer_median("sql.plan_us", &self.plan, 1e6);
        out.layer_median("liveindex.refresh_us", &self.refresh, 1e6);
        out.layer_median("liveindex.exec_us", &self.exec, 1e6);
        out.layer(
            "liveindex.rows_per_query",
            ratio(self.rows as f64, self.queries as f64),
            self.queries as usize,
            "mean",
        );
    }
}
