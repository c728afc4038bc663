//! The fixture every workload shares: the seeded mixed population spec,
//! the durable PPDB it is loaded into, churn writes through the `Ppdb`
//! write API, and the benchmark's own mirror of the profiles that the
//! correctness checks compare against.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use qpv_core::{AuditEngine, DeltaOp, PopulationDelta, Ppdb, PpdbConfig, ProviderProfile};
use qpv_policy::{HousePolicy, ProviderId};
use qpv_reldb::buffer::PoolStats;
use qpv_reldb::error::DbResult;
use qpv_reldb::schema::{Schema, SchemaBuilder};
use qpv_reldb::{DataType, Database, Row, Value};
use qpv_synth::population::AttributeSpec;
use qpv_synth::{PopulationSpec, SegmentMix};
use qpv_taxonomy::PrivacyPoint;

use crate::outcome::{Outcome, Pass};
use crate::stats::{ratio, Calls};
use crate::sys;
use crate::trace::Tracer;

/// The α of Definition 3 that `certify_alpha` checks (the monitor's
/// default bound).
pub const ALPHA: f64 = 0.05;

/// Un-acked delta ops a `Ppdb` holds before refusing writes with
/// `DbError::Backpressure`. The benchmark acks after every request, so a
/// refusal means the consumer side stalled.
pub const DELTA_CAPACITY: usize = 4096;

/// Data table and provider column of the PPDB.
pub const DATA_TABLE: &str = "people";
pub const PROVIDER_COLUMN: &str = "provider_id";

/// The storage tables the compile path scans, as `(label, table, probe
/// span)`.
const SCANNED_TABLES: [(&str, &str, &str); 4] = [
    ("data", DATA_TABLE, "reldb.scan.data"),
    ("prefs", "_qpv_prefs", "reldb.scan.prefs"),
    ("sens", "_qpv_sens", "reldb.scan.sens"),
    ("thresholds", "_qpv_thresholds", "reldb.scan.thresholds"),
];

/// The mixed churn spec of the live-index bench: weight/age ×
/// service/research under the Westin 2001 segment mix (~3.9 preference
/// rows per provider).
pub fn spec() -> PopulationSpec {
    let pt = PrivacyPoint::from_raw;
    PopulationSpec {
        attributes: vec![
            AttributeSpec::new("weight", 4, pt(2, 2, 90), (40, 180)),
            AttributeSpec::new("age", 2, pt(2, 3, 365), (18, 95)),
        ],
        purposes: vec!["service".into(), "research".into()],
        mix: SegmentMix::WESTIN_2001,
    }
}

/// The house configuration the store is audited against.
pub struct House {
    pub spec: PopulationSpec,
    pub policy: HousePolicy,
    pub engine: AuditEngine,
}

impl House {
    pub fn new() -> House {
        let spec = spec();
        let policy = spec.baseline_policy("house");
        let engine = AuditEngine::new(
            policy.clone(),
            spec.attribute_names(),
            spec.attribute_weights(),
        );
        House {
            spec,
            policy,
            engine,
        }
    }

    /// The data table: provider id, then one INT per attribute.
    pub fn schema(&self) -> Schema {
        let mut b = SchemaBuilder::new().column(PROVIDER_COLUMN, DataType::Int);
        for a in &self.spec.attributes {
            b = b.column(&a.name, DataType::Int);
        }
        b.build().expect("data schema")
    }

    /// Create an empty PPDB in `dir` with the house policy and weights.
    pub fn create_ppdb(&self, dir: &Path) -> DbResult<Ppdb> {
        let mut ppdb = Ppdb::create(Database::open(dir)?, config(), self.schema())?;
        ppdb.set_policy(&self.policy)?;
        for a in &self.spec.attributes {
            ppdb.set_attribute_weight(&a.name, a.weight)?;
        }
        Ok(ppdb)
    }
}

pub fn config() -> PpdbConfig {
    PpdbConfig::new(DATA_TABLE, PROVIDER_COLUMN).with_delta_capacity(DELTA_CAPACITY)
}

/// Reopen a store written by [`House::create_ppdb`].
pub fn open_ppdb(dir: &Path) -> DbResult<Ppdb> {
    Ppdb::open(Database::open(dir)?, config())
}

/// Data rows for every provider id: the generated rows for the initial
/// population, a deterministic synthetic row for ids churn adds later.
pub struct DataRows {
    initial: Vec<Row>,
}

impl DataRows {
    pub fn new(initial: Vec<Row>) -> DataRows {
        DataRows { initial }
    }

    pub fn row(&self, id: ProviderId) -> Row {
        match self.initial.get(id.0 as usize) {
            Some(row) => row.clone(),
            None => {
                let n = id.0 as i64;
                Row::from_values([
                    Value::Int(n),
                    Value::Int(40 + n % 141),
                    Value::Int(18 + n % 78),
                ])
            }
        }
    }
}

/// Register every profile, one durable transaction each, acking the delta
/// queue as it goes (no consumer runs during a load).
pub fn load(ppdb: &mut Ppdb, profiles: &[ProviderProfile], rows: &DataRows) -> DbResult<()> {
    for p in profiles {
        ppdb.register_provider(p, rows.row(p.id()))?;
        ppdb.ack_delta(ppdb.delta_backlog_len());
    }
    Ok(())
}

/// Load a fresh store into `dir` in a child process (this program with
/// `--load-store`) and return the load time the child measured.
///
/// Loading in a child fixes the set-up order: the timed phase always runs
/// in a process that opened the store cold, never in the one that loaded
/// it (whose heap the load leaves behind).
pub fn setup_store(pass: &Pass, dir: &Path) -> Result<f64, String> {
    let _ = std::fs::remove_dir_all(dir);
    sys::settle();
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    let out = Command::new(exe)
        .arg("--load-store")
        .arg(dir)
        .args([
            "--seed",
            &pass.seed.to_string(),
            "--providers",
            &pass.providers.to_string(),
        ])
        .output()
        .map_err(|e| format!("spawn loader: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let load_s = stdout
        .lines()
        .find_map(|l| l.strip_prefix("load_s "))
        .and_then(|v| v.trim().parse::<f64>().ok());
    // The load's write-back lands here, not in the restart that follows.
    sys::settle();
    match (out.status.success(), load_s) {
        (true, Some(s)) => Ok(s),
        _ => Err(format!(
            "loader failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

/// Record the loaded store's size against the buffer pool; returns its
/// bytes on disk per provider.
pub fn store_facts(out: &mut Outcome, dir: &Path, providers: usize) -> f64 {
    let pages = sys::file_bytes(&dir.join("pages.db")) / qpv_reldb::page::PAGE_SIZE as u64;
    let pool = qpv_reldb::buffer::BufferPool::DEFAULT_CAPACITY;
    out.fact("pages", pages);
    out.fact("pool_capacity_pages", pool);
    out.fact("pages_per_pool", pages as f64 / pool as f64);
    sys::dir_bytes(dir) as f64 / providers as f64
}

/// The child side of [`setup_store`]: generate the seeded population,
/// then time create → register all → checkpoint → close, and print
/// `load_s <seconds>`.
pub fn load_store(dir: &Path, seed: u64, providers: usize) -> Result<(), String> {
    let house = House::new();
    let population = qpv_synth::generate_stable(&house.spec, providers, seed);
    let rows = DataRows::new(population.data_rows);
    let t = Instant::now();
    let mut ppdb = house.create_ppdb(dir).map_err(|e| format!("create: {e}"))?;
    load(&mut ppdb, &population.profiles, &rows).map_err(|e| format!("load: {e}"))?;
    ppdb.db_mut()
        .checkpoint()
        .map_err(|e| format!("checkpoint: {e}"))?;
    drop(ppdb);
    println!("load_s {}", t.elapsed().as_secs_f64());
    Ok(())
}

/// One churn stream per slice of a pass, seeded from the run's seed.
///
/// Each slice starts from a fresh store, so it can take a stream of its
/// own: a run then prices `slices` times as many distinct writes as one
/// replayed stream would. The write kinds differ in cost by two orders of
/// magnitude, so with one replayed stream the run's write mix, and every
/// figure that sums writes, swung with the seed.
pub fn slice_streams(
    spec: &PopulationSpec,
    pass: &Pass,
    ops_per_slice: usize,
) -> Vec<PopulationDelta> {
    (0..pass.slices as u64)
        .map(|slice| {
            let seed = pass
                .seed
                .wrapping_add(slice.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            qpv_synth::churn(spec, pass.providers, ops_per_slice, seed)
        })
        .collect()
}

/// The provider an op targets.
pub fn op_id(op: &DeltaOp) -> ProviderId {
    match op {
        DeltaOp::Upsert(p) => p.id(),
        DeltaOp::Remove(id)
        | DeltaOp::SetAttributePrefs { id, .. }
        | DeltaOp::SetSensitivity { id, .. }
        | DeltaOp::SetThreshold { id, .. } => *id,
    }
}

/// The benchmark's own copy of the population, keyed by provider id.
/// Each op is applied by `PopulationDelta::apply_to_profiles` to the one
/// profile it targets, so the mirror follows the model's own delta
/// semantics in O(log n) per op.
pub struct Mirror {
    profiles: BTreeMap<ProviderId, ProviderProfile>,
}

impl Mirror {
    pub fn new(profiles: &[ProviderProfile]) -> Mirror {
        Mirror {
            profiles: profiles.iter().map(|p| (p.id(), p.clone())).collect(),
        }
    }

    pub fn contains(&self, id: ProviderId) -> bool {
        self.profiles.contains_key(&id)
    }

    pub fn apply(&mut self, op: &DeltaOp) {
        let id = op_id(op);
        let mut one: Vec<ProviderProfile> = self.profiles.remove(&id).into_iter().collect();
        let mut delta = PopulationDelta::new();
        delta.push(op.clone());
        delta.apply_to_profiles(&mut one);
        if let Some(p) = one.pop() {
            self.profiles.insert(id, p);
        }
    }

    pub fn apply_delta(&mut self, delta: &PopulationDelta) {
        for op in delta.ops() {
            self.apply(op);
        }
    }

    /// The profiles in id order.
    pub fn profiles(&self) -> Vec<ProviderProfile> {
        self.profiles.values().cloned().collect()
    }
}

/// The `Ppdb` write a churn op becomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    Register,
    Remove,
    Prefs,
    Sens,
    Threshold,
}

impl WriteKind {
    pub const ALL: [WriteKind; 5] = [
        WriteKind::Register,
        WriteKind::Remove,
        WriteKind::Prefs,
        WriteKind::Sens,
        WriteKind::Threshold,
    ];

    pub fn label(self) -> &'static str {
        match self {
            WriteKind::Register => "register",
            WriteKind::Remove => "remove",
            WriteKind::Prefs => "prefs",
            WriteKind::Sens => "sens",
            WriteKind::Threshold => "threshold",
        }
    }

    /// Span name of this write in the traced run.
    pub fn span(self) -> &'static str {
        match self {
            WriteKind::Register => "ppdb.write.register",
            WriteKind::Remove => "ppdb.write.remove",
            WriteKind::Prefs => "ppdb.write.prefs",
            WriteKind::Sens => "ppdb.write.sens",
            WriteKind::Threshold => "ppdb.write.threshold",
        }
    }
}

/// Apply one churn op through the `Ppdb` write API and advance the mirror
/// by what committed. An upsert of a live id is sent as remove + register
/// and counted and timed as one write. Returns the write's latency, or
/// `None` when the call failed (counted in `calls`).
pub fn churn_write(
    ppdb: &mut Ppdb,
    op: &DeltaOp,
    rows: &DataRows,
    mirror: &mut Mirror,
    calls: &mut Calls,
    tr: &mut Tracer,
) -> Option<f64> {
    let t = Instant::now();
    let result = match op {
        DeltaOp::Upsert(p) if mirror.contains(p.id()) => {
            let removed = traced(tr, WriteKind::Remove, || ppdb.remove_provider(p.id()));
            if removed.is_ok() {
                mirror.apply(&DeltaOp::Remove(p.id()));
            }
            removed.and_then(|()| {
                traced(tr, WriteKind::Register, || {
                    ppdb.register_provider(p, rows.row(p.id()))
                })
            })
        }
        DeltaOp::Upsert(p) => traced(tr, WriteKind::Register, || {
            ppdb.register_provider(p, rows.row(p.id()))
        }),
        DeltaOp::Remove(id) => traced(tr, WriteKind::Remove, || ppdb.remove_provider(*id)),
        DeltaOp::SetAttributePrefs {
            id,
            attribute,
            tuples,
        } => traced(tr, WriteKind::Prefs, || {
            ppdb.set_preferences(*id, attribute, tuples.clone())
        }),
        DeltaOp::SetSensitivity {
            id,
            attribute,
            sensitivity,
        } => traced(tr, WriteKind::Sens, || {
            ppdb.set_sensitivity(*id, attribute, *sensitivity)
        }),
        DeltaOp::SetThreshold { id, threshold } => traced(tr, WriteKind::Threshold, || {
            ppdb.set_threshold(*id, *threshold)
        }),
    };
    let elapsed = t.elapsed().as_secs_f64();
    match calls.count(result) {
        Ok(()) => {
            mirror.apply(op);
            Some(elapsed)
        }
        Err(_) => None,
    }
}

fn traced(tr: &mut Tracer, kind: WriteKind, f: impl FnOnce() -> DbResult<()>) -> DbResult<()> {
    tr.probe(kind.span(), f).0
}

/// The WAL file of the store's live checkpoint generation.
fn wal_file(dir: &Path, ppdb: &mut Ppdb) -> std::path::PathBuf {
    qpv_reldb::db::wal_path(dir, ppdb.db_mut().generation())
}

/// Storage-path layer probes both PPDB workloads share (traced pass).
#[derive(Default)]
pub struct StorageProbes {
    wal_bytes: u64,
    writes: u64,
    pub backlog_max: usize,
}

impl StorageProbes {
    /// [`churn_write`], with the WAL growth it caused measured when
    /// tracing.
    #[allow(clippy::too_many_arguments)]
    pub fn write(
        &mut self,
        ppdb: &mut Ppdb,
        dir: &Path,
        op: &DeltaOp,
        rows: &DataRows,
        mirror: &mut Mirror,
        calls: &mut Calls,
        tr: &mut Tracer,
    ) -> Option<f64> {
        let wal = tr.enabled().then(|| sys::file_bytes(&wal_file(dir, ppdb)));
        let latency = churn_write(ppdb, op, rows, mirror, calls, tr);
        if let Some(before) = wal {
            self.wal_bytes += sys::file_bytes(&wal_file(dir, ppdb)).saturating_sub(before);
            self.writes += 1;
        }
        latency
    }

    /// Price the storage layers on their own: `Ppdb::provider_ids`, a
    /// `Database::scan` of each table the compile path reads, and an empty
    /// begin/commit (the fsync floor). Returns the scans' total seconds.
    pub fn probe(ppdb: &mut Ppdb, tr: &mut Tracer) -> f64 {
        tr.probe("ppdb.provider_ids", || ppdb.provider_ids()).0.ok();
        let mut scans = 0.0;
        for (_, table, span) in SCANNED_TABLES {
            scans += tr.probe(span, || ppdb.db_mut().scan(table)).1;
        }
        tr.probe("reldb.commit", || {
            let db = ppdb.db_mut();
            db.begin().and_then(|()| db.commit())
        })
        .0
        .ok();
        scans
    }

    /// Report the storage-path layer metrics; `pool` is the pool traffic
    /// the miss rate is taken over, described by `pool_stat`.
    pub fn report(&self, out: &mut Outcome, tr: &Tracer, pool: PoolDelta, pool_stat: &'static str) {
        for (label, _, span) in SCANNED_TABLES {
            out.layer_median(&format!("reldb.scan_ms.{label}"), &tr.durations(span), 1e3);
        }
        let requests = pool.hits + pool.misses;
        out.layer(
            "reldb.pool_miss_rate",
            ratio(pool.misses as f64, requests as f64),
            requests as usize,
            pool_stat,
        );
        out.layer(
            "reldb.pool_writebacks",
            pool.evictions as f64,
            1,
            "total over timed phase",
        );
        out.layer(
            "reldb.wal_bytes_per_write",
            ratio(self.wal_bytes as f64, self.writes as f64),
            self.writes as usize,
            "mean",
        );
        out.layer_median("reldb.commit_ms", &tr.durations("reldb.commit"), 1e3);
        for kind in WriteKind::ALL {
            out.layer_median(
                &format!("ppdb.write_ms.{}", kind.label()),
                &tr.durations(kind.span()),
                1e3,
            );
        }
        out.layer_median(
            "ppdb.provider_ids_ms",
            &tr.durations("ppdb.provider_ids"),
            1e3,
        );
        out.layer("ppdb.delta_backlog_max", self.backlog_max as f64, 1, "max");
    }
}

/// Buffer-pool counters accumulated over a set of calls (or handles).
#[derive(Debug, Default, Clone, Copy)]
pub struct PoolDelta {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

impl PoolDelta {
    pub fn add(&mut self, before: PoolStats, after: PoolStats) {
        self.hits += after.hits - before.hits;
        self.misses += after.misses - before.misses;
        self.evictions += after.evictions - before.evictions;
    }
}
