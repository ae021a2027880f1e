//! The traced run: per-layer attribution of the delta path.
//!
//! The same seeded statements an untraced run sends over the socket are
//! replayed in-process, twice, each time on a freshly set-up durable
//! engine: once untraced (statement times only) and once traced. The
//! traced pass times `evofd_sql::parse` and `Engine::execute_stmt`, then
//! feeds every record the statement journaled to a shadow pipeline built
//! from the layers' public types — `WalWriter`, `LiveRelation`,
//! `IncrementalValidator`, `LiveAdvisor`, the history sample,
//! `HistoryWriter` and `AlertState` — timing each call. The engine does
//! the same work inside `execute_stmt`, so the statement time minus the
//! shadow's layer times is the engine's own glue (row-id translation,
//! catalog copy, index maintenance); an in-memory `evofd_sql::Engine`
//! replaying the same DML and a timed row-id collection split that glue,
//! and what none of the calls account for is reported as the residual.
//! After the replay the snapshot, replication and recovery layers are
//! timed on the traced engine's own files.

use std::collections::BTreeMap;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::time::Instant;

use evofd_core::Fd;
use evofd_incremental::{Delta, IncrementalValidator, LiveAdvisor, LiveRelation, ValidatorConfig};
use evofd_persist::{
    read_snapshot, scan_wal, AlertState, Database, DurableEngine, DurableRelation, FdSample,
    HistoryFrame, HistoryWriter, ReplicaState, Shipment, SyncPolicy, WalRecord, WalWriter,
};
use evofd_sql::{Engine, QueryResult, Statement};
use evofd_storage::Catalog;

use crate::harness::{lock, result_rows, Tally, Workload, Writer};
use crate::places::{self, Rng, FDS, TABLE};
use crate::stats::{median, us, Metrics};
use crate::workloads::{self, Count, Mix, Reader};

/// Statements of the timed phase replayed per workload (fixed counts).
fn replay_len(workload: Workload) -> usize {
    match workload {
        Workload::Ingest => 1500,
        Workload::ReadMix => 1500,
        Workload::Designer => 600,
    }
}

/// Reads of the probe rotation every replay ends with.
const PROBE_READS: usize = 60;

/// UPDATEs and DELETEs appended to every replay so every statement shape
/// has samples; they are kept out of the layer medians.
const SWEEP: usize = 10;

/// Samples by name.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(f64::NAN, |v| median(v))
    }

    fn count(&self, name: &str) -> usize {
        self.0.get(name).map_or(0, Vec::len)
    }

    fn mean(&self, name: &str) -> f64 {
        self.0
            .get(name)
            .filter(|v| !v.is_empty())
            .map_or(f64::NAN, |v| v.iter().sum::<f64>() / v.len() as f64)
    }
}

/// Time one call, in µs.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, us(start.elapsed()))
}

/// The shadow pipeline: each layer's public type, fed the records the
/// traced engine journals.
struct Shadow {
    engine_wal: PathBuf,
    offset: u64,
    live: LiveRelation,
    validator: IncrementalValidator,
    advisor: Option<LiveAdvisor>,
    wal: WalWriter,
    unsynced: usize,
    history: HistoryWriter,
    history_path: PathBuf,
    history_len: u64,
    alerts: AlertState,
    stride: u64,
    /// WAL records per fsync, as the engine's policy.
    group_commit: usize,
    mem: Engine,
    /// Totals across validator and advisor rebuilds (their stats reset).
    tracker: (u64, u64),
    advisor_stats: (u64, u64, u64),
    deltas: u64,
    syncs: u64,
    compactions: u64,
    forced_compaction: bool,
    /// Bytes each appended history frame added to the file.
    frame_bytes: Vec<f64>,
}

impl Shadow {
    fn new(workload: Workload, seed: u64, dir: &Path, db: &Database) -> Result<Shadow, String> {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let table = db.get(TABLE).map_err(|e| e.to_string())?;
        let (base, _) = places::base(workload.rows(), seed);
        let mut live = LiveRelation::new(base.clone());
        live.set_compact_threshold(workload.options().compact_threshold);
        let fds = table.validator().fds().to_vec();
        let validator = IncrementalValidator::with_config(&live, fds, ValidatorConfig::default());
        let mut catalog = Catalog::new();
        catalog.insert(base).map_err(|e| e.to_string())?;
        let mut mem = Engine::with_catalog(catalog);
        mem.install_index_set(TABLE, table.indexed_columns()).map_err(|e| e.to_string())?;
        let history_path = dir.join("history.bin");
        let engine_wal = table.dir().join(evofd_persist::WAL_FILE);
        let offset = std::fs::metadata(&engine_wal).map_err(|e| e.to_string())?.len();
        Ok(Shadow {
            engine_wal,
            offset,
            live,
            validator,
            advisor: None,
            wal: WalWriter::create(&dir.join("wal.log"), SyncPolicy::NoSync)
                .map_err(|e| e.to_string())?,
            unsynced: 0,
            history: HistoryWriter::open(&history_path).map_err(|e| e.to_string())?,
            history_path,
            history_len: 0,
            alerts: table.alerts().clone(),
            stride: workload.options().history_stride,
            group_commit: match workload.options().sync {
                SyncPolicy::GroupCommit(n) => n,
                SyncPolicy::PerCommit => 1,
                SyncPolicy::NoSync => usize::MAX,
            },
            mem,
            tracker: (0, 0),
            advisor_stats: (0, 0, 0),
            deltas: 0,
            syncs: 0,
            compactions: 0,
            forced_compaction: false,
            frame_bytes: Vec::new(),
        })
    }

    /// Records the engine journaled since the last call.
    fn new_records(&mut self) -> Vec<(WalRecord, usize)> {
        let mut buf = Vec::new();
        if let Ok(mut file) = std::fs::File::open(&self.engine_wal) {
            let _ = file.seek(SeekFrom::Start(self.offset));
            let _ = file.read_to_end(&mut buf);
        }
        let mut records = Vec::new();
        let mut pos = 0;
        while pos + 8 <= buf.len() {
            let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            if pos + 8 + len > buf.len() {
                break;
            }
            match WalRecord::decode_frame(&buf[pos..pos + 8 + len]) {
                Some(record) => records.push((record, 8 + len)),
                None => break,
            }
            pos += 8 + len;
        }
        self.offset += pos as u64;
        records
    }

    fn retire_validator(&mut self) {
        let stats = self.validator.stats();
        self.tracker.0 += stats.deltas;
        self.tracker.1 += stats.incremental;
    }

    fn retire_advisor(&mut self) {
        if let Some(a) = self.advisor.take() {
            let stats = a.stats();
            self.advisor_stats.0 += stats.deltas;
            self.advisor_stats.1 += stats.incremental;
            self.advisor_stats.2 += stats.indexes_built;
        }
    }

    /// Feed every new engine record through the shadow layers; returns
    /// the time of each layer call, in µs.
    fn absorb(
        &mut self,
        s: &mut Samples,
        layers: bool,
        tally: &mut Tally,
    ) -> Vec<(&'static str, f64)> {
        let mut calls = Vec::new();
        let mut record = |s: &mut Samples, name: &'static str, t: f64| {
            if layers {
                s.push(name, t);
            }
            calls.push((name, t));
        };
        for (rec, frame_len) in self.new_records() {
            let (_, t) = timed(|| self.wal.append(&rec));
            record(s, "wal.append", t);
            self.unsynced += 1;
            if self.unsynced >= self.group_commit {
                let (_, t) = timed(|| self.wal.sync());
                record(s, "wal.sync", t);
                self.unsynced = 0;
                self.syncs += 1;
            }
            match rec {
                WalRecord::Delta { seq, epoch_after, inserts, deletes, .. } => {
                    self.deltas += 1;
                    if layers {
                        s.push("wal.delta_bytes", frame_len as f64);
                    }
                    let delta =
                        Delta { inserts, deletes: deletes.iter().map(|&d| d as usize).collect() };
                    let (applied, t) = timed(|| self.live.apply(&delta));
                    record(s, "live.apply", t);
                    let Ok(applied) = applied else {
                        tally.fail(format!("shadow rejected delta {seq}"));
                        continue;
                    };
                    tally.check(applied.epoch == epoch_after, || {
                        format!("shadow reached epoch {} for record {seq}", applied.epoch)
                    });
                    let (drift, t) = timed(|| self.validator.apply_at(&self.live, &applied, seq));
                    record(s, "tracker.apply", t);
                    if let Some(advisor) = &mut self.advisor {
                        let built = advisor.stats().indexes_built;
                        let (_, t) = timed(|| advisor.apply(&self.live, &self.validator, &applied));
                        let onset = advisor.stats().indexes_built > built;
                        record(s, if onset { "advisor.onset" } else { "advisor.apply" }, t);
                    }
                    for (name, t) in self.sample_history(seq, &drift) {
                        record(s, name, t);
                    }
                    let (n, t) = timed(|| self.live.maybe_compact());
                    if n > 0 {
                        self.compactions += 1;
                        record(s, "live.compact", t);
                        let (_, t) = timed(|| {
                            self.validator.resync(&self.live);
                            if let Some(a) = &mut self.advisor {
                                a.resync(&self.live, &self.validator);
                            }
                        });
                        record(s, "tracker.rebuild", t);
                    }
                }
                // The shadow compacted at the same delta the engine did.
                WalRecord::Compact { epoch_after, .. } if self.live.epoch() != epoch_after => {
                    tally.fail(format!(
                        "shadow at epoch {} missed a compaction to {epoch_after}",
                        self.live.epoch()
                    ));
                }
                WalRecord::FdSet { fds, .. } => {
                    let parsed: Vec<Fd> =
                        fds.iter().filter_map(|t| Fd::parse(self.live.schema(), t).ok()).collect();
                    self.retire_validator();
                    self.retire_advisor();
                    let config = self.validator.config().clone();
                    let (v, t) =
                        timed(|| IncrementalValidator::with_config(&self.live, parsed, config));
                    self.validator = v;
                    record(s, "tracker.rebuild", t);
                }
                WalRecord::AlertSet { rules, .. } => {
                    let parsed =
                        rules.iter().filter_map(|t| evofd_persist::AlertRule::parse(t).ok());
                    self.alerts.install(parsed.collect());
                }
                _ => {}
            }
        }
        calls
    }

    /// The history frame the durable store samples after each delta, and
    /// the alert evaluation on it.
    fn sample_history(
        &mut self,
        seq: u64,
        drift: &[evofd_incremental::FdDrift],
    ) -> Vec<(&'static str, f64)> {
        let epoch = self.live.epoch();
        if self.stride == 0 || !epoch.is_multiple_of(self.stride) {
            return Vec::new();
        }
        let (samples, t_sample) = timed(|| {
            let v = &self.validator;
            let schema = self.live.schema();
            v.fds()
                .iter()
                .enumerate()
                .map(|(i, fd)| FdSample {
                    fd: fd.display(schema),
                    confidence: v.measures(i).confidence,
                    g3: v.g3(i),
                    violating_groups: v.summary(i).violating_groups as u64,
                    violated: !v.is_exact(i),
                })
                .collect::<Vec<_>>()
        });
        let (transitions, t_alert) = timed(|| {
            self.alerts.evaluate(|fd| {
                samples
                    .iter()
                    .find(|x| x.fd == fd)
                    .map(|x| (x.confidence, x.g3, x.violating_groups))
            })
        });
        let schema = self.live.schema();
        let frame = HistoryFrame {
            epoch,
            seq,
            rows: self.live.row_count() as u64,
            samples,
            drifts: drift
                .iter()
                .map(|d| evofd_persist::DriftEntry {
                    fd: d.fd.display(schema),
                    kind: format!("{:?}", d.kind),
                    confidence_before: d.confidence_before,
                    confidence_after: d.confidence_after,
                    groups: d.groups.clone(),
                })
                .collect(),
            alerts: transitions
                .iter()
                .map(|t| evofd_persist::AlertEntry {
                    rule: t.rule.clone(),
                    fd: t.fd.clone(),
                    fired: t.fired,
                })
                .collect(),
        };
        let mut calls = vec![("history.sample", t_sample), ("alert.eval", t_alert)];
        if !frame.is_empty() && epoch > self.history.last_epoch() {
            let (_, t) = timed(|| self.history.append(&frame));
            calls.push(("history.append", t));
            let len = std::fs::metadata(&self.history_path).map_or(0, |m| m.len());
            self.frame_bytes.push(len.saturating_sub(self.history_len) as f64);
            self.history_len = len;
        }
        calls
    }

    /// Materialize or drop the shadow advisor the way the engine did.
    fn follow_advisor(&mut self, table: &DurableRelation) {
        match (table.advisor().is_some(), self.advisor.is_some()) {
            (true, false) => {
                let mut advisor = LiveAdvisor::new(&self.live, &self.validator);
                for record in table.decisions() {
                    let _ = advisor.restore(record);
                }
                self.advisor = Some(advisor);
            }
            (false, true) => self.retire_advisor(),
            _ => {}
        }
    }
}

/// One in-process replay over a fresh engine.
struct Replay {
    workload: Workload,
    engine: DurableEngine,
    shadow: Option<Shadow>,
    s: Samples,
    tally: Tally,
    /// Whether shadow layer samples are kept (off during the sweep).
    layers: bool,
    /// Whether DML statements join the per-statement attribution (only
    /// the backlog and the timed-phase stand-in, not the probes).
    attribute: bool,
    /// Per-layer time summed over the DML statements, µs.
    attribution: BTreeMap<&'static str, f64>,
}

fn is_dml(stmt: &Statement) -> bool {
    matches!(stmt, Statement::Insert { .. } | Statement::Delete { .. } | Statement::Update { .. })
}

impl Replay {
    fn new(workload: Workload, seed: u64, dir: &Path, traced: bool) -> Result<Replay, String> {
        let _ = std::fs::remove_dir_all(dir);
        let (rel, _) = places::base(workload.rows(), seed);
        let fds = FDS.iter().map(|t| Fd::parse(rel.schema(), t)).collect::<Result<Vec<_>, _>>();
        let fds = fds.map_err(|e| e.to_string())?;
        let mut db =
            Database::open(&dir.join("leader"), workload.options()).map_err(|e| e.to_string())?;
        db.create_table(rel, fds, ValidatorConfig::default()).map_err(|e| e.to_string())?;
        let mut engine = DurableEngine::from_database(db).map_err(|e| e.to_string())?;
        for sql in workload.setup_sql() {
            engine.execute(&sql).map_err(|e| e.to_string())?;
        }
        let shadow = if traced {
            let handle = engine.database_handle();
            let db = lock(&handle);
            Some(Shadow::new(workload, seed, &dir.join("shadow"), &db)?)
        } else {
            None
        };
        Ok(Replay {
            workload,
            engine,
            shadow,
            s: Samples::default(),
            tally: Tally::default(),
            layers: true,
            attribute: true,
            attribution: BTreeMap::new(),
        })
    }

    /// Parse and execute one statement, timing it (and, when traced, its
    /// layers).
    fn exec(&mut self, sql: &str, shape: &'static str) -> Option<QueryResult> {
        self.tally.attempted += 1;
        let (stmt, t_parse) = timed(|| evofd_sql::parse(sql));
        let stmt = match stmt {
            Ok(stmt) => stmt,
            Err(e) => {
                self.tally.fail(format!("parse `{sql}`: {e}"));
                return None;
            }
        };
        let dml = is_dml(&stmt);
        let t_rowid = match (&self.shadow, dml) {
            (Some(shadow), true) => {
                let (ids, t) = timed(|| shadow.live.live_rows().collect::<Vec<usize>>());
                std::hint::black_box(ids);
                Some(t)
            }
            _ => None,
        };
        let (result, t_exec) = timed(|| self.engine.engine_mut().execute_stmt(&stmt));
        let result = match result {
            Ok(r) => r,
            Err(e) => {
                self.tally.fail(format!("`{}`: {e}", &sql[..sql.len().min(80)]));
                return None;
            }
        };
        self.s.push("sql.parse", t_parse);
        self.s.push(shape, t_exec);
        let class = match &stmt {
            _ if dml => Some("class.write"),
            Statement::Select(_) | Statement::CheckFd { .. } => Some("class.read"),
            _ => None,
        };
        if let Some(class) = class {
            self.s.push(class, t_parse + t_exec);
        }
        if let Some(shadow) = &mut self.shadow {
            let calls = shadow.absorb(&mut self.s, self.layers, &mut self.tally);
            if let Some(t_rowid) = t_rowid {
                let (_, t_catalog) = timed(|| shadow.mem.execute_stmt(&stmt));
                let layers: f64 = calls.iter().map(|c| c.1).sum();
                if self.layers {
                    let residual = t_exec - layers - t_rowid - t_catalog;
                    self.s.push("engine.glue", t_exec - layers);
                    self.s.push("engine.rowid", t_rowid);
                    self.s.push("engine.catalog", t_catalog);
                    self.s.push("trace.residual", residual);
                    self.s.push("trace.dml_exec", t_exec);
                }
                if self.attribute {
                    let residual = t_exec - layers - t_rowid - t_catalog;
                    let parts = [
                        ("sql.parse", t_parse),
                        ("engine.rowid", t_rowid),
                        ("engine.catalog", t_catalog),
                        ("residual", residual),
                    ];
                    for (name, t) in calls.into_iter().chain(parts) {
                        *self.attribution.entry(name).or_default() += t;
                    }
                    *self.attribution.entry("statement").or_default() += t_parse + t_exec;
                    *self.attribution.entry("statements").or_default() += 1.0;
                }
            }
            let handle = self.engine.database_handle();
            let db = lock(&handle);
            if let Ok(table) = db.get(TABLE) {
                shadow.follow_advisor(table);
            }
        }
        Some(result)
    }

    /// One writer statement with its acknowledged-row check.
    fn write(&mut self, writer: &mut Writer) {
        let op = writer.next();
        let expected = writer.expected(op);
        let Some(result) = self.exec(&Writer::sql(op), op.shape()) else { return };
        let rows = match result {
            QueryResult::Inserted { rows, .. }
            | QueryResult::Deleted { rows, .. }
            | QueryResult::Updated { rows, .. } => rows as u64,
            _ => u64::MAX,
        };
        self.tally.check(rows == expected, || format!("{op:?} changed {rows} rows"));
        writer.acked(op);
    }

    /// One read with its output check.
    fn read(&mut self, reader: &mut Reader, count: Count) {
        let (shape, sql, check) = reader.next(count);
        if let Some(QueryResult::Rows(rel)) = self.exec(&sql, shape) {
            let rows = result_rows(&rel.render(workloads::PAGE as usize));
            self.tally.check(check(&rows), || format!("wrong result for `{sql}`"));
        }
    }

    fn rows(&self) -> u64 {
        let handle = self.engine.database_handle();
        let db = lock(&handle);
        db.get(TABLE).map_or(0, |t| t.live().row_count() as u64)
    }

    /// One designer episode, in-process.
    fn episode(&mut self, writer: &mut Writer) {
        let fd = workloads::EPISODE_FD;
        let anchor = writer.pick();
        let values = places::plant(anchor, fd);
        writer.guard = Some((anchor, fd));
        self.exec(&places::insert_sql(&values), "insert");
        self.exec(&format!("SHOW FDS FOR {TABLE}"), "advisor.show_fds");
        self.exec(&format!("SUGGEST REPAIRS FOR {TABLE}"), "advisor.suggest");
        let accept = format!("ACCEPT REPAIR 1 FOR '{}' ON {TABLE}", FDS[fd]);
        let evolved = match self.exec(&accept, "advisor.accept") {
            Some(QueryResult::RepairAccepted { evolved, .. }) => Some(evolved),
            _ => None,
        };
        if let Some(evolved) = &evolved {
            self.exec(&format!("CHECK FD '{evolved}' ON {TABLE}"), "check_fd");
        }
        self.exec(&places::delete_exact_sql(&values), "delete");
        writer.guard = None;
        if let Some(evolved) = &evolved {
            self.exec(&format!("ALTER TABLE {TABLE} DROP CONSTRAINT FD '{evolved}'"), "alter");
        }
        self.exec(&format!("ALTER TABLE {TABLE} ADD CONSTRAINT FD '{}'", FDS[fd]), "alter");
        self.exec(&format!("SUGGEST REPAIRS FOR {TABLE}"), "advisor.suggest_reset");
    }

    /// The workload's statements: backlog, a fixed-length stand-in for
    /// the timed phase, probes, and the shape sweep.
    fn run(&mut self, seed: u64) {
        let w = self.workload;
        let mut writer = Writer::new(Rng::new(seed, 1), places::base(w.rows(), seed).1, 100, 0);
        for _ in 0..workloads::BACKLOG {
            self.write(&mut writer);
        }
        let (ins, del) = workloads::mix(w);
        writer.set_mix(ins, del);
        match w {
            Workload::Ingest => {
                for _ in 0..replay_len(w) {
                    self.write(&mut writer);
                }
            }
            Workload::ReadMix => {
                let floor = self.rows();
                let live = writer.live().to_vec();
                let mut writers = [writer, Writer::new(Rng::new(seed, 2), live, 100, 0)];
                let mut readers =
                    [10, 11].map(|stream| Reader::new(Rng::new(seed, stream), Mix::Sessions));
                for i in 0..replay_len(w) {
                    let k = i % 2;
                    if (i / 2) % 10 == 9 {
                        self.write(&mut writers[k]);
                    } else {
                        self.read(&mut readers[k], Count::AtLeast(floor));
                    }
                }
                let [first, _] = writers;
                writer = first;
            }
            Workload::Designer => {
                for i in 1..=replay_len(w) {
                    self.write(&mut writer);
                    if (i as u64).is_multiple_of(workloads::WRITES_PER_EPISODE) {
                        self.episode(&mut writer);
                    }
                }
            }
        }
        self.attribute = false;
        // Every workload replays a short read probe, so each read shape has
        // samples even where the timed mix makes some rare.
        let mut reader = Reader::new(Rng::new(seed, 7), Mix::Probe);
        let count = Count::Exactly(self.rows());
        for _ in 0..PROBE_READS {
            self.read(&mut reader, count);
        }
        if w != Workload::Designer {
            self.exec(&format!("SUGGEST REPAIRS FOR {TABLE}"), "advisor.suggest_reset");
            for _ in 0..workloads::DRIFT_PROBE {
                self.episode(&mut writer);
            }
        }
        self.layers = false;
        let mut sweep = Writer::new(Rng::new(seed, 99), writer.live().to_vec(), 0, 50);
        for _ in 0..2 * SWEEP {
            self.write(&mut sweep);
        }
    }
}

/// The per-layer numbers of one traced run.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    root: &Path,
    revision: &str,
) -> Result<(Metrics, Tally, Vec<String>), String> {
    let mut report = Vec::new();
    let socket = workloads::run(workload, seed, seconds, &root.join("socket"))?;
    let mut tally = Tally::default();
    tally.attempted += socket.tally.attempted;
    tally.failed += socket.tally.failed;
    tally.notes.extend(socket.tally.notes.iter().cloned());

    let mut plain = Replay::new(workload, seed, &root.join("plain"), false)?;
    plain.run(seed);
    tally.merge(std::mem::take(&mut plain.tally));
    let untraced = std::mem::take(&mut plain.s);
    drop(plain);

    let mut traced = Replay::new(workload, seed, &root.join("traced"), true)?;
    let follower_dir = root.join("traced").join("follower");
    let (bootstrap, history) = {
        let handle = traced.engine.database_handle();
        let db = lock(&handle);
        let t = db.get(TABLE).map_err(|e| e.to_string())?;
        (t.encode_current_snapshot(), t.history_bytes())
    };
    let mut follower =
        ReplicaState::bootstrap_from(&follower_dir, &bootstrap, &history, workload.options())
            .map_err(|e| e.to_string())?;
    traced.run(seed);
    let mut shadow = traced.shadow.take().expect("traced replay has a shadow");
    let mut s = std::mem::take(&mut traced.s);
    let attribution = std::mem::take(&mut traced.attribution);
    tally.merge(std::mem::take(&mut traced.tally));

    // The shadow must have reached the engine's state.
    let handle = traced.engine.database_handle();
    let (image, table_dir, leader_seq) = {
        let db = lock(&handle);
        let t = db.get(TABLE).map_err(|e| e.to_string())?;
        tally.check(t.live().epoch() == shadow.live.epoch(), || "shadow epoch differs".into());
        for i in 0..t.validator().fds().len() {
            let same = t.validator().measures(i) == shadow.validator.measures(i);
            tally.check(same, || format!("shadow measures of FD #{i} differ"));
        }
        (t.encode_current_snapshot(), t.dir().to_path_buf(), t.last_seq())
    };
    if shadow.compactions == 0 {
        // The workload never crossed the threshold: time one compaction
        // of the tombstones the sweep left, so the layer has a figure.
        let (_, t) = timed(|| shadow.live.compact());
        s.push("live.compact", t);
        let (_, t) = timed(|| shadow.validator.resync(&shadow.live));
        s.push("tracker.rebuild", t);
        shadow.forced_compaction = true;
    }

    // Snapshot: encode the current image, decode it from a file.
    let (encoded, t_encode) = timed(|| {
        let db = lock(&handle);
        db.get(TABLE).map(|t| t.encode_current_snapshot()).unwrap_or_default()
    });
    let snap_path = root.join("traced").join("probe-snapshot.bin");
    std::fs::write(&snap_path, &encoded).map_err(|e| e.to_string())?;
    let (decoded, t_decode) = timed(|| read_snapshot(&snap_path));
    tally.check(decoded.is_ok(), || "snapshot did not decode".into());
    drop(decoded);

    // Replication: one fetch of everything since the follower's
    // bootstrap, then each frame applied.
    let (shipment, t_ship) = timed(|| {
        let db = lock(&handle);
        db.get(TABLE)
            .map_err(|e| e.to_string())
            .and_then(|t| t.ship_from(follower.last_seq()).map_err(|e| e.to_string()))
    });
    let frames = match shipment? {
        Shipment::Frames(frames) => frames,
        Shipment::Bootstrap { .. } => return Err("follower fell behind the horizon".into()),
    };
    for frame in &frames {
        let (r, t) = timed(|| follower.apply_frame(frame));
        s.push("repl.apply", t);
        if let Err(e) = r {
            tally.fail(format!("follower frame: {e}"));
        }
    }
    tally.check(follower.table().encode_current_snapshot() == image, || {
        "in-process follower image differs".into()
    });
    tally.check(follower.last_seq() == leader_seq, || "follower did not reach the leader".into());
    drop(follower);

    // Recovery: kill the engine, scan its WAL, reopen the table.
    drop(traced);
    drop(handle);
    let wal_path = table_dir.join(evofd_persist::WAL_FILE);
    let (scan, t_scan) = timed(|| scan_wal(&wal_path));
    let records = scan.map(|s| s.records.len()).unwrap_or(0);
    let (reopened, t_open) = timed(|| DurableRelation::open(&table_dir, workload.options()));
    match reopened {
        Ok(t) => {
            let replayed = t.recovery().replayed.max(1) as f64;
            s.push("recovery.replay_per_record", (t_open - t_decode - t_scan) / replayed);
            tally.check(t.encode_current_snapshot() == image, || "reopened image differs".into());
        }
        Err(e) => tally.fail(format!("reopen: {e}")),
    }

    let mut m = Metrics::default();
    let socket_m = &socket.metrics;
    let inproc_w = untraced.median("class.write");
    let inproc_r = untraced.median("class.read");
    let traced_w = s.median("class.write");
    let traced_r = s.median("class.read");
    let push: Vec<f64> = socket.designer.iter().map(|e| e.push_ms).collect();
    let get = |name: &str| socket_m.get(name).unwrap_or(f64::NAN);

    m.set("server.rtt_us", socket.rtt_us, "us");
    m.set("server.overhead_us", get("write_p50_us") - inproc_w, "us");
    m.set("server.read_overhead_us", get("read_p50_us") - inproc_r, "us");
    m.set("server.push_delay_ms", median(&push), "ms");
    m.set(
        "server.bytes_per_op",
        socket.tally.bytes as f64 / socket.tally.answered.max(1) as f64,
        "B",
    );
    m.set("sql.parse_us", s.median("sql.parse"), "us");
    for (name, shape) in [
        ("sql.insert_us", "insert"),
        ("sql.delete_us", "delete"),
        ("sql.update_us", "update"),
        ("sql.point_idx_us", "point_idx"),
        ("sql.point_scan_us", "point_scan"),
        ("sql.count_us", "count"),
        ("sql.group_us", "group"),
    ] {
        m.set(name, s.median(shape), "us");
    }
    m.set("sql.check_fd_ms", s.median("check_fd") / 1e3, "ms");
    m.set("engine.glue_us", s.median("engine.glue"), "us");
    m.set("engine.rowid_us", s.median("engine.rowid"), "us");
    m.set("engine.catalog_us", s.median("engine.catalog"), "us");
    m.set("wal.append_us", s.median("wal.append"), "us");
    m.set("wal.sync_us", s.median("wal.sync"), "us");
    m.set("wal.bytes_per_delta", s.mean("wal.delta_bytes"), "B");
    m.set(
        "wal.syncs_per_kdelta",
        shadow.syncs as f64 * 1000.0 / shadow.deltas.max(1) as f64,
        "count",
    );
    m.set("live.apply_us", s.median("live.apply"), "us");
    m.set("live.compactions", shadow.compactions as f64, "count");
    m.set("live.compact_ms", s.median("live.compact") / 1e3, "ms");
    shadow.retire_validator();
    shadow.retire_advisor();
    m.set("tracker.apply_us", s.median("tracker.apply"), "us");
    m.set(
        "tracker.incremental_ratio",
        shadow.tracker.1 as f64 / shadow.tracker.0.max(1) as f64,
        "ratio",
    );
    m.set("tracker.rebuild_ms", s.median("tracker.rebuild") / 1e3, "ms");
    m.set("advisor.apply_us", s.median("advisor.apply"), "us");
    m.set("advisor.onset_ms", s.median("advisor.onset") / 1e3, "ms");
    m.set("advisor.indexes_built", shadow.advisor_stats.2 as f64, "count");
    m.set(
        "advisor.incremental_ratio",
        shadow.advisor_stats.1 as f64 / shadow.advisor_stats.0.max(1) as f64,
        "ratio",
    );
    m.set("advisor.suggest_ms", s.median("advisor.suggest") / 1e3, "ms");
    m.set("advisor.show_fds_ms", s.median("advisor.show_fds") / 1e3, "ms");
    m.set("advisor.accept_ms", s.median("advisor.accept") / 1e3, "ms");
    m.set("history.sample_us", s.median("history.sample"), "us");
    m.set("history.append_us", s.median("history.append"), "us");
    let frames_bytes: f64 = shadow.frame_bytes.iter().sum();
    m.set("history.bytes_per_delta", frames_bytes / shadow.deltas.max(1) as f64, "B");
    m.set("alert.eval_us", s.median("alert.eval"), "us");
    m.set("snapshot.encode_ms", t_encode / 1e3, "ms");
    m.set("snapshot.decode_ms", t_decode / 1e3, "ms");
    m.set("snapshot.bytes", encoded.len() as f64, "B");
    m.set("repl.ship_us_per_frame", t_ship / frames.len().max(1) as f64, "us");
    m.set("repl.frames_per_fetch", frames.len() as f64, "count");
    m.set("repl.apply_us", s.median("repl.apply"), "us");
    m.set("recovery.wal_scan_ms", t_scan / 1e3, "ms");
    m.set("recovery.replay_us_per_record", s.median("recovery.replay_per_record"), "us");
    m.set("trace.residual_us", s.median("trace.residual"), "us");
    m.set(
        "trace.residual_pct",
        100.0 * s.median("trace.residual") / s.median("trace.dml_exec"),
        "%",
    );
    m.set("trace.inproc_write_p50_us", inproc_w, "us");
    m.set("trace.inproc_read_p50_us", inproc_r, "us");
    m.set("trace.write_overhead_pct", 100.0 * (traced_w - inproc_w) / inproc_w, "%");
    m.set("trace.read_overhead_pct", 100.0 * (traced_r - inproc_r) / inproc_r, "%");

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    report.push(format!(
        "traced run: workload {} seed {seed} nproc {nproc} revision {revision}",
        workload.name()
    ));
    report.push(format!(
        "replayed {} statements in-process ({} deltas, {} WAL records at recovery, {} frames shipped{})",
        s.count("sql.parse"),
        shadow.deltas,
        records,
        frames.len(),
        if shadow.forced_compaction { "; one compaction forced after the replay" } else { "" }
    ));
    let dml = attribution.get("statements").copied().unwrap_or(0.0).max(1.0);
    let total = attribution.get("statement").copied().unwrap_or(0.0);
    report.push(format!(
        "mean write in-process (parse + execute) over the {dml} backlog and timed-phase \
         writes: {:.1} us; per statement by layer call:",
        total / dml,
    ));
    let mut rows: Vec<(&str, f64)> = attribution
        .iter()
        .filter(|(k, _)| !k.starts_with("statement"))
        .map(|(k, v)| (*k, *v))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (layer, sum) in rows {
        report.push(format!(
            "  {layer:<16} {:>10.1} us  {:>5.1}%",
            sum / dml,
            100.0 * sum / total.max(1e-9)
        ));
    }
    Ok((m, tally, report))
}
