//! The served leader, its follower, and the fixed-work replication and
//! recovery phase every workload runs.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use evofd_core::Fd;
use evofd_incremental::ValidatorConfig;
use evofd_persist::{
    Database, DurableEngine, FrameTransport, PersistOptions, ReplicaState, SyncPolicy,
};
use evofd_server::{Client, EvofdServer, ServerOptions, SocketTransport};

use crate::places::{self, Row, FDS, TABLE};
use crate::stats::median;

/// Follower identity announced to the leader.
const FOLLOWER: &str = "perfbench-follower";

/// Follower catch-ups and leader reopens per run; their medians are
/// reported.
pub const REPEATS: usize = 3;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Ingest,
    Designer,
    ReadMix,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "ingest" => Some(Workload::Ingest),
            "designer" => Some(Workload::Designer),
            "read_mix" => Some(Workload::ReadMix),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::Designer => "designer",
            Workload::ReadMix => "read_mix",
        }
    }

    /// Base rows generated at set-up.
    pub fn rows(self) -> usize {
        match self {
            Workload::Ingest => 200_000,
            Workload::Designer => 20_000,
            Workload::ReadMix => 100_000,
        }
    }

    /// Durability options. Group commit of 64 keeps fsync in every run
    /// without letting the disk's run-to-run swing set the write tail: the
    /// 1.6% of writes that carry an fsync sit above the 95th percentile the
    /// benchmark reports. The WAL-size snapshot threshold sits far above
    /// anything a run writes, so no checkpoint ever lands inside a measured
    /// phase.
    pub fn options(self) -> PersistOptions {
        let defaults = PersistOptions::default();
        PersistOptions {
            sync: SyncPolicy::GroupCommit(64),
            wal_compact_bytes: 1 << 30,
            compact_threshold: match self {
                Workload::Designer => 0.005,
                _ => defaults.compact_threshold,
            },
            history_stride: 1,
        }
    }

    /// Statements run once at set-up, before the follower bootstraps.
    pub fn setup_sql(self) -> Vec<String> {
        match self {
            Workload::Ingest => vec![format!(
                "ALERT ON {TABLE} FD 'Zip -> City, State' WHEN confidence < 0.98 FOR 5 EPOCHS"
            )],
            Workload::Designer => Vec::new(),
            Workload::ReadMix => vec![format!("CREATE INDEX ON {TABLE} (Zip)")],
        }
    }
}

/// Statements attempted and failed, plus the client-side latency samples
/// of one or more sessions.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    /// Write latencies (INSERT/UPDATE/DELETE), µs.
    pub writes: Vec<f64>,
    /// Read latencies (SELECT, CHECK FD), µs.
    pub reads: Vec<f64>,
    /// Latencies by statement shape, µs.
    pub shapes: std::collections::BTreeMap<&'static str, Vec<f64>>,
    /// Bytes on the wire for answered statements: request and reply
    /// payloads plus two frame headers (length, CRC, tag, string length).
    pub bytes: u64,
    /// Statements answered.
    pub answered: u64,
    /// When each write and each read was acknowledged.
    pub write_at: Vec<Instant>,
    pub read_at: Vec<Instant>,
}

impl Tally {
    /// Count one failed statement or output check.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.notes.len() < 16 {
            self.notes.push(what.into());
        }
    }

    /// Count one failed output check that is not itself a statement.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < 16 {
                self.notes.push(n);
            }
        }
        self.writes.extend(other.writes);
        self.reads.extend(other.reads);
        self.bytes += other.bytes;
        self.answered += other.answered;
        self.write_at.extend(other.write_at);
        self.read_at.extend(other.read_at);
        for (shape, samples) in other.shapes {
            self.shapes.entry(shape).or_default().extend(samples);
        }
    }

    /// Record one latency under its statement shape.
    pub fn shape(&mut self, shape: &'static str, took: Duration) {
        self.shapes.entry(shape).or_default().push(crate::stats::us(took));
    }

    /// Send one statement, timing it at the client from send to reply.
    /// An error counts as a failure and yields `None`.
    pub fn exec(&mut self, client: &mut Client, sql: &str) -> (Option<String>, Duration) {
        self.attempted += 1;
        let start = Instant::now();
        let result = client.sql(sql);
        let took = start.elapsed();
        match result {
            Ok(text) => {
                self.bytes += (sql.len() + text.len() + 2 * 13) as u64;
                self.answered += 1;
                (Some(text), took)
            }
            Err(e) => {
                self.fail(format!("`{}`: {e}", clip(sql)));
                (None, took)
            }
        }
    }
}

/// First 80 characters of a statement, for failure notes.
pub fn clip(sql: &str) -> &str {
    &sql[..sql.len().min(80)]
}

/// The row count in an INSERT/UPDATE/DELETE acknowledgement.
pub fn ack_rows(text: &str) -> Option<u64> {
    let rest = &text[text.find("rows: ")? + 6..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Data rows of a rendered result table, split into cells.
pub fn result_rows(text: &str) -> Vec<Vec<String>> {
    text.lines()
        .skip(2)
        .filter(|l| !l.starts_with("... ("))
        .map(|l| l.split(" | ").map(str::to_string).collect())
        .collect()
}

/// One FD-consistent writer: draws statements from a seeded mix and keeps
/// the coordinates of every row it knows to be live, so each DELETE and
/// UPDATE targets a real row and its acknowledged row count can be
/// checked.
#[derive(Debug)]
pub struct Writer {
    rng: places::Rng,
    live: Vec<Row>,
    /// Percentages of INSERT and DELETE; the rest are UPDATEs.
    insert_pct: u64,
    delete_pct: u64,
    /// Net rows added by acknowledged statements.
    pub net_rows: i64,
    /// While a planted row is live: rows that must not be touched, so the
    /// designer's episode keeps its violation until it restores it.
    pub guard: Option<(Row, usize)>,
}

/// One writer statement.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    Insert(Row),
    Delete(Row),
    Update(Row, Row),
}

impl Op {
    pub fn shape(self) -> &'static str {
        match self {
            Op::Insert(_) => "insert",
            Op::Delete(_) => "delete",
            Op::Update(..) => "update",
        }
    }
}

impl Writer {
    pub fn new(rng: places::Rng, live: Vec<Row>, insert_pct: u64, delete_pct: u64) -> Writer {
        Writer { rng, live, insert_pct, delete_pct, net_rows: 0, guard: None }
    }

    /// Change the statement mix.
    pub fn set_mix(&mut self, insert_pct: u64, delete_pct: u64) {
        self.insert_pct = insert_pct;
        self.delete_pct = delete_pct;
    }

    /// The rows this writer knows to be live.
    pub fn live(&self) -> &[Row] {
        &self.live
    }

    /// A uniformly drawn live row.
    pub fn pick(&mut self) -> Row {
        self.live[self.rng.below(self.live.len() as u64) as usize]
    }

    /// The next statement of the mix.
    pub fn next(&mut self) -> Op {
        let roll = self.rng.below(100);
        if roll < self.insert_pct || self.live.is_empty() {
            return Op::Insert(Row::random(&mut self.rng));
        }
        let victim = loop {
            let row = self.pick();
            let guarded = self.guard.is_some_and(|(anchor, fd)| {
                row.same_lhs(anchor, fd) || (row.zip == anchor.zip && row.phone == anchor.phone)
            });
            if !guarded {
                break row;
            }
        };
        if roll < self.insert_pct + self.delete_pct {
            Op::Delete(victim)
        } else {
            Op::Update(victim, victim.rephoned(&mut self.rng))
        }
    }

    pub fn sql(op: Op) -> String {
        match op {
            Op::Insert(row) => row.insert_sql(),
            Op::Delete(row) => row.delete_sql(),
            Op::Update(from, to) => from.update_sql(to),
        }
    }

    /// Rows the statement must report as changed.
    pub fn expected(&self, op: Op) -> u64 {
        match op {
            Op::Insert(_) => 1,
            Op::Delete(row) | Op::Update(row, _) => {
                self.live.iter().filter(|r| **r == row).count() as u64
            }
        }
    }

    /// Book an acknowledged statement.
    pub fn acked(&mut self, op: Op) {
        match op {
            Op::Insert(row) => {
                self.live.push(row);
                self.net_rows += 1;
            }
            Op::Delete(row) => {
                let before = self.live.len();
                self.live.retain(|r| *r != row);
                self.net_rows -= (before - self.live.len()) as i64;
            }
            Op::Update(from, to) => {
                for r in self.live.iter_mut().filter(|r| **r == from) {
                    *r = to;
                }
            }
        }
    }

    /// Send the next statement, check its acknowledged row count, book it
    /// and record its latency as a write.
    pub fn step(&mut self, client: &mut Client, tally: &mut Tally) {
        let op = self.next();
        let sql = Writer::sql(op);
        let expected = self.expected(op);
        let (reply, took) = tally.exec(client, &sql);
        if let Some(text) = reply {
            tally.writes.push(crate::stats::us(took));
            tally.write_at.push(Instant::now());
            tally.shape(op.shape(), took);
            let rows = ack_rows(&text);
            tally.check(rows == Some(expected), || {
                format!("`{}` changed {rows:?} rows, expected {expected}", clip(&sql))
            });
            self.acked(op);
        }
    }
}

/// A served durable leader with a follower that tails it over TCP.
pub struct Env {
    pub workload: Workload,
    pub root: PathBuf,
    /// The served database (`None` only while the leader is down).
    db: Option<Arc<Mutex<Database>>>,
    server: Option<EvofdServer>,
    pub addr: String,
    pub follower: ReplicaState,
    pub transport: SocketTransport,
    /// The image the follower bootstrapped from: `(snapshot, history)`.
    bootstrap: (Vec<u8>, Vec<u8>),
    /// Coordinates of the base rows.
    pub base: Vec<Row>,
    /// Tracker representation of every FD right after set-up.
    pub reprs: Vec<(String, &'static str)>,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Write dirty pages back before a measured phase, so the fsyncs it
/// makes do not also pay for an earlier phase's writes.
pub fn flush_disk() {
    let _ = std::process::Command::new("sync").status();
}

/// Lock the shared database (a poisoned lock still holds valid state: the
/// engine never leaves a table half-applied).
pub fn lock(db: &Arc<Mutex<Database>>) -> MutexGuard<'_, Database> {
    db.lock().unwrap_or_else(|e| e.into_inner())
}

impl Env {
    /// Set-up: generate the base rows, create the durable table with its
    /// tracked FDs, run the workload's set-up statements, serve it, and
    /// bootstrap a follower over the socket.
    pub fn setup(workload: Workload, seed: u64, root: &Path) -> Result<Env, String> {
        let _ = std::fs::remove_dir_all(root);
        let (rel, base) = places::base(workload.rows(), seed);
        let fds = FDS.iter().map(|t| Fd::parse(rel.schema(), t)).collect::<Result<Vec<_>, _>>();
        let fds = fds.map_err(err)?;
        let opts = workload.options();
        let mut db = Database::open(&root.join("leader"), opts.clone()).map_err(err)?;
        db.create_table(rel, fds, ValidatorConfig::default()).map_err(err)?;
        let mut engine = DurableEngine::from_database(db).map_err(err)?;
        for sql in workload.setup_sql() {
            engine.execute(&sql).map_err(|e| format!("{sql}: {e}"))?;
        }
        let db = engine.database_handle();
        let server = serve(engine)?;
        let addr = server.addr().to_string();
        let mut transport = SocketTransport::new(&addr, TABLE, FOLLOWER);
        let snapshot = transport.bootstrap().map_err(err)?;
        let history = transport.bootstrap_history().map_err(err)?;
        let follower =
            ReplicaState::bootstrap_from(&root.join("follower"), &snapshot, &history, opts)
                .map_err(err)?;
        let reprs = tracker_reprs(&db);
        Ok(Env {
            workload,
            root: root.to_path_buf(),
            db: Some(db),
            server: Some(server),
            addr,
            follower,
            transport,
            bootstrap: (snapshot, history),
            base,
            reprs,
        })
    }

    /// The served database.
    pub fn db(&self) -> &Arc<Mutex<Database>> {
        self.db.as_ref().expect("leader is up")
    }

    /// The leader's current full state image.
    pub fn leader_image(&self) -> Vec<u8> {
        let db = lock(self.db());
        db.get(TABLE).map(|t| t.encode_current_snapshot()).unwrap_or_default()
    }

    /// Fixed-work replication and recovery. `backlog` writes of the
    /// writer's mix (the same count in every run) are sent through one
    /// session. The follower bootstrapped at set-up
    /// then tails exactly those frames over the socket, [`REPEATS`] times,
    /// each time restarted from its bootstrap image. Then the leader is
    /// killed and reopened [`REPEATS`] times, each reopen replaying the
    /// same WAL tail. Returns the median catch-up rate (frames per second)
    /// and the median recovery time (seconds).
    pub fn replicate_and_recover(
        &mut self,
        writer: &mut Writer,
        backlog: usize,
        tally: &mut Tally,
    ) -> Result<(f64, f64), String> {
        let mut client = Client::connect(&self.addr, "perfbench-backlog").map_err(err)?;
        for _ in 0..backlog {
            writer.step(&mut client, tally);
        }
        drop(client);

        let mut rates = Vec::new();
        for rep in 0..REPEATS {
            flush_disk();
            if rep > 0 {
                let dir = self.root.join(format!("follower{rep}"));
                let (snapshot, history) = &self.bootstrap;
                self.follower =
                    ReplicaState::bootstrap_from(&dir, snapshot, history, self.workload.options())
                        .map_err(err)?;
            }
            let start = Instant::now();
            let report = self.follower.sync(&mut self.transport).map_err(err)?;
            let took = start.elapsed();
            tally.check(report.applied >= backlog && !report.bootstrapped, || {
                format!("catch-up applied {} frames for a backlog of {backlog}", report.applied)
            });
            rates.push(report.applied as f64 / took.as_secs_f64());
            self.check_follower(tally);
        }

        let before = self.leader_image();
        self.kill_leader()?;
        let mut times = Vec::new();
        let mut engine = None;
        for _ in 0..REPEATS {
            drop(engine.take());
            self.await_unlocked()?;
            flush_disk();
            let start = Instant::now();
            let opened = DurableEngine::open(&self.root.join("leader"), self.workload.options())
                .map_err(err)?;
            times.push(start.elapsed().as_secs_f64());
            let replayed = opened.with_database(|db| db.get(TABLE).map(|t| t.recovery().replayed));
            tally.check(replayed.as_ref().is_ok_and(|&n| n >= backlog), || {
                format!("recovery replayed {replayed:?} records for a backlog of {backlog}")
            });
            let image = opened.with_database(|db| {
                db.get(TABLE).map(|t| t.encode_current_snapshot()).unwrap_or_default()
            });
            tally.check(image == before, || "reopened leader image differs".into());
            engine = Some(opened);
        }
        let engine = engine.expect("reopened at least once");
        self.db = Some(engine.database_handle());
        let server = serve(engine)?;
        self.addr = server.addr().to_string();
        self.transport.set_addr(&self.addr);
        self.server = Some(server);
        Ok((median(&rates), median(&times)))
    }

    /// Stop the server without a checkpoint (the crash case) and let go
    /// of the database.
    fn kill_leader(&mut self) -> Result<(), String> {
        self.transport.set_addr(&self.addr); // drops the follower's connection
        let mut server = self.server.take().expect("server running");
        server.shutdown();
        drop(server.try_into_engine());
        self.db = None;
        Ok(())
    }

    /// Wait until the leader's table lock is released.
    fn await_unlocked(&self) -> Result<(), String> {
        let lock_file = self.root.join("leader").join(TABLE).join(evofd_persist::LOCK_FILE);
        let deadline = Instant::now() + Duration::from_secs(30);
        while lock_file.exists() {
            if Instant::now() > deadline {
                return Err("killed leader never released its table lock".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(())
    }

    /// Catch the follower up (untimed) and compare full state images.
    pub fn check_follower(&mut self, tally: &mut Tally) {
        match self.follower.sync(&mut self.transport) {
            Ok(_) => {
                let ok = self.follower.table().encode_current_snapshot() == self.leader_image();
                tally.check(ok, || "follower image differs from the leader's".into());
            }
            Err(e) => tally.fail(format!("follower catch-up: {e}")),
        }
    }

    /// End-of-run checks: the served row count, every FD's maintained
    /// measures against a batch recompute, the tracker representations
    /// against set-up, and the follower against the leader.
    pub fn final_checks(&mut self, expected_rows: u64, tally: &mut Tally) {
        match Client::connect(&self.addr, "perfbench-check") {
            Ok(mut client) => {
                let text = client.sql(&format!("SELECT COUNT(*) FROM {TABLE}"));
                let count = text.ok().and_then(|t| {
                    result_rows(&t).first().and_then(|r| r.first().and_then(|c| c.parse().ok()))
                });
                tally.check(count == Some(expected_rows), || {
                    format!("COUNT(*) is {count:?}, expected {expected_rows}")
                });
            }
            Err(e) => tally.fail(format!("connect for checks: {e}")),
        }
        {
            let db = lock(self.db());
            match db.get(TABLE) {
                Ok(t) => {
                    let batch = t.validator().verify_against(&t.live().snapshot());
                    for (i, status) in batch.statuses.iter().enumerate() {
                        let live = t.validator().measures(i);
                        tally.check(live == status.measures, || {
                            format!("FD #{i}: maintained {live:?} != batch {:?}", status.measures)
                        });
                    }
                }
                Err(e) => tally.fail(e.to_string()),
            }
        }
        let reprs = tracker_reprs(self.db());
        tally.check(reprs == self.reprs, || {
            format!("tracker representations moved: {:?} -> {reprs:?}", self.reprs)
        });
        // `ingest` writes only inserts, which the fixed phase already
        // replicated; tailing its whole timed phase would double its run.
        if self.workload != Workload::Ingest {
            self.check_follower(tally);
        }
    }

    /// Stop serving and delete the run's directory.
    pub fn teardown(mut self) {
        if let Some(mut server) = self.server.take() {
            server.shutdown();
        }
        let root = self.root.clone();
        drop(self);
        let _ = std::fs::remove_dir_all(root);
    }
}

fn serve(engine: DurableEngine) -> Result<EvofdServer, String> {
    EvofdServer::start(engine, "127.0.0.1:0", ServerOptions { read_only: false, poll_ms: 5 })
        .map_err(err)
}

/// `(FD text, tracker representation)` of every tracked FD, sorted.
pub fn tracker_reprs(db: &Arc<Mutex<Database>>) -> Vec<(String, &'static str)> {
    let db = lock(db);
    let Ok(t) = db.get(TABLE) else { return Vec::new() };
    let v = t.validator();
    let mut out: Vec<(String, &'static str)> = v
        .fds()
        .iter()
        .enumerate()
        .map(|(i, fd)| (fd.display(t.live().schema()), v.tracker_repr(i)))
        .collect();
    out.sort();
    out
}
