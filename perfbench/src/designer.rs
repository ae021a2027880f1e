//! The paper's designer loop over the socket: a planted row breaks one
//! tracked FD, the designer reacts to the pushed drift event with
//! `SHOW FDS` and `SUGGEST REPAIRS`, accepts the top repair, checks the
//! evolved FD, and once the writer has removed the planted row puts the
//! declared FD set back — so every episode starts and ends in the same
//! FD-set state.

use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use evofd_core::{AdvisorSession, Fd, Repair};
use evofd_incremental::{DriftKind, FdDrift};
use evofd_persist::Database;
use evofd_server::Client;
use evofd_storage::{Relation, Schema};

use crate::harness::{ack_rows, lock, result_rows, Tally, Writer};
use crate::places::{self, Row, FDS, TABLE};
use crate::stats::{ms, us};

/// How long the designer waits for a pushed event before counting the
/// episode as failed.
const EVENT_TIMEOUT: Duration = Duration::from_secs(10);

/// Threshold carried by the probe event that confirms a subscription is
/// live; no tracked FD uses it.
const PROBE_THRESHOLD: f64 = 0.314_159;

/// The writer side of an episode: plants the breaking row, later removes it.
pub trait Planter {
    /// Send the row that breaks FD `fd`; returns the instants the
    /// statement was sent and acknowledged.
    fn plant(&mut self, fd: usize) -> Option<(Instant, Instant)>;
    /// Let the writer continue after the proposals are in.
    fn resume(&mut self) {}
    /// Delete the planted row.
    fn restore(&mut self) -> bool;
}

/// A planter that sends on its own session, between no other writes
/// (the drift probe after a timed phase).
pub struct InlinePlanter<'a> {
    pub client: Client,
    pub writer: &'a mut Writer,
    pub tally: &'a mut Tally,
    planted: Option<Vec<String>>,
}

impl<'a> InlinePlanter<'a> {
    pub fn new(client: Client, writer: &'a mut Writer, tally: &'a mut Tally) -> Self {
        InlinePlanter { client, writer, tally, planted: None }
    }
}

impl Planter for InlinePlanter<'_> {
    fn plant(&mut self, fd: usize) -> Option<(Instant, Instant)> {
        let (sent, acked, values) = plant_on(&mut self.client, self.writer, self.tally, fd)?;
        self.planted = Some(values);
        Some((sent, acked))
    }

    fn restore(&mut self) -> bool {
        let Some(values) = self.planted.take() else { return false };
        restore_on(&mut self.client, self.writer, self.tally, &values)
    }
}

/// Send the breaking row for FD `fd`, anchored on a live row, and guard
/// its group against the writer's own deletes and updates.
pub fn plant_on(
    client: &mut Client,
    writer: &mut Writer,
    tally: &mut Tally,
    fd: usize,
) -> Option<(Instant, Instant, Vec<String>)> {
    let anchor: Row = writer.pick();
    let values = places::plant(anchor, fd);
    writer.guard = Some((anchor, fd));
    let sql = places::insert_sql(&values);
    let sent = Instant::now();
    let (reply, took) = tally.exec(client, &sql);
    let text = reply?;
    tally.writes.push(us(took));
    tally.write_at.push(Instant::now());
    tally.check(ack_rows(&text) == Some(1), || format!("planted insert acked {text:?}"));
    Some((sent, Instant::now(), values))
}

/// Delete the planted row and lift the writer's guard.
pub fn restore_on(
    client: &mut Client,
    writer: &mut Writer,
    tally: &mut Tally,
    values: &[String],
) -> bool {
    let sql = places::delete_exact_sql(values);
    let (reply, took) = tally.exec(client, &sql);
    writer.guard = None;
    let Some(text) = reply else { return false };
    tally.writes.push(us(took));
    tally.write_at.push(Instant::now());
    let ok = ack_rows(&text) == Some(1);
    tally.check(ok, || format!("restoring delete acked {text:?}"));
    ok
}

/// Commands from the designer to a writer running its own closed loop.
pub enum Command {
    Plant(usize),
    Resume,
    Restore,
    Stop,
}

/// Replies from that writer.
pub enum Reply {
    Planted(Option<(Instant, Instant)>),
    Restored(bool),
}

/// A planter that asks the concurrent writer thread to plant and restore
/// between its own statements.
pub struct ChannelPlanter {
    pub commands: Sender<Command>,
    pub replies: Receiver<Reply>,
}

impl Planter for ChannelPlanter {
    fn plant(&mut self, fd: usize) -> Option<(Instant, Instant)> {
        self.commands.send(Command::Plant(fd)).ok()?;
        match self.replies.recv().ok()? {
            Reply::Planted(at) => at,
            Reply::Restored(_) => None,
        }
    }

    fn resume(&mut self) {
        let _ = self.commands.send(Command::Resume);
    }

    fn restore(&mut self) -> bool {
        if self.commands.send(Command::Restore).is_err() {
            return false;
        }
        matches!(self.replies.recv(), Ok(Reply::Restored(true)))
    }
}

/// What one episode measured.
#[derive(Debug, Clone)]
pub struct EpisodeTimes {
    /// Breaking statement sent → `SUGGEST REPAIRS` returned, ms.
    pub proposal_ms: f64,
    /// Breaking statement acknowledged → drift event received, ms.
    pub push_ms: f64,
}

/// State captured right after `SUGGEST REPAIRS`, checked after the run
/// against a fresh batch analysis of the same snapshot.
pub struct ProposalCheck {
    snapshot: Relation,
    fds: Vec<Fd>,
    index: usize,
    live: Vec<String>,
}

fn render(repairs: &[Repair], schema: &Schema) -> Vec<String> {
    repairs
        .iter()
        .map(|r| format!("{} +{:?} {:?}", r.fd.display(schema), r.added, r.measures))
        .collect()
}

impl ProposalCheck {
    /// True iff the live advisor's proposals equal a fresh
    /// `AdvisorSession::analyze` of the violated FD on the snapshot (the
    /// proposals of one FD do not depend on the others).
    pub fn holds(&self) -> bool {
        let fd = self.fds[self.index].clone();
        let mut session = AdvisorSession::new(&self.snapshot, vec![fd]);
        if session.analyze().is_err() {
            return false;
        }
        match session.proposals(0) {
            Ok(batch) => render(batch, self.snapshot.schema()) == self.live,
            Err(_) => false,
        }
    }
}

/// The designer: one command session and one subscription, plus the
/// in-process database handle used only for output checks and the
/// subscription probe.
pub struct Designer {
    addr: String,
    db: Arc<Mutex<Database>>,
    cmd: Client,
    sub: Option<Client>,
    pub tally: Tally,
    pub episodes: Vec<EpisodeTimes>,
    pub checks: Vec<ProposalCheck>,
    /// Episodes whose proposals are still to be captured for the batch
    /// check (a batch repair search costs ~1.5 s at 20k rows, so only the
    /// first few episodes of a run are checked).
    pub verify: usize,
    declared: Vec<String>,
}

impl Designer {
    pub fn connect(
        addr: &str,
        db: Arc<Mutex<Database>>,
        verify: usize,
    ) -> Result<Designer, String> {
        let cmd = Client::connect(addr, "perfbench-designer").map_err(|e| e.to_string())?;
        let declared = fd_set(&db);
        let mut designer = Designer {
            addr: addr.to_string(),
            db,
            cmd,
            sub: None,
            tally: Tally::default(),
            episodes: Vec::new(),
            checks: Vec::new(),
            verify,
            declared,
        };
        designer.subscribe()?;
        // Materialize the live advisor up front, as every episode leaves it.
        designer.run(&format!("SUGGEST REPAIRS FOR {TABLE}"));
        Ok(designer)
    }

    fn run(&mut self, sql: &str) -> (Option<String>, Duration) {
        self.tally.exec(&mut self.cmd, sql)
    }

    /// (Re)subscribe until a probe event published after the subscription
    /// arrives. An FD-set change rebuilds the validator and with it the
    /// drift feed the server's poller reads, leaving an existing
    /// subscription silent; the poller only re-attaches once no
    /// subscriber is left, so the designer reconnects.
    fn subscribe(&mut self) -> Result<(), String> {
        self.sub = None;
        for attempt in 1..=20u32 {
            std::thread::sleep(Duration::from_millis(10 * attempt as u64));
            let mut sub = Client::connect(&self.addr, "perfbench-designer-feed")
                .map_err(|e| e.to_string())?;
            sub.subscribe(TABLE).map_err(|e| e.to_string())?;
            publish_probe(&self.db);
            let deadline = Instant::now() + Duration::from_millis(300);
            while let Some(left) = deadline.checked_duration_since(Instant::now()) {
                match sub.next_event_timeout(left) {
                    Ok(Some((_, event))) if event.contains(&format!("{PROBE_THRESHOLD}")) => {
                        self.sub = Some(sub);
                        return Ok(());
                    }
                    Ok(Some(_)) => {}
                    Ok(None) | Err(_) => break,
                }
            }
        }
        Err("no live drift subscription after 20 attempts".into())
    }

    /// Wait for the pushed event saying tracked FD `index` became violated.
    fn await_violation(&mut self, index: usize) -> Option<Instant> {
        let sub = self.sub.as_mut()?;
        let marker = format!("FD #{index} ");
        let deadline = Instant::now() + EVENT_TIMEOUT;
        while let Some(left) = deadline.checked_duration_since(Instant::now()) {
            match sub.next_event_timeout(left) {
                Ok(Some((_, event))) => {
                    if event.contains("became VIOLATED") && event.contains(&marker) {
                        return Some(Instant::now());
                    }
                }
                Ok(None) | Err(_) => return None,
            }
        }
        None
    }

    /// One episode breaking declared FD `fd` (index into [`FDS`]).
    pub fn episode(&mut self, planter: &mut dyn Planter, fd: usize) {
        let index = fd_index(&self.db, FDS[fd]);
        let Some(index) = index else {
            self.tally.fail(format!("`{}` is not tracked", FDS[fd]));
            return;
        };
        let Some((sent, acked)) = planter.plant(fd) else { return };
        let Some(event_at) = self.await_violation(index) else {
            self.tally.fail(format!("no drift event for `{}`", FDS[fd]));
            planter.resume();
            planter.restore();
            return;
        };
        let push_ms = ms(event_at.duration_since(acked));

        let (show, _) = self.run(&format!("SHOW FDS FOR {TABLE}"));
        self.tally.check(show.as_deref().is_some_and(|t| t.contains("violated")), || {
            "SHOW FDS lists no violated FD".into()
        });
        let (suggest, _) = self.run(&format!("SUGGEST REPAIRS FOR {TABLE}"));
        self.episodes.push(EpisodeTimes { proposal_ms: ms(sent.elapsed()), push_ms });
        planter.resume();
        let proposals = suggest.as_deref().map(result_rows).unwrap_or_default();
        self.tally.check(!proposals.is_empty(), || format!("no proposals for `{}`", FDS[fd]));
        if self.verify > 0 {
            self.verify -= 1;
            self.capture(index);
        }

        let accept = format!("ACCEPT REPAIR 1 FOR '{}' ON {TABLE}", FDS[fd]);
        let (accepted, _) = self.run(&accept);
        let evolved = accepted.as_deref().and_then(evolved_fd);
        if let Some(evolved) = &evolved {
            let (check, _) = self.run(&format!("CHECK FD '{evolved}' ON {TABLE}"));
            if let Some(text) = check {
                let exact = result_rows(&text).first().and_then(|r| r.get(3).cloned());
                self.tally.check(exact.as_deref() == Some("true"), || {
                    format!("accepted repair `{evolved}` is not exact: {text:?}")
                });
            }
        } else {
            self.tally.fail(format!("ACCEPT REPAIR reply {accepted:?}"));
        }

        planter.restore();
        if let Some(evolved) = &evolved {
            self.run(&format!("ALTER TABLE {TABLE} DROP CONSTRAINT FD '{evolved}'"));
        }
        self.run(&format!("ALTER TABLE {TABLE} ADD CONSTRAINT FD '{}'", FDS[fd]));
        let (rematerialized, _) = self.run(&format!("SUGGEST REPAIRS FOR {TABLE}"));
        self.tally
            .check(rematerialized.as_deref().is_some_and(|t| result_rows(t).is_empty()), || {
                "proposals left after the episode".into()
            });
        if let Err(e) = self.subscribe() {
            self.tally.fail(e);
        }
        self.check_reset();
    }

    /// Capture the live advisor's proposals and the snapshot they must
    /// match, atomically under the database lock.
    fn capture(&mut self, index: usize) {
        let db = lock(&self.db);
        let Ok(t) = db.get(TABLE) else { return };
        let schema = t.live().schema();
        let live = t.advisor().and_then(|a| a.proposals(index).ok()).map(|p| render(p, schema));
        match live {
            Some(live) => self.checks.push(ProposalCheck {
                snapshot: t.live().snapshot(),
                fds: t.validator().fds().to_vec(),
                index,
                live,
            }),
            None => {
                drop(db);
                self.tally.fail("no live advisor proposals after SUGGEST REPAIRS");
            }
        }
    }

    /// Every episode ends where it started: the declared FD set, no
    /// decisions, every FD exact, the live advisor materialized.
    fn check_reset(&mut self) {
        let set = fd_set(&self.db);
        let db = lock(&self.db);
        let Ok(t) = db.get(TABLE) else { return };
        let v = t.validator();
        let clean = set == self.declared
            && t.decisions().is_empty()
            && (0..v.fds().len()).all(|i| v.is_exact(i))
            && t.advisor().is_some();
        drop(db);
        self.tally.check(clean, || format!("episode did not restore the start state: {set:?}"));
    }
}

/// The evolved FD named by an `ACCEPT REPAIR` acknowledgement.
fn evolved_fd(text: &str) -> Option<String> {
    let rest = &text[text.find("evolved: \"")? + 10..];
    Some(rest[..rest.find('"')?].to_string())
}

/// Index of `text` in the table's tracked FD list.
fn fd_index(db: &Arc<Mutex<Database>>, text: &str) -> Option<usize> {
    let db = lock(db);
    let t = db.get(TABLE).ok()?;
    let fd = Fd::parse(t.live().schema(), text).ok()?;
    t.validator().fds().iter().position(|f| *f == fd)
}

/// The tracked FD texts, sorted.
fn fd_set(db: &Arc<Mutex<Database>>) -> Vec<String> {
    let db = lock(db);
    let Ok(t) = db.get(TABLE) else { return Vec::new() };
    let mut set: Vec<String> =
        t.validator().fds().iter().map(|f| f.display(t.live().schema())).collect();
    set.sort();
    set
}

/// Publish a marker event on the table's drift feed.
fn publish_probe(db: &Arc<Mutex<Database>>) {
    let mut db = lock(db);
    let Ok(t) = db.get_mut(TABLE) else { return };
    let epoch = t.live().epoch();
    let v = t.validator_mut();
    let Some(fd) = v.fds().first().cloned() else { return };
    v.publish_drift(FdDrift {
        fd_index: 0,
        fd,
        kind: DriftKind::ConfidenceCrossed { threshold: PROBE_THRESHOLD, upward: true },
        confidence_before: 1.0,
        confidence_after: 1.0,
        epoch,
        seq: 0,
        groups: Vec::new(),
    });
}
