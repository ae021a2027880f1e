//! One untraced run of a workload over the socket: set-up, the fixed
//! replication and recovery phase, the timed phase, the probes that give
//! every workload every end-to-end metric, and the output checks.

use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use evofd_server::Client;

use crate::designer::{self, Command, Designer, InlinePlanter, Reply};
use crate::harness::{self, result_rows, Env, Tally, Workload, Writer};
use crate::places::{self, Rng, FDS, TABLE};
use crate::stats::{median, peak_rss_mb, quantile, slice_rate, us, Metrics};

/// Set-ups per run; `setup_s` is their median. `ingest`'s 200k-row set-up
/// takes ~2 s, so it repeats fewer times.
fn setup_reps(workload: Workload) -> usize {
    match workload {
        Workload::Ingest => 3,
        _ => 5,
    }
}

/// Inserts sent before the timed phase that the follower then tails and
/// recovery then replays — the same count in every run.
pub const BACKLOG: usize = 1000;

/// Reads in the fixed read probe of `ingest` and `designer`.
pub fn read_probe(workload: Workload) -> usize {
    match workload {
        Workload::Ingest => 200,
        _ => 1000,
    }
}

/// Steady writes the `designer` writer sends between two episodes.
pub const WRITES_PER_EPISODE: u64 = 40;

/// The declared FD every episode breaks: the paper's F1.
pub const EPISODE_FD: usize = 0;

/// Episodes in the fixed drift probe of `ingest` and `read_mix`.
pub const DRIFT_PROBE: usize = 3;

/// `designer` episodes per run whose proposals are checked against a
/// batch analysis.
const VERIFIED_EPISODES: usize = 3;

/// Slices of the timed phase whose median rate is reported.
const SLICES: u32 = 5;

/// The tail percentile reported: the highest with at least ten samples
/// beyond it in every workload (`designer` acknowledges ~600 writes a
/// run, `ingest`'s read probe 200 reads).
const TAIL: f64 = 0.95;

/// Rows a read session renders per result (a client's first page).
pub const PAGE: u64 = 20;

/// Writer mix (INSERT %, DELETE %; the rest UPDATE). The `designer` mix
/// deletes as many rows as it inserts, so its table keeps its size.
pub fn mix(workload: Workload) -> (u64, u64) {
    match workload {
        Workload::Designer => (40, 40),
        _ => (100, 0),
    }
}

/// Everything one run produced.
pub struct Outcome {
    /// Wall seconds of each phase, in order.
    pub phases: Vec<(&'static str, f64)>,
    pub metrics: Metrics,
    pub tally: Tally,
    pub designer: Vec<designer::EpisodeTimes>,
    /// Median `Client::tables` round trip on the idle server, µs.
    pub rtt_us: f64,
}

/// One untraced run.
pub fn run(workload: Workload, seed: u64, seconds: f64, root: &Path) -> Result<Outcome, String> {
    let mut phases = Vec::new();
    let mut clock = Instant::now();
    let mut lap = |name: &'static str, phases: &mut Vec<(&'static str, f64)>| {
        phases.push((name, clock.elapsed().as_secs_f64()));
        clock = Instant::now();
    };
    let mut setups = Vec::new();
    let mut env = None;
    let reps = setup_reps(workload);
    for rep in 0..reps {
        harness::flush_disk();
        let start = Instant::now();
        let e = Env::setup(workload, seed, &root.join(format!("setup{rep}")))?;
        setups.push(start.elapsed().as_secs_f64());
        if rep + 1 < reps {
            e.teardown();
        } else {
            env = Some(e);
        }
    }
    let mut env = env.expect("at least one set-up");
    let mut metrics = Metrics::default();
    let mut tally = Tally::default();
    metrics.set("setup_s", median(&setups), "s");

    // The backlog is single-row INSERTs in every workload.
    let mut writer = Writer::new(Rng::new(seed, 1), env.base.clone(), 100, 0);
    lap("setup", &mut phases);
    let (catchup, recovery) = env.replicate_and_recover(&mut writer, BACKLOG, &mut tally)?;
    let (ins, del) = mix(workload);
    writer.set_mix(ins, del);
    lap("replicate+recover", &mut phases);
    harness::flush_disk();

    let length = Duration::from_secs_f64(seconds);
    let mut episodes = Vec::new();
    let mut proposal_checks = Vec::new();
    let (mut phase, mut writers) = match workload {
        Workload::Ingest => (ingest(&env, &mut writer, length)?, vec![writer]),
        Workload::ReadMix => read_mix(&env, seed, writer, length)?,
        Workload::Designer => {
            let (phase, writer, designer) = designer_phase(&env, writer, length)?;
            episodes = designer.episodes;
            proposal_checks = designer.checks;
            (phase, vec![writer])
        }
    };
    lap("timed", &mut phases);
    // Timed-phase figures: rates per slice (median over the slices) and
    // percentiles over every statement of the phase.
    let t = &phase.tally;
    metrics.set("write_ops_per_s", slice_rate(&t.write_at, phase.start, length, SLICES), "1/s");
    metrics.set("write_p50_us", quantile(&t.writes, 0.5), "us");
    metrics.set("write_p95_us", quantile(&t.writes, TAIL), "us");
    metrics.set("read_ops_per_s", slice_rate(&t.read_at, phase.start, length, SLICES), "1/s");
    metrics.set("read_p50_us", quantile(&t.reads, 0.5), "us");
    metrics.set("read_p95_us", quantile(&t.reads, TAIL), "us");
    let rows = |writers: &[Writer]| {
        (env.base.len() as i64 + writers.iter().map(|w| w.net_rows).sum::<i64>()) as u64
    };

    // Probes: fixed work giving each workload the metrics its timed phase
    // does not produce. Nothing else writes meanwhile, so counts are exact.
    if workload != Workload::ReadMix {
        let mut probe = Tally::default();
        let mut client = connect(&env.addr, "perfbench-read-probe")?;
        client.set_session(false, PAGE).map_err(|e| e.to_string())?;
        let mut reader = Reader::new(Rng::new(seed, 7), Mix::Probe);
        let count = Count::Exactly(rows(&writers));
        let start = Instant::now();
        for _ in 0..read_probe(workload) {
            read_op(&mut client, &mut reader, &mut probe, count);
        }
        // Fixed work: percentiles over all its reads, rate per slice.
        let took = start.elapsed();
        metrics.set("read_ops_per_s", slice_rate(&probe.read_at, start, took, SLICES), "1/s");
        metrics.set("read_p50_us", quantile(&probe.reads, 0.5), "us");
        metrics.set("read_p95_us", quantile(&probe.reads, TAIL), "us");
        phase.tally.merge(probe);
        lap("read probe", &mut phases);
    }
    if workload != Workload::Designer {
        let mut d = Designer::connect(&env.addr, env.db().clone(), 0)?;
        let mut probe = Tally::default();
        {
            let client = connect(&env.addr, "perfbench-planter")?;
            let mut planter = InlinePlanter::new(client, &mut writers[0], &mut probe);
            for _ in 0..DRIFT_PROBE {
                d.episode(&mut planter, EPISODE_FD);
            }
        }
        probe.merge(std::mem::take(&mut d.tally));
        probe.writes.clear();
        probe.reads.clear();
        phase.tally.merge(probe);
        episodes = d.episodes;
        lap("drift probe", &mut phases);
    }

    // Memory of the served workload, before the checks' batch recomputes.
    let rss = peak_rss_mb();
    tally.merge(phase.tally);
    for check in proposal_checks {
        tally.check(check.holds(), || "live proposals differ from a batch analysis".into());
    }
    env.final_checks(rows(&writers), &mut tally);
    let mut rtts = Vec::new();
    let mut client = connect(&env.addr, "perfbench-rtt")?;
    for _ in 0..200 {
        let start = Instant::now();
        if client.tables().is_ok() {
            rtts.push(us(start.elapsed()));
        }
    }
    lap("checks", &mut phases);

    let proposals: Vec<f64> = episodes.iter().map(|e| e.proposal_ms).collect();
    metrics.set("proposal_p50_ms", median(&proposals), "ms");
    metrics.set("catchup_frames_per_s", catchup, "1/s");
    metrics.set("recovery_s", recovery, "s");
    metrics.set("peak_rss_mb", rss, "MB");
    env.teardown();
    Ok(Outcome { phases, metrics, tally, designer: episodes, rtt_us: median(&rtts) })
}

/// What a timed phase measured.
struct Phase {
    tally: Tally,
    start: Instant,
}

fn connect(addr: &str, ident: &str) -> Result<Client, String> {
    Client::connect(addr, ident).map_err(|e| e.to_string())
}

/// `ingest`: one session sends single-row INSERTs in a closed loop.
fn ingest(env: &Env, writer: &mut Writer, length: Duration) -> Result<Phase, String> {
    let mut client = connect(&env.addr, "perfbench-ingest")?;
    let mut tally = Tally::default();
    let start = Instant::now();
    while start.elapsed() < length {
        writer.step(&mut client, &mut tally);
    }
    Ok(Phase { tally, start })
}

/// `read_mix`: two sessions, ~90% reads and ~10% FD-consistent inserts.
fn read_mix(
    env: &Env,
    seed: u64,
    writer: Writer,
    length: Duration,
) -> Result<(Phase, Vec<Writer>), String> {
    let floor = (env.base.len() as i64 + writer.net_rows) as u64;
    let live = writer.live().to_vec();
    let mut writers = vec![writer];
    writers.push(Writer::new(Rng::new(seed, 2), live, 100, 0));
    let start = Instant::now();
    let results: Vec<Result<(Tally, Writer), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = writers
            .into_iter()
            .enumerate()
            .map(|(i, mut writer)| {
                let addr = env.addr.clone();
                s.spawn(move || {
                    let mut client = connect(&addr, &format!("perfbench-session-{i}"))?;
                    client.set_session(false, PAGE).map_err(|e| e.to_string())?;
                    let mut reader = Reader::new(Rng::new(seed, 10 + i as u64), Mix::Sessions);
                    let mut tally = Tally::default();
                    let mut op = 0u64;
                    while start.elapsed() < length {
                        // Every tenth statement is an insert.
                        if op % 10 == 9 {
                            writer.step(&mut client, &mut tally);
                        } else {
                            read_op(&mut client, &mut reader, &mut tally, Count::AtLeast(floor));
                        }
                        op += 1;
                    }
                    Ok((tally, writer))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("session thread")).collect()
    });
    let mut tally = Tally::default();
    let mut writers = Vec::new();
    for r in results {
        let (t, w) = r?;
        tally.merge(t);
        writers.push(w);
    }
    Ok((Phase { tally, start }, writers))
}

/// What a `COUNT(*)` must return.
#[derive(Debug, Clone, Copy)]
pub enum Count {
    /// Inserts run concurrently: at least this many rows.
    AtLeast(u64),
    /// Nothing else writes: exactly this many.
    Exactly(u64),
}

/// A check on the rows of a rendered result.
pub type RowCheck = Box<dyn Fn(&[Vec<String>]) -> bool>;

/// Which rotation of read shapes a reader cycles through. A fixed
/// rotation gives every run the same mix of work; only parameters are
/// drawn from the seed.
#[derive(Debug, Clone, Copy)]
pub enum Mix {
    /// `read_mix` sessions: indexed point lookups ~92%, unindexed selective
    /// filters 7.5%, and one full-table statement (`COUNT(*)`, `GROUP BY
    /// Zip, City`, `CHECK FD` in turn) per 500 reads. Each full-table
    /// statement holds the engine for 10–60 ms at 100k rows and delays the
    /// other session's next statement by as much, so together they make
    /// ~0.4% of reads slow: at one per 40 reads the 99th write percentile
    /// sat among inserts queued behind them, and at one per 250 the 99th
    /// read percentile sat on the edge of that cluster; both swung twofold
    /// between runs.
    Sessions,
    /// The fixed read probes: every shape within 40 reads (lookups 80%,
    /// filters 7.5%, `COUNT(*)` and `GROUP BY` 2.5% each, `CHECK FD` 7.5%),
    /// so a short probe covers them all. Its `CHECK FD` is always the
    /// costliest, `PhNo, Zip -> Street`, so the slowest 5% of probe reads
    /// are that one shape rather than the edge between two.
    Probe,
}

/// The shape of read `k` of a rotation.
fn shape(mix: Mix, k: usize) -> &'static str {
    const FULL_TABLE: [&str; 3] = ["count", "group", "check_fd"];
    match (mix, k % 40) {
        (Mix::Sessions, _) if k % 500 == 250 => FULL_TABLE[(k / 500) % 3],
        (Mix::Probe, 9) => "count",
        (Mix::Probe, 19) => "group",
        (Mix::Probe, 29 | 34 | 39) => "check_fd",
        (_, 4 | 14 | 24) => "point_scan",
        _ => "point_idx",
    }
}

/// A read session's statement source.
pub struct Reader {
    rng: Rng,
    mix: Mix,
    next: usize,
    checks: usize,
}

impl Reader {
    pub fn new(rng: Rng, mix: Mix) -> Reader {
        Reader { rng, mix, next: 0, checks: 0 }
    }

    /// The next read: shape name, SQL, and the check its result rows
    /// must pass.
    pub fn next(&mut self, count: Count) -> (&'static str, String, RowCheck) {
        let shape = shape(self.mix, self.next);
        self.next += 1;
        let rng = &mut self.rng;
        let (sql, check): (String, RowCheck) = match shape {
            "point_idx" => {
                let z = places::random_zip(rng);
                let (city, state) = places::city_state(z);
                let sql = format!(
                    "SELECT City, State FROM {TABLE} WHERE Zip = '{}'",
                    places::zip_text(z)
                );
                (
                    sql,
                    Box::new(move |rows| {
                        rows.iter().all(|r| r.len() == 2 && r[0] == city && r[1] == state)
                    }),
                )
            }
            "point_scan" => {
                let p = places::random_phone(rng);
                let sql = format!(
                    "SELECT Zip, Street FROM {TABLE} WHERE PhNo = '{}'",
                    places::phone_text(p)
                );
                (
                    sql,
                    Box::new(move |rows| {
                        rows.iter().all(|r| {
                            r.len() == 2 && places::street_of(p, &r[0]).as_deref() == Some(&r[1])
                        })
                    }),
                )
            }
            "count" => (
                format!("SELECT COUNT(*) FROM {TABLE}"),
                Box::new(move |rows| {
                    let n =
                        rows.first().and_then(|r| r.first()).and_then(|c| c.parse::<u64>().ok());
                    match count {
                        Count::AtLeast(floor) => n.is_some_and(|n| n >= floor),
                        Count::Exactly(rows) => n == Some(rows),
                    }
                }),
            ),
            "group" => (
                format!("SELECT Zip, City, COUNT(*) FROM {TABLE} GROUP BY Zip, City"),
                Box::new(|rows| {
                    !rows.is_empty()
                        && rows.iter().all(|r| {
                            r.len() == 3 && places::city_of_zip(&r[0]).as_deref() == Some(&r[1])
                        })
                }),
            ),
            _ => {
                let fd = match self.mix {
                    Mix::Sessions => FDS[self.checks % FDS.len()],
                    Mix::Probe => FDS[2],
                };
                self.checks += 1;
                (
                    format!("CHECK FD '{fd}' ON {TABLE}"),
                    Box::new(|rows| {
                        rows.len() == 1 && rows[0].get(3).map(String::as_str) == Some("true")
                    }),
                )
            }
        };
        (shape, sql, check)
    }
}

/// Send one read, time it and check its result.
fn read_op(client: &mut Client, reader: &mut Reader, tally: &mut Tally, count: Count) {
    let (shape, sql, check) = reader.next(count);
    let (reply, took) = tally.exec(client, &sql);
    if let Some(text) = reply {
        tally.reads.push(us(took));
        tally.read_at.push(Instant::now());
        tally.shape(shape, took);
        let rows = result_rows(&text);
        tally.check(check(&rows), || {
            format!("wrong result for `{sql}`: {}", &text[..text.len().min(200)])
        });
    }
}

/// `designer`: a writer session (INSERT/DELETE/UPDATE) that also plants
/// and removes the breaking rows, and the designer session reacting to
/// the pushed drift events. The writer stops its own statements at the
/// deadline and then only serves the designer until it says stop, so the
/// last episode always ends restored.
fn designer_phase(
    env: &Env,
    mut writer: Writer,
    length: Duration,
) -> Result<(Phase, Writer, Designer), String> {
    let (cmd_tx, cmd_rx) = mpsc::channel::<Command>();
    let (reply_tx, reply_rx) = mpsc::channel::<Reply>();
    let mut d = Designer::connect(&env.addr, env.db().clone(), VERIFIED_EPISODES)?;
    let start = Instant::now();
    let writer_result = std::thread::scope(|s| {
        let addr = env.addr.clone();
        let writer_thread = s.spawn(move || -> Result<(Tally, Writer), String> {
            let mut client = connect(&addr, "perfbench-writer")?;
            let mut tally = Tally::default();
            let mut planted: Option<Vec<String>> = None;
            let mut since_restore = 0u64;
            // After planting, the writer waits until the designer has its
            // proposals, so proposal latency does not queue behind writes.
            let mut paused = false;
            loop {
                let running = start.elapsed() < length && !paused;
                let cmd = if running {
                    // Episodes are spaced by a fixed count of steady writes.
                    if since_restore < WRITES_PER_EPISODE {
                        None
                    } else {
                        cmd_rx.try_recv().ok()
                    }
                } else {
                    Some(cmd_rx.recv().unwrap_or(Command::Stop))
                };
                match cmd {
                    Some(Command::Plant(fd)) => {
                        let at = designer::plant_on(&mut client, &mut writer, &mut tally, fd);
                        let reply = at.map(|(sent, acked, values)| {
                            planted = Some(values);
                            (sent, acked)
                        });
                        paused = reply.is_some();
                        let _ = reply_tx.send(Reply::Planted(reply));
                    }
                    Some(Command::Resume) => paused = false,
                    Some(Command::Restore) => {
                        let ok = planted.take().is_some_and(|values| {
                            designer::restore_on(&mut client, &mut writer, &mut tally, &values)
                        });
                        since_restore = 0;
                        let _ = reply_tx.send(Reply::Restored(ok));
                    }
                    Some(Command::Stop) => break,
                    None => {
                        writer.step(&mut client, &mut tally);
                        since_restore += 1;
                    }
                }
            }
            Ok((tally, writer))
        });
        let mut planter = designer::ChannelPlanter { commands: cmd_tx, replies: reply_rx };
        while start.elapsed() < length {
            d.episode(&mut planter, EPISODE_FD);
        }
        let _ = planter.commands.send(Command::Stop);
        writer_thread.join().expect("writer thread")
    });
    let (mut tally, writer) = writer_result?;
    tally.merge(std::mem::take(&mut d.tally));
    Ok((Phase { tally, start }, writer, d))
}
