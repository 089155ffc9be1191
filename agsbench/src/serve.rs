//! The `serve-mixed` workload: an `ags serve` daemon on loopback driven
//! by an open-loop generator.
//!
//! Submissions arrive on a Poisson schedule at a few fixed rates, one
//! phase per rate. Each task's client polls `GET /tasks/<id>` at a fixed
//! interval until the task is terminal, then fetches `/result`. Every
//! request is timed from when it was due, so a stall also charges the
//! requests queued behind it. One thread multiplexes all connections,
//! non-blocking; the daemon answers one request per connection.
//!
//! The daemon is this benchmark's own executable re-run in `daemon`
//! mode, which starts the library daemon exactly as `ags serve` does.

use crate::host::{self, http, parse_response, request_bytes};
use crate::schedule::{self, PhaseVerdict, Rng};
use crate::stats;
use crate::Metrics;
use ags::fleet::{FleetEngine, FleetSpec};
use ags::obs::trace;
use ags::sim::journal::render_failed;
use ags::sim::{Placement, SolveCache, SweepEngine, SweepSpec};
use ags::workloads::Catalog;
use serde::Value;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered submission rates, one phase each (per second). The daemon on
/// 2 vCPUs keeps every phase well under the limit, so `rate_per_s`
/// drops if a change costs it that headroom.
const RATES: [f64; 3] = [25.0, 50.0, 100.0];
/// The latency limit on a phase's tail submit→result latency (ms) that
/// `rate_per_s` is judged against.
const RESULT_LIMIT_MS: f64 = 250.0;
/// How often a task's client polls its status.
const POLL: Duration = Duration::from_millis(10);
/// How long a phase may take past its last arrival to finish.
const DRAIN_GRACE: Duration = Duration::from_secs(20);
/// Daemon starts timed for `setup_s`, and restarts for `restart_s`.
const SETUPS: usize = 10;
const RESTARTS: u32 = 121;
/// How long the restarts are spread over after the load phases, as a
/// share of `--seconds`.
const RESTART_SHARE: f64 = 0.5;
/// How late the generator may start its requests, at its tail, before a
/// run is invalid: two accept polls of the daemon.
const GENERATOR_LATE_LIMIT_MS: f64 = 50.0;
/// Attempts at a read request before its task counts as failed.
const MAX_ATTEMPTS: u32 = 5;
/// The traced run fetches the daemon's span tree of every this-many-th
/// task: every task's would add a trace render per result and load the
/// daemon it measures.
const TRACE_EVERY: usize = 10;
/// The task states that end a task.
const TERMINAL: [&str; 3] = ["succeeded", "failed", "canceled"];

/// `agsbench daemon --journal DIR --addr HOST:PORT --jobs N`: the daemon
/// side, started the way `ags serve` starts it. A graceful drain exits 75.
#[must_use]
pub fn daemon_main(journal: &str, addr: &str, jobs: usize) -> ExitCode {
    let mut config = ags::serve::ServeConfig::new(addr, journal);
    config.jobs = jobs;
    ags::obs::metrics::global().set_enabled(true);
    ags::sim::telemetry::register_all();
    ags::fleet::telemetry::register_all();
    ags::serve::telemetry::register_all();
    ags::harness::install_cancel_on_signals(&config.drain);
    match ags::serve::serve(config) {
        Ok(()) => ExitCode::from(ags::harness::EXIT_INTERRUPTED),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

/// A running daemon process.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Starts a daemon on `journal` and waits until `/healthz` answers
    /// 200: `(daemon, seconds until ready)`.
    ///
    /// The daemon binds a port picked here, so the probe can knock from
    /// the moment the process starts: the first connection the kernel
    /// accepts is queued before the daemon's accept loop first polls,
    /// and ready time is the earliest a client could be served.
    fn start(journal: &Path, jobs: usize, log: &Path) -> std::io::Result<(Daemon, f64)> {
        let exe = std::env::current_exe()?;
        let addr = std::net::TcpListener::bind("127.0.0.1:0")?.local_addr()?;
        let stderr = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)?;
        let started = Instant::now();
        let mut child = Command::new(exe)
            .arg("daemon")
            .arg("--journal")
            .arg(journal)
            .arg("--addr")
            .arg(addr.to_string())
            .arg("--jobs")
            .arg(jobs.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()?;
        let ready = loop {
            if matches!(http(addr, "GET", "/healthz", ""), Ok((200, _))) {
                break Ok(started.elapsed().as_secs_f64());
            }
            if !matches!(child.try_wait(), Ok(None)) {
                break Err(std::io::Error::other("daemon exited during start-up"));
            }
            if started.elapsed() > Duration::from_secs(30) {
                break Err(std::io::Error::other("daemon never became healthy"));
            }
            // Knock again at once: the gap between bind and the first
            // accept poll is a few hundred microseconds.
            std::thread::yield_now();
        };
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let handshake = ready.and_then(|s| {
            stdout.read_line(&mut line)?;
            if line.trim() == format!("serve: listening on http://{addr}") {
                Ok(s)
            } else {
                Err(std::io::Error::other(format!(
                    "unexpected handshake {line:?}"
                )))
            }
        });
        let daemon = Daemon {
            child,
            addr,
            _stdout: stdout,
        };
        handshake.map(|s| (daemon, s))
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// SIGTERM, then wait for the drain: true when it exited 75. A
    /// daemon that does not drain in time is killed on drop.
    fn drain(mut self) -> bool {
        let sent = Command::new("kill")
            .args(["-TERM", &self.pid()])
            .status()
            .is_ok_and(|s| s.success());
        let deadline = Instant::now() + Duration::from_secs(30);
        while sent && Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    return status.code() == Some(i32::from(ags::harness::EXIT_INTERRUPTED))
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(_) => break,
            }
        }
        false
    }
}

impl Drop for Daemon {
    /// No daemon outlives the benchmark, on any path out of it.
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One task of the mix.
#[derive(Debug, Clone)]
enum TaskSpec {
    Sweep(SweepSpec),
    Fleet(FleetSpec),
}

impl TaskSpec {
    fn body(&self) -> String {
        match self {
            TaskSpec::Sweep(s) => format!("{{\"kind\":\"sweep\",\"spec\":{}}}", s.to_json()),
            TaskSpec::Fleet(s) => format!("{{\"kind\":\"fleet\",\"spec\":{}}}", s.to_json()),
        }
    }

    /// The result the daemon must serve, rendered by the in-process
    /// engines exactly as the daemon renders it.
    fn expected(&self, cache: &Arc<SolveCache>) -> String {
        match self {
            TaskSpec::Sweep(spec) => match SweepEngine::with_cache(1, cache.clone()).run(spec) {
                Ok(r) => r.render_table() + &render_failed(&r.failed_points, "grid points"),
                Err(e) => format!("reference run failed: {e}"),
            },
            TaskSpec::Fleet(spec) => match FleetEngine::with_cache(1, cache.clone()).run(spec) {
                Ok(r) => r.table() + &render_failed(&r.failed_shards, "shards"),
                Err(e) => format!("reference run failed: {e}"),
            },
        }
    }
}

/// The task mix: mostly small sweeps over a few repeated (workload,
/// seed) families whose core lists vary, so queued tasks batch and hit
/// the daemon's cache; some sweeps with fresh seeds, which miss; and a
/// minority of fleet smoke campaigns, which never batch.
fn generate_mix(seed: u64, count: usize) -> Vec<TaskSpec> {
    let mut rng = Rng::new(seed ^ 0x006d_6978);
    let names: Vec<String> = Catalog::shared()
        .iter()
        .map(|w| w.name().to_owned())
        .collect();
    let families: Vec<(String, u64)> = (0..4)
        .map(|_| (names[rng.below(names.len())].clone(), rng.next_u64() % 1000))
        .collect();
    (0..count)
        .map(|i| {
            let u = rng.unit();
            if u < 0.08 {
                let (_, s) = &families[rng.below(families.len())];
                return TaskSpec::Fleet(FleetSpec::smoke().with_seed(*s));
            }
            let (workload, spec_seed) = if u < 0.30 {
                (
                    names[rng.below(names.len())].clone(),
                    1000 + seed.wrapping_mul(7919) % 1_000_000 + i as u64,
                )
            } else {
                families[rng.below(families.len())].clone()
            };
            let mut cores: Vec<usize> = Vec::new();
            let k = 1 + rng.below(3);
            while cores.len() < k {
                let c = 1 + rng.below(8);
                if !cores.contains(&c) {
                    cores.push(c);
                }
            }
            cores.sort_unstable();
            TaskSpec::Sweep(
                SweepSpec::new(vec![workload], cores)
                    .with_placements(vec![Placement::SingleSocket])
                    .with_seed(spec_seed),
            )
        })
        .collect()
}

/// Client-side record of one task (task `i` submits `mix[i]`).
#[derive(Debug, Default, Clone)]
struct Task {
    fleet: bool,
    phase: usize,
    due: Option<Instant>,
    id: Option<u64>,
    ack_ms: Option<f64>,
    done_at: Option<Instant>,
    done_ms: Option<f64>,
    state: String,
    result: Option<String>,
    polls: u32,
    failed: bool,
    spans: BTreeMap<String, (f64, f64)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Req {
    Submit(usize),
    Status(usize),
    Result(usize),
    Trace(usize),
}

struct Conn {
    stream: TcpStream,
    req: Req,
    due: Instant,
    attempt: u32,
    out: Vec<u8>,
    written: usize,
    inbuf: Vec<u8>,
    _span: Option<trace::Span>,
}

enum Drive {
    Pending(bool),
    Done(Option<(u16, String)>),
}

impl Conn {
    fn drive(&mut self) -> Drive {
        let mut progressed = false;
        while self.written < self.out.len() {
            match self.stream.write(&self.out[self.written..]) {
                Ok(n) => {
                    self.written += n;
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Drive::Pending(progressed),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Drive::Done(None),
            }
        }
        let mut buf = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => return Drive::Done(parse_response(&self.inbuf)),
                Ok(n) => {
                    self.inbuf.extend_from_slice(&buf[..n]);
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Drive::Pending(progressed),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Drive::Done(None),
            }
        }
    }
}

/// Latency samples of the whole run, in ms.
#[derive(Default)]
struct Samples {
    status_ms: Vec<f64>,
    late_ms: Vec<f64>,
    retries: u64,
}

/// The generator: timers, open connections and the task table.
struct Generator<'a> {
    addr: SocketAddr,
    bodies: &'a [String],
    tasks: Vec<Task>,
    timers: BinaryHeap<std::cmp::Reverse<(Instant, u64, Req, u32)>>,
    seq: u64,
    conns: Vec<Conn>,
    samples: Samples,
    traced: bool,
}

impl<'a> Generator<'a> {
    fn schedule(&mut self, at: Instant, req: Req, attempt: u32) {
        self.seq += 1;
        self.timers
            .push(std::cmp::Reverse((at, self.seq, req, attempt)));
    }

    fn path(&self, req: Req) -> (String, &'static str, &'a str) {
        let id = |t: usize| self.tasks[t].id.unwrap_or(0);
        match req {
            Req::Submit(t) => ("/tasks".to_owned(), "POST", self.bodies[t].as_str()),
            Req::Status(t) => (format!("/tasks/{}", id(t)), "GET", ""),
            Req::Result(t) => (format!("/tasks/{}/result", id(t)), "GET", ""),
            Req::Trace(t) => (format!("/tasks/{}/trace", id(t)), "GET", ""),
        }
    }

    fn start(&mut self, due: Instant, req: Req, attempt: u32) {
        let now = Instant::now();
        self.samples
            .late_ms
            .push(now.saturating_duration_since(due).as_secs_f64() * 1e3);
        let span = self.traced.then(|| {
            trace::span(
                match req {
                    Req::Submit(_) => "bench.serve.submit",
                    Req::Status(_) => "bench.serve.status",
                    Req::Result(_) => "bench.serve.result",
                    Req::Trace(_) => "bench.serve.trace",
                },
                0,
            )
        });
        let (path, method, body) = self.path(req);
        let stream = TcpStream::connect(self.addr).and_then(|s| {
            s.set_nonblocking(true)?;
            s.set_nodelay(true)?;
            Ok(s)
        });
        match stream {
            Ok(stream) => self.conns.push(Conn {
                stream,
                req,
                due,
                attempt,
                out: request_bytes(method, &path, body),
                written: 0,
                inbuf: Vec::new(),
                _span: span,
            }),
            Err(_) => self.retry(req, attempt),
        }
    }

    fn retry(&mut self, req: Req, attempt: u32) {
        let (Req::Submit(t) | Req::Status(t) | Req::Result(t) | Req::Trace(t)) = req;
        if matches!(req, Req::Submit(_)) || attempt + 1 >= MAX_ATTEMPTS {
            // A refused submission, or a read that kept failing.
            if !matches!(req, Req::Trace(_)) {
                self.tasks[t].failed = true;
            }
            return;
        }
        self.samples.retries += 1;
        self.schedule(Instant::now() + Duration::from_millis(10), req, attempt + 1);
    }

    fn finish(&mut self, conn: &Conn, response: Option<(u16, String)>) {
        let now = Instant::now();
        let Some((status, body)) = response else {
            return self.retry(conn.req, conn.attempt);
        };
        let ms = |since: Instant| now.duration_since(since).as_secs_f64() * 1e3;
        match conn.req {
            Req::Submit(t) => {
                let id = Value::parse_json(&body).ok().and_then(|v| {
                    v.field("task").ok().and_then(|f| match f {
                        Value::Int(i) => u64::try_from(*i).ok(),
                        _ => None,
                    })
                });
                match (status, id) {
                    (202, Some(id)) => {
                        let task = &mut self.tasks[t];
                        task.id = Some(id);
                        task.ack_ms = Some(ms(conn.due));
                        self.schedule(now + POLL, Req::Status(t), 0);
                    }
                    _ => self.tasks[t].failed = true,
                }
            }
            Req::Status(t) => {
                self.samples.status_ms.push(ms(conn.due));
                let state = Value::parse_json(&body)
                    .ok()
                    .and_then(|v| match v.field("state") {
                        Ok(Value::Str(s)) => Some(s.clone()),
                        _ => None,
                    });
                let Some(state) = state.filter(|_| status == 200) else {
                    return self.retry(conn.req, conn.attempt);
                };
                let task = &mut self.tasks[t];
                task.polls += 1;
                if TERMINAL.contains(&state.as_str()) {
                    task.done_at = Some(now);
                    task.done_ms = Some(ms(task.due.expect("submitted tasks have a due time")));
                    task.failed = state != "succeeded";
                    task.state = state;
                    if !task.failed {
                        self.schedule(now, Req::Result(t), 0);
                    }
                } else {
                    self.schedule(now + POLL, Req::Status(t), 0);
                }
            }
            Req::Result(t) if status == 200 => {
                self.tasks[t].result = Some(body);
                if self.traced && t % TRACE_EVERY == 0 {
                    self.schedule(now, Req::Trace(t), 0);
                }
            }
            Req::Trace(t) if status == 200 => self.tasks[t].spans = task_spans(&body),
            Req::Result(_) | Req::Trace(_) => self.retry(conn.req, conn.attempt),
        }
    }

    /// Runs one phase: submits `tasks[range]` at their due times and
    /// waits for all of them to end. Returns the outstanding-task counts
    /// sampled every 100 ms while submissions were arriving.
    fn run_phase(
        &mut self,
        range: std::ops::Range<usize>,
        offsets: &[f64],
    ) -> (Instant, Vec<usize>) {
        let start = Instant::now() + Duration::from_millis(20);
        for (t, off) in range.clone().zip(offsets) {
            let due = start + Duration::from_secs_f64(*off);
            self.tasks[t].due = Some(due);
            self.schedule(due, Req::Submit(t), 0);
        }
        let last_due = start + Duration::from_secs_f64(offsets.last().copied().unwrap_or(0.0));
        let deadline = last_due + DRAIN_GRACE;
        let mut next_sample = start;
        let mut outstanding = Vec::new();
        loop {
            let now = Instant::now();
            while let Some(std::cmp::Reverse((due, _, req, attempt))) = self.timers.peek().copied()
            {
                if due > now {
                    break;
                }
                self.timers.pop();
                self.start(due, req, attempt);
            }
            let mut progressed = false;
            let mut i = 0;
            while i < self.conns.len() {
                match self.conns[i].drive() {
                    Drive::Pending(p) => {
                        progressed |= p;
                        i += 1;
                    }
                    Drive::Done(response) => {
                        let conn = self.conns.swap_remove(i);
                        self.finish(&conn, response);
                        progressed = true;
                    }
                }
            }
            if now >= next_sample && now <= last_due {
                outstanding.push(
                    self.tasks[range.clone()]
                        .iter()
                        .filter(|t| {
                            t.due.is_some_and(|d| d <= now) && t.done_at.is_none() && !t.failed
                        })
                        .count(),
                );
                next_sample += Duration::from_millis(100);
            }
            if self.timers.is_empty() && self.conns.is_empty() {
                break;
            }
            if now > deadline {
                for task in &mut self.tasks[range.clone()] {
                    if task.done_at.is_none() {
                        task.failed = true;
                    }
                }
                self.timers.clear();
                self.conns.clear();
                break;
            }
            if !progressed {
                let next = self
                    .timers
                    .peek()
                    .map_or(now + Duration::from_micros(200), |r| r.0 .0);
                std::thread::sleep(
                    next.saturating_duration_since(now)
                        .min(Duration::from_micros(200)),
                );
            }
        }
        (start, outstanding)
    }
}

/// `name → (start ms, duration ms)` of the daemon's task spans in a
/// Chrome-trace body (first occurrence of each name).
fn task_spans(body: &str) -> BTreeMap<String, (f64, f64)> {
    let mut out = BTreeMap::new();
    let Ok(value) = Value::parse_json(body) else {
        return out;
    };
    let Ok(Value::Seq(events)) = value.field("traceEvents") else {
        return out;
    };
    let num = |v: &Value, k: &str| match v.field(k) {
        Ok(Value::Int(i)) => *i as f64,
        Ok(Value::Float(f)) => *f,
        _ => 0.0,
    };
    for e in events {
        if let Ok(Value::Str(name)) = e.field("name") {
            out.entry(name.clone())
                .or_insert((num(e, "ts") / 1e3, num(e, "dur") / 1e3));
        }
    }
    out
}

fn p50(v: &[f64]) -> f64 {
    stats::median(v).unwrap_or(0.0)
}

/// Runs the workload for `seconds` and records its metrics.
#[allow(clippy::too_many_lines)]
pub fn run(seed: u64, seconds: f64, traced: bool, work: &Path, out: &mut Metrics) {
    let jobs = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2);
    let log = work.join("daemon.log");
    let journal = work.join("serve-journal");

    // Phases: each rate once; the traced run first repeats the lowest
    // rate untraced, to measure what tracing costs.
    let mut phases: Vec<(f64, bool)> = RATES.iter().map(|&r| (r, traced)).collect();
    if traced {
        phases.insert(0, (RATES[0], false));
    }
    #[allow(clippy::cast_precision_loss)]
    let phase_s = seconds / phases.len() as f64;
    let schedules: Vec<Vec<f64>> = phases
        .iter()
        .enumerate()
        .map(|(i, &(rate, _))| {
            schedule::poisson_schedule(seed ^ (i as u64 + 1) << 32, rate, phase_s)
        })
        .collect();
    let total: usize = schedules.iter().map(Vec::len).sum();
    let mix = generate_mix(seed, total);
    let bodies: Vec<String> = mix.iter().map(TaskSpec::body).collect();

    // Set-up: daemon starts on fresh journals, until /healthz is 200.
    let mut setup_s = Vec::new();
    let mut lifecycles = 0u64;
    let mut bad_lifecycles = 0u64;
    for i in 0..SETUPS {
        lifecycles += 1;
        match Daemon::start(&work.join(format!("setup-{i}")), jobs, &log) {
            Ok((d, s)) => {
                setup_s.push(s);
                bad_lifecycles += u64::from(!d.drain());
            }
            Err(e) => {
                eprintln!("agsbench: daemon start failed: {e}");
                bad_lifecycles += 1;
            }
        }
    }
    lifecycles += 1;
    let (daemon, ready) = match Daemon::start(&journal, jobs, &log) {
        Ok(started) => started,
        Err(e) => {
            eprintln!("agsbench: daemon start failed: {e}");
            out.attempted += lifecycles;
            out.failed += lifecycles;
            return;
        }
    };
    setup_s.push(ready);

    let mut gen = Generator {
        addr: daemon.addr,
        bodies: &bodies,
        tasks: Vec::with_capacity(total),
        timers: BinaryHeap::new(),
        seq: 0,
        conns: Vec::new(),
        samples: Samples::default(),
        traced: false,
    };
    let mut verdicts = Vec::new();
    let mut phase_p50 = Vec::new();
    for (p, (&(rate, phase_traced), offsets)) in phases.iter().zip(&schedules).enumerate() {
        if phase_traced && !trace::is_enabled() {
            trace::enable();
        }
        gen.traced = phase_traced;
        let first = gen.tasks.len();
        for i in 0..offsets.len() {
            gen.tasks.push(Task {
                fleet: matches!(mix[first + i], TaskSpec::Fleet(_)),
                phase: p,
                ..Task::default()
            });
        }
        let range = first..gen.tasks.len();
        let (start, outstanding) = gen.run_phase(range.clone(), offsets);
        let tasks = &gen.tasks[range];
        let done: Vec<f64> = tasks
            .iter()
            .filter(|t| !t.failed)
            .filter_map(|t| t.done_ms)
            .collect();
        let with_failures: Vec<f64> = tasks
            .iter()
            .map(|t| {
                if t.failed {
                    f64::INFINITY
                } else {
                    t.done_ms.unwrap_or(f64::INFINITY)
                }
            })
            .collect();
        let end = tasks
            .iter()
            .filter_map(|t| t.done_at)
            .max()
            .unwrap_or(start);
        #[allow(clippy::cast_precision_loss)]
        let verdict = PhaseVerdict {
            rate_per_s: rate,
            achieved_per_s: done.len() as f64 / end.duration_since(start).as_secs_f64().max(1e-9),
            result_tail_ms: stats::tail(&with_failures).value,
            backlog_grew: schedule::backlog_grows(&outstanding),
        };
        println!(
            "serve phase {p}: {rate}/s{} — {} tasks, result p50 {:.2} ms, tail {:.2} ms, achieved {:.2}/s, backlog {}",
            if phase_traced { " traced" } else { "" },
            tasks.len(),
            p50(&done),
            verdict.result_tail_ms,
            verdict.achieved_per_s,
            if verdict.backlog_grew { "GROWING" } else { "steady" },
        );
        phase_p50.push((phase_traced, p50(&done)));
        if phase_traced || !traced {
            verdicts.push(verdict);
        }
    }

    // Tracing covers the load phases only.
    let events = if traced { trace::collect() } else { Vec::new() };
    out.dropped_spans += trace::dropped();
    trace::disable();
    let metrics_text = http(daemon.addr, "GET", "/metrics", "")
        .map(|(_, b)| b)
        .unwrap_or_default();
    let registry = host::prometheus_values(&metrics_text);
    let peak_rss = host::peak_rss_mb(&daemon.pid());
    lifecycles += 1;
    bad_lifecycles += u64::from(!daemon.drain());
    let (journal_files, journal_bytes) = host::dir_usage(&journal);

    // Restart on the workload's journal; the first restart must still
    // serve earlier results byte for byte. The load phases leave
    // thousands of journal files dirty; their writeback is not restart
    // cost. The restarts run on an even schedule over their share of
    // the run, so a slow second on the host moves few of the samples.
    host::settle_disk();
    let mut restart_s = Vec::new();
    let mut mismatches = 0u64;
    let spacing = Duration::from_secs_f64(seconds * RESTART_SHARE) / RESTARTS;
    let restarts_from = Instant::now();
    for r in 0..RESTARTS {
        let due = restarts_from + spacing * r;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        lifecycles += 1;
        match Daemon::start(&journal, jobs, &log) {
            Ok((d, s)) => {
                restart_s.push(s);
                if r == 0 {
                    for task in gen.tasks.iter().filter(|t| t.result.is_some()).take(8) {
                        let path = format!("/tasks/{}/result", task.id.unwrap_or(0));
                        let again = http(d.addr, "GET", &path, "").ok().map(|(_, b)| b);
                        mismatches += u64::from(again.as_ref() != task.result.as_ref());
                    }
                }
                bad_lifecycles += u64::from(!d.drain());
            }
            Err(e) => {
                eprintln!("agsbench: daemon restart failed: {e}");
                bad_lifecycles += 1;
            }
        }
    }

    // Correctness: every served result against the in-process render.
    let cache = Arc::new(SolveCache::new());
    let mut expected: HashMap<&str, String> = HashMap::new();
    for (i, task) in gen.tasks.iter().enumerate() {
        if let Some(result) = &task.result {
            let want = expected
                .entry(bodies[i].as_str())
                .or_insert_with(|| mix[i].expected(&cache));
            mismatches += u64::from(want != result);
        }
    }
    let failed_tasks = gen
        .tasks
        .iter()
        .filter(|t| t.failed || (t.result.is_none() && t.state == "succeeded"))
        .count();
    // A generator that fell behind its schedule did not offer the load
    // it claims: the run counts one failed operation.
    let late = stats::tail(&gen.samples.late_ms);
    let fell_behind = late.value > GENERATOR_LATE_LIMIT_MS;
    if fell_behind {
        eprintln!(
            "agsbench: generator ran {:.2} ms late at p{}: run is invalid",
            late.value, late.percentile
        );
    }
    out.attempted += gen.tasks.len() as u64 + lifecycles + 1;
    out.failed += failed_tasks as u64 + bad_lifecycles + u64::from(fell_behind);
    out.mismatches += mismatches;

    let measured: Vec<&Task> = gen
        .tasks
        .iter()
        .filter(|t| !traced || phases[t.phase].1)
        .collect();
    let result_ms: Vec<f64> = measured
        .iter()
        .filter(|t| !t.failed)
        .filter_map(|t| t.done_ms)
        .collect();
    let ack_ms: Vec<f64> = measured.iter().filter_map(|t| t.ack_ms).collect();
    for (label, fleet) in [("sweep", false), ("fleet", true)] {
        let of_kind: Vec<f64> = measured
            .iter()
            .filter(|t| t.fleet == fleet && !t.failed)
            .filter_map(|t| t.done_ms)
            .collect();
        let tail = stats::tail(&of_kind);
        println!(
            "serve {label} tasks: {}, result p50 {:.2} ms, p{} {:.2} ms",
            of_kind.len(),
            p50(&of_kind),
            tail.percentile,
            tail.value
        );
    }
    let result_tail = stats::tail(&result_ms);
    let ack_tail = stats::tail(&ack_ms);
    let status_tail = stats::tail(&gen.samples.status_ms);
    println!(
        "serve: {} tasks, ack_p50_ms {:.2}, ack p{} {:.2} ms ({} samples); result_p50_ms {:.2}, result p{} {:.2} ms ({} samples); status p{} {:.2} ms ({} samples)",
        measured.len(),
        p50(&ack_ms),
        ack_tail.percentile,
        ack_tail.value,
        ack_ms.len(),
        p50(&result_ms),
        result_tail.percentile,
        result_tail.value,
        result_ms.len(),
        status_tail.percentile,
        status_tail.value,
        gen.samples.status_ms.len(),
    );
    let ms = |v: &[f64]| {
        v.iter()
            .map(|s| format!("{:.2}", s * 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "serve: daemon ready after [{}] ms; restarted after [{}] ms",
        ms(&setup_s),
        ms(&restart_s)
    );
    out.e2e("setup_s", p50(&setup_s));
    out.e2e("peak_rss_mb", peak_rss);
    out.e2e("result_p50_ms", p50(&result_ms));
    out.e2e("rate_per_s", schedule::max_rate(&verdicts, RESULT_LIMIT_MS));
    out.e2e("restart_s", p50(&restart_s));
    out.layer("e2e.result_tail_ms", result_tail.value);
    out.layer("serve.ack_p50_ms", p50(&ack_ms));
    out.layer("serve.ack_p99_ms", ack_tail.value);
    out.layer("serve.status_p99_ms", status_tail.value);

    if !traced {
        return;
    }
    // The daemon's registry covers every phase, the untraced one too.
    out.registry_layers(&registry, 1.0);
    let get = |k: &str| registry.get(k).copied().unwrap_or(0.0);
    out.layer("serve.batches", get("ags_serve_batches_total"));
    out.layer(
        "serve.batch_width_mean",
        get("ags_serve_batch_width_sum") / get("ags_serve_batch_width_count").max(1.0),
    );
    out.layer("serve.sheds", get("ags_serve_sheds_total"));
    #[allow(clippy::cast_precision_loss)]
    {
        out.layer("serve.retries", gen.samples.retries as f64);
        let polls: u32 = measured.iter().map(|t| t.polls).sum();
        out.layer(
            "serve.polls_per_task",
            f64::from(polls) / measured.len().max(1) as f64,
        );
        out.layer("serve.journal_files", journal_files as f64);
        out.layer("serve.journal_bytes", journal_bytes as f64);
    }
    let span = |t: &Task, name: &str| t.spans.get(name).copied();
    let mut accept_wait = Vec::new();
    let mut queue_wait = Vec::new();
    let mut solve = Vec::new();
    let mut render = Vec::new();
    for t in &measured {
        if let (Some(ack), Some((_, dur))) = (t.ack_ms, span(t, "task_accept")) {
            accept_wait.push(ack - dur);
        }
        if let (Some((a_ts, a_dur)), Some((b_ts, _))) =
            (span(t, "task_accept"), span(t, "task_batch"))
        {
            queue_wait.push(b_ts - (a_ts + a_dur));
        }
        if let Some((_, d)) = span(t, "task_solve") {
            solve.push(d);
        }
        if let Some((_, d)) = span(t, "task_render") {
            render.push(d);
        }
    }
    out.layer("serve.accept_wait_ms.p50", p50(&accept_wait));
    out.layer("serve.accept_wait_ms.p99", stats::tail(&accept_wait).value);
    out.layer("serve.queue_wait_ms", p50(&queue_wait));
    out.layer("serve.solve_ms", p50(&solve));
    out.layer("serve.render_ms", p50(&render));
    out.layer("bench.gen_late_p99_ms", late.value);
    let untraced = phase_p50.iter().find(|p| !p.0).map_or(0.0, |p| p.1);
    let traced_same_rate = phase_p50.iter().find(|p| p.0).map_or(0.0, |p| p.1);
    out.layer(
        "obs.trace_overhead_pct",
        (traced_same_rate / untraced - 1.0) * 100.0,
    );
    crate::spans::add_self_times(&mut out.trace_rows, &events);
    out.trace_events = events;
}

/// A request sample for the parse probe when the workload sent none.
#[must_use]
pub fn sample_requests(seed: u64) -> Vec<Vec<u8>> {
    let body = generate_mix(seed, 1)[0].body();
    vec![
        request_bytes("POST", "/tasks", &body),
        request_bytes("GET", "/tasks/1", ""),
    ]
}
