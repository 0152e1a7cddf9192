//! `serve` and `serve-routed`: a closed loop against a child `mbist serve`
//! at its default configuration, or `mbist serve --shards 2` behind the
//! router, with the identical request stream.
//!
//! Two client threads each own one connection (one line-JSON, one binary)
//! and issue requests back to back, one in flight, as the closed-loop
//! clients of the `loadgen` bench behind `BENCH_service.json` do. The
//! seeded mix puts reads next to writes on one cache:
//!
//! - repeated `coverage` over a working set (result-cache hits);
//! - `detects` with random faults on working-set traces (trace-cache hits,
//!   one fault simulated);
//! - `coverage` on a geometry no earlier request used (a miss: expand,
//!   compile, simulate and cache insert).
//!
//! The shares of the three kinds and the size of the working set are
//! assumptions, not measurements: no request log or published trace of
//! this daemon exists to take them from.
//!
//! Every reply must equal the offline answer for the same request: the
//! CLI's coverage text, or a full replay of the fault for `detects`.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use mbist_march::{library, CompiledTrace, ExpandOptions};
use mbist_mem::{FaultKind, MemGeometry, MemoryArray};
use mbist_service::binary;
use mbist_service::json::Json;

use crate::check::{self, Expected};
use crate::stats::{
    children_of, cpu_ms, median, median_tail, ms_since, peak_rss_mb, tail, timed, Rng, Tail,
};
use crate::{Args, Report, Setup, Slice};

/// Length of one segment of a phase; a segment is one slice.
const SEGMENT: Duration = Duration::from_secs(1);
/// Routed and direct calls per working-set entry in the router-hop probe.
const HOP_PROBES: usize = 25;

/// `(test, words, width, ports)` of the working set.
const WORKING_SET: [(&str, u64, u8, u8); 8] = [
    ("march-c", 1024, 1, 1),
    ("mats+", 4096, 1, 1),
    ("march-b", 256, 1, 1),
    ("march-c++", 2048, 1, 1),
    ("march-a", 512, 1, 1),
    ("march-x", 1024, 8, 1),
    ("march-c", 256, 8, 2),
    ("march-ss", 1024, 1, 1),
];
/// The never-seen-before coverage requests are drawn without replacement
/// from `NOVEL_TESTS` × `NOVEL_WORDS` × `NOVEL_WIDTHS`: 16K pairs of test
/// and geometry, none in the working set, so a run never repeats one.
const NOVEL_TESTS: [&str; 8] =
    ["mats+", "march-x", "march-y", "march-c", "march-u", "march-lr", "march-a", "march-b"];
const NOVEL_WORDS: std::ops::Range<u64> = 256..1280;
const NOVEL_WIDTHS: [u8; 2] = [1, 2];
const FAULT_KINDS: [&str; 7] = ["sa0", "sa1", "tf-up", "tf-down", "sof", "drf", "puf"];
/// Request mix, in percent: reads, then detects; the rest are writes. An
/// assumption (see the module docs): a read-mostly mix whose writes still
/// reach the cache every few dozen requests.
const READ_PCT: u64 = 65;
const DETECTS_PCT: u64 = 30;

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum Req {
    Read(usize),
    Detects(usize, String),
    Write(&'static str, MemGeometry),
}

impl Req {
    fn to_json(&self, id: u64) -> Json {
        let (kind, test, geometry, fault) = match self {
            Req::Read(i) => ("coverage", WORKING_SET[*i].0, ws_geometry(*i), None),
            Req::Detects(i, f) => ("detects", WORKING_SET[*i].0, ws_geometry(*i), Some(f)),
            Req::Write(t, g) => ("coverage", *t, *g, None),
        };
        let mut members = vec![
            ("id", Json::num(id as f64)),
            ("kind", Json::str(kind)),
            ("test", Json::str(test)),
            ("words", Json::num(geometry.words() as f64)),
            ("width", Json::num(f64::from(geometry.width()))),
            ("ports", Json::num(f64::from(geometry.ports()))),
        ];
        if let Some(f) = fault {
            members.push(("fault", Json::str(f.clone())));
        }
        Json::obj(members)
    }

    fn test(&self) -> &'static str {
        match self {
            Req::Read(i) | Req::Detects(i, _) => WORKING_SET[*i].0,
            Req::Write(t, _) => t,
        }
    }
}

fn ws_geometry(i: usize) -> MemGeometry {
    let (_, words, width, ports) = WORKING_SET[i];
    MemGeometry::new(words, width, ports)
}

/// The offline CLI text for a coverage request at the daemon's defaults
/// (the text is the same for every `--jobs`).
fn offline_coverage(test: &str, g: MemGeometry, jobs: usize) -> Result<String, String> {
    let args = [
        "coverage",
        test,
        "--words",
        &g.words().to_string(),
        "--width",
        &g.width().to_string(),
        "--ports",
        &g.ports().to_string(),
        "--max-faults",
        "256",
        "--jobs",
        &jobs.to_string(),
    ]
    .map(String::from);
    mbist_cli::run(&args).map_err(|e| format!("offline {args:?}: {e}"))
}

/// The offline answers to `requests`: the CLI text for a never-seen
/// coverage request, a full replay of the fault for `detects`.
fn offline_answers(
    requests: &[&Req],
    traces: &[CompiledTrace],
) -> Result<Vec<(Req, Expected)>, String> {
    let mut scratch: HashMap<usize, MemoryArray> = HashMap::new();
    let mut out = Vec::with_capacity(requests.len());
    for &req in requests {
        let want = match req {
            Req::Read(i) => {
                return Err(format!("working-set read {i} was not precomputed"))
            }
            Req::Write(test, g) => Expected::Text(offline_coverage(test, *g, 1)?),
            Req::Detects(i, spec) => {
                let g = ws_geometry(*i);
                let fault = FaultKind::parse_spec(spec, &g)?;
                let array = scratch.entry(*i).or_insert_with(|| MemoryArray::new(g));
                Expected::Detected(traces[*i].detect_full(fault, array))
            }
        };
        out.push((req.clone(), want));
    }
    Ok(out)
}

/// A running daemon (or router plus shards) started from this binary.
struct Daemon {
    child: Child,
    /// Held open so the daemon's exit summary has somewhere to go.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
    /// The daemon's pid, then its shards' pids.
    pids: Vec<u32>,
}

impl Daemon {
    fn start(routed: bool) -> Result<Daemon, String> {
        let mut cmd = Command::new(crate::own_exe());
        cmd.args(["serve", "--addr", "127.0.0.1:0"]);
        if routed {
            cmd.args(["--shards", "2"]);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut stdout = BufReader::new(stdout);
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addr = banner
            .strip_prefix("mbist-service listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        let pid = child.id();
        let mut daemon = Daemon {
            child,
            _stdout: stdout,
            addr: "127.0.0.1:0".parse().expect("addr"),
            pids: vec![pid],
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => daemon.addr = addr,
            _ => return Err(format!("daemon printed no address: {banner:?}")),
        }
        // Shards are spawned before the router announces its address.
        daemon.pids.extend(children_of(pid));
        Ok(daemon)
    }

    fn cpu_ms(&self) -> f64 {
        self.pids.iter().filter_map(|p| cpu_ms(&p.to_string())).sum()
    }

    fn peak_rss_mb(&self) -> f64 {
        self.pids.iter().filter_map(|p| peak_rss_mb(&p.to_string())).sum()
    }

    /// Graceful shutdown; waits for the daemon (and through it, the
    /// shards) to exit.
    fn stop(mut self) -> Result<(), String> {
        let result = Conn::open(self.addr, Wire::Json)
            .and_then(|mut c| c.call(&Json::obj(vec![("kind", Json::str("shutdown"))])))
            .map(drop);
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return result;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("daemon did not exit within 30 s of shutdown".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(Some(_)) = self.child.try_wait() {
            return;
        }
        // Not stopped gracefully: kill the shards, then the daemon.
        for pid in self.pids.iter().skip(1) {
            let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[derive(Clone, Copy)]
enum Wire {
    Json,
    Binary,
}

struct Conn {
    wire: Wire,
    /// Whether `send` and `recv` time the encode and decode spans.
    traced: bool,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
    frame: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr, wire: Wire) -> Result<Conn, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            wire,
            traced: false,
            reader: BufReader::new(stream),
            writer,
            line: String::new(),
            frame: Vec::new(),
        })
    }

    /// Sends one request; returns the encode time in ms (0 untraced).
    fn send(&mut self, request: &Json) -> Result<f64, String> {
        let (bytes, encode_ms) = span(self.traced, || match self.wire {
            Wire::Json => {
                let mut line = request.to_string();
                line.push('\n');
                line.into_bytes()
            }
            Wire::Binary => binary::encode_frame(request),
        });
        self.writer.write_all(&bytes).map_err(|e| format!("send: {e}"))?;
        Ok(encode_ms)
    }

    /// Receives one reply; returns it with its decode time in ms (0
    /// untraced).
    fn recv(&mut self) -> Result<(Json, f64), String> {
        match self.wire {
            Wire::Json => {
                self.line.clear();
                let n = self
                    .reader
                    .read_line(&mut self.line)
                    .map_err(|e| format!("recv: {e}"))?;
                if n == 0 {
                    return Err("connection closed".into());
                }
                let (value, decode_ms) =
                    span(self.traced, || Json::parse(self.line.trim_end()));
                Ok((value.map_err(|e| format!("reply: {e}"))?, decode_ms))
            }
            Wire::Binary => {
                let mut header = [0u8; binary::HEADER_BYTES];
                self.reader.read_exact(&mut header).map_err(|e| format!("recv: {e}"))?;
                let len = u32::from_le_bytes([header[2], header[3], header[4], header[5]])
                    as usize;
                if len > binary::MAX_FRAME_BYTES {
                    return Err(format!("reply frame of {len} bytes"));
                }
                self.frame.clear();
                self.frame.extend_from_slice(&header);
                self.frame.resize(binary::HEADER_BYTES + len, 0);
                self.reader
                    .read_exact(&mut self.frame[binary::HEADER_BYTES..])
                    .map_err(|e| format!("recv: {e}"))?;
                let (value, decode_ms) =
                    span(self.traced, || binary::decode_frame(&self.frame));
                match value {
                    Ok(Some((value, _))) => Ok((value, decode_ms)),
                    Ok(None) => Err("truncated reply frame".into()),
                    Err(e) => Err(format!("reply frame: {e}")),
                }
            }
        }
    }

    fn call(&mut self, request: &Json) -> Result<Json, String> {
        self.send(request)?;
        Ok(self.recv()?.0)
    }
}

/// Runs `f`, timing it in ms only when `traced`.
fn span<T>(traced: bool, f: impl FnOnce() -> T) -> (T, f64) {
    if traced {
        crate::stats::timed(f)
    } else {
        (f(), 0.0)
    }
}

fn status(conn: &mut Conn) -> Result<Json, String> {
    let reply = conn.call(&Json::obj(vec![("kind", Json::str("status"))]))?;
    reply
        .get("status")
        .cloned()
        .ok_or_else(|| format!("status reply without status: {reply}"))
}

fn num(v: &Json, path: &[&str]) -> f64 {
    let mut cur = v;
    for key in path {
        match cur.get(key) {
            Some(next) => cur = next,
            None => return 0.0,
        }
    }
    cur.as_f64().unwrap_or(0.0)
}

/// One reply as the client saw it.
struct Record {
    req: Req,
    latency_ms: f64,
    text: Option<String>,
    detected: Option<bool>,
}

#[derive(Default)]
struct ClientLog {
    records: Vec<Record>,
    /// Error, busy and timeout replies.
    failed: usize,
    errors: Vec<String>,
    encode_ms: f64,
    decode_ms: f64,
}

/// Draws the next request of the mix.
fn next_request(
    rng: &mut Rng,
    novel: &[(&'static str, MemGeometry)],
    next_novel: &AtomicUsize,
) -> Req {
    let roll = rng.below(100);
    if roll < READ_PCT {
        return Req::Read(rng.below(WORKING_SET.len() as u64) as usize);
    }
    if roll < READ_PCT + DETECTS_PCT {
        let i = rng.below(WORKING_SET.len() as u64) as usize;
        let g = ws_geometry(i);
        let kind = FAULT_KINDS[rng.below(FAULT_KINDS.len() as u64) as usize];
        let addr = rng.below(g.words());
        let bit = rng.below(u64::from(g.width()));
        return Req::Detects(i, format!("{kind}@0x{addr:x}.{bit}"));
    }
    let k = next_novel.fetch_add(1, Ordering::Relaxed);
    // Past the end of the list the pairs repeat (cache hits); the list is
    // sized so a run does not get there.
    let (test, geometry) = novel[k % novel.len()];
    Req::Write(test, geometry)
}

/// One connection's closed loop: requests back to back, one in flight,
/// until `deadline` (at least one).
fn client(
    conn: &mut Conn,
    rng: &mut Rng,
    deadline: Instant,
    novel: &[(&'static str, MemGeometry)],
    next_novel: &AtomicUsize,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut id = 0u64;
    while id == 0 || Instant::now() < deadline {
        let req = next_request(rng, novel, next_novel);
        id += 1;
        let sent = Instant::now();
        let exchange = conn.send(&req.to_json(id)).and_then(|encode_ms| {
            let (reply, decode_ms) = conn.recv()?;
            Ok((reply, encode_ms, decode_ms))
        });
        let (reply, encode_ms, decode_ms) = match exchange {
            Ok(r) => r,
            Err(e) => {
                log.errors.push(e);
                return log;
            }
        };
        let latency_ms = ms_since(sent);
        log.encode_ms += encode_ms;
        log.decode_ms += decode_ms;
        if reply.get("id").and_then(Json::as_u64) != Some(id) {
            log.errors
                .push(format!("reply to the wrong request: want id {id}, got {reply}"));
            return log;
        }
        if reply.get("ok").and_then(Json::as_bool) == Some(true) {
            log.records.push(Record {
                req,
                latency_ms,
                text: reply.get("text").and_then(Json::as_str).map(String::from),
                detected: reply.get("detected").and_then(Json::as_bool),
            });
        } else {
            log.failed += 1;
            let class =
                reply.get("error").and_then(|e| e.get("class")).and_then(Json::as_str);
            if !matches!(class, Some("busy" | "timeout")) {
                log.errors.push(format!("{req:?} failed: {reply}"));
            }
        }
    }
    log
}

impl ClientLog {
    fn extend(&mut self, other: ClientLog) {
        self.records.extend(other.records);
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.encode_ms += other.encode_ms;
        self.decode_ms += other.decode_ms;
    }
}

const KINDS: [&str; 2] = ["coverage", "detects"];

/// `path` summed over the statuses of the serving processes.
fn total(statuses: &[Json], path: &[&str]) -> f64 {
    statuses.iter().map(|s| num(s, path)).sum()
}

/// Server latency recorded for `kind`, in µs (count × mean).
fn latency_us(statuses: &[Json], kind: &str) -> f64 {
    statuses
        .iter()
        .map(|s| {
            num(s, &["kinds", kind, "latency", "count"])
                * num(s, &["kinds", kind, "latency", "mean_us"])
        })
        .sum()
}

/// The statuses of the serving processes at one moment.
struct Statuses {
    /// The daemon's own, or each shard's behind the router.
    serving: Vec<Json>,
    /// The router's, when routed.
    router: Option<Json>,
    /// The shards' addresses, which the router's status lists.
    shards: Vec<SocketAddr>,
}

fn server_statuses(conn: &mut Conn) -> Result<Statuses, String> {
    let top = status(conn)?;
    let Some(router) = top.get("router").cloned() else {
        return Ok(Statuses { serving: vec![top], router: None, shards: Vec::new() });
    };
    let (mut shards, mut addrs) = (Vec::new(), Vec::new());
    if let Some(Json::Arr(list)) = router.get("shards") {
        for shard in list {
            let addr: SocketAddr = shard
                .get("addr")
                .and_then(Json::as_str)
                .and_then(|a| a.parse().ok())
                .ok_or_else(|| format!("router status without shard address: {shard}"))?;
            shards.push(status(&mut Conn::open(addr, Wire::Json)?)?);
            addrs.push(addr);
        }
    }
    Ok(Statuses { serving: shards, router: Some(router), shards: addrs })
}

/// Caches every working-set result and trace: one `coverage` and one
/// `detects` per entry.
fn warm_up(conn: &mut Conn) -> Result<(), String> {
    for i in 0..WORKING_SET.len() {
        for req in [Req::Read(i), Req::Detects(i, "sa0@0x0.0".into())] {
            let reply = conn.call(&req.to_json(0))?;
            if reply.get("ok").and_then(Json::as_bool) != Some(true) {
                return Err(format!("warm-up {req:?} failed: {reply}"));
            }
        }
    }
    Ok(())
}

/// One `setup_s` sample, in seconds: a daemon (or router and shards)
/// started, its working set warmed up, then shut down (not timed).
fn setup_sample(routed: bool) -> Result<f64, String> {
    let start = Instant::now();
    let daemon = Daemon::start(routed)?;
    warm_up(&mut Conn::open(daemon.addr, Wire::Json)?)?;
    let secs = start.elapsed().as_secs_f64();
    daemon.stop()?;
    Ok(secs)
}

/// One closed-loop phase over both connections, run in `SEGMENT`-long
/// segments until `seconds` have been measured. Each segment ends when
/// every request sent in it is answered and is one slice; `between` runs
/// after each segment, outside the measured time. Returns the merged log,
/// the slices and each slice's latency tail: a run of ~100K requests puts
/// its own tail at the 99.99th percentile, where a few stalls decide it
/// from run to run, while a slice's (a few thousand requests) is near the
/// 99.7th.
#[allow(clippy::too_many_arguments)]
fn phase(
    conns: &mut [Conn; 2],
    rngs: &mut [Rng; 2],
    seconds: f64,
    novel: &[(&'static str, MemGeometry)],
    next_novel: &AtomicUsize,
    daemon: &Daemon,
    traced: bool,
    mut between: impl FnMut(),
) -> (ClientLog, Vec<Slice>, Vec<Tail>) {
    for conn in conns.iter_mut() {
        conn.traced = traced;
    }
    let mut merged = ClientLog::default();
    let (mut slices, mut tails) = (Vec::new(), Vec::new());
    let mut measured = 0.0;
    while measured < seconds {
        let start = Instant::now();
        let deadline = start + SEGMENT.min(Duration::from_secs_f64(seconds - measured));
        let cpu = daemon.cpu_ms();
        let [a, b] = conns.each_mut();
        let [ra, rb] = rngs.each_mut();
        let logs = std::thread::scope(|s| {
            let ha = s.spawn(|| client(a, ra, deadline, novel, next_novel));
            let hb = s.spawn(|| client(b, rb, deadline, novel, next_novel));
            [ha.join().expect("client thread"), hb.join().expect("client thread")]
        });
        let mut slice = Slice {
            secs: start.elapsed().as_secs_f64(),
            cpu_ms: daemon.cpu_ms() - cpu,
            ..Slice::default()
        };
        measured += slice.secs;
        let latencies: Vec<f64> =
            logs.iter().flat_map(|log| &log.records).map(|r| r.latency_ms).collect();
        if !latencies.is_empty() {
            tails.push(tail(&latencies));
        }
        for mut log in logs {
            slice.ops += (log.records.len() + log.failed) as f64;
            for r in &log.records {
                match reply_faults(r) {
                    Ok(faults) => slice.faults += faults,
                    Err(e) => log.errors.push(format!("serve reply to {:?}: {e}", r.req)),
                }
                if !matches!(r.req, Req::Detects(..)) {
                    slice.candidates += 1.0;
                }
            }
            merged.extend(log);
        }
        slices.push(slice);
        between();
    }
    (merged, slices, tails)
}

/// The two clients' request generators for a phase seeded with `seed`.
fn client_rngs(seed: u64) -> [Rng; 2] {
    [Rng::new(seed ^ 0xa), Rng::new(seed ^ 0xb)]
}

/// Fault verdicts in a reply: the coverage report's fault total, or one.
fn reply_faults(record: &Record) -> Result<f64, String> {
    match (&record.req, &record.text) {
        (Req::Detects(..), _) => Ok(1.0),
        (_, Some(text)) => Ok(check::coverage_totals(text)?.1 as f64),
        (_, None) => Err("coverage reply carries no text".into()),
    }
}

/// The router hop, in ms: the median time of a cached working-set read
/// through the router minus that of the same read sent straight to a
/// shard, over one JSON connection each, one request in flight. Every
/// shard is warmed up first, so both paths answer from a result cache.
/// Each reply must equal the offline text.
fn router_hop_ms(
    router: SocketAddr,
    shards: &[SocketAddr],
    expected: &HashMap<Req, Expected>,
) -> Result<f64, String> {
    let mut via = Conn::open(router, Wire::Json)?;
    let mut direct = Vec::new();
    for &addr in shards {
        let mut conn = Conn::open(addr, Wire::Json)?;
        warm_up(&mut conn)?;
        direct.push(conn);
    }
    if direct.is_empty() {
        return Err("router status lists no shards".into());
    }
    let (mut routed_ms, mut direct_ms) = (Vec::new(), Vec::new());
    let call = |conn: &mut Conn, req: &Req, out: &mut Vec<f64>| -> Result<(), String> {
        let (reply, ms) = timed(|| conn.call(&req.to_json(1)));
        let reply = reply?;
        out.push(ms);
        let text = reply.get("text").and_then(Json::as_str);
        check::serve_reply(&format!("router-hop probe {req:?}"), text, None, &expected[req])
    };
    for round in 0..HOP_PROBES {
        for i in 0..WORKING_SET.len() {
            let req = Req::Read(i);
            let shard = &mut direct[(round + i) % shards.len()];
            call(&mut via, &req, &mut routed_ms)?;
            call(shard, &req, &mut direct_ms)?;
        }
    }
    Ok(median(&routed_ms) - median(&direct_ms))
}

pub fn run(args: &Args, routed: bool) -> Report {
    let mut report = Report::default();
    if let Err(e) = run_into(args, routed, &mut report) {
        report.errors.push(e);
    }
    report
}

fn run_into(args: &Args, routed: bool, report: &mut Report) -> Result<(), String> {
    // Offline answers for the working set, and the never-seen geometries.
    let mut expected: HashMap<Req, Expected> = HashMap::new();
    let mut traces = Vec::new();
    for (i, &(test, ..)) in WORKING_SET.iter().enumerate() {
        expected.insert(
            Req::Read(i),
            Expected::Text(offline_coverage(test, ws_geometry(i), 0)?),
        );
        let t = library::by_name(test).ok_or_else(|| format!("unknown test {test}"))?;
        let g = ws_geometry(i);
        traces.push(CompiledTrace::compile(&t, &g, &ExpandOptions::for_geometry(&g)));
    }
    let mut rng = Rng::new(args.seed);
    let mut novel: Vec<(&'static str, MemGeometry)> = NOVEL_WORDS
        .flat_map(|words| NOVEL_WIDTHS.map(|width| MemGeometry::new(words, width, 1)))
        .filter(|g| (0..WORKING_SET.len()).all(|i| ws_geometry(i) != *g))
        .flat_map(|g| NOVEL_TESTS.map(|test| (test, g)))
        .collect();
    rng.shuffle(&mut novel);
    let next_novel = AtomicUsize::new(0);

    let daemon = Daemon::start(routed)?;
    let mut conns =
        [Conn::open(daemon.addr, Wire::Json)?, Conn::open(daemon.addr, Wire::Binary)?];
    // Every working-set trace and result is cached before timing.
    warm_up(&mut conns[0])?;

    // `setup_s` samples sit between the untraced phase's segments.
    let mut setup = Setup::default();
    let mut setup_errors = Vec::new();
    setup.sample(|| setup_sample(routed), &mut setup_errors);
    let mut rngs = client_rngs(args.seed);
    let (log, slices, tails) = phase(
        &mut conns,
        &mut rngs,
        args.seconds,
        &novel,
        &next_novel,
        &daemon,
        false,
        || {
            if setup.due() {
                setup.sample(|| setup_sample(routed), &mut setup_errors);
            }
        },
    );
    report.setup_s = setup.finish(|| setup_sample(routed), &mut setup_errors);
    report.errors.extend(setup_errors);
    let ops_per_s = |log: &ClientLog, slices: &[Slice]| {
        (log.records.len() + log.failed) as f64 / slices.iter().map(|s| s.secs).sum::<f64>()
    };
    let untraced_ops_per_s = ops_per_s(&log, &slices);
    report.slices = slices;
    if !tails.is_empty() {
        report.tail = Some(median_tail(&tails));
    }
    let mut logs = vec![log];

    if args.trace {
        let Statuses { serving: before, router: router_before, .. } =
            server_statuses(&mut conns[0])?;
        let mut rngs = client_rngs(args.seed ^ 0x7ace_0000);
        let (log, slices, _) = phase(
            &mut conns,
            &mut rngs,
            args.seconds,
            &novel,
            &next_novel,
            &daemon,
            true,
            || {},
        );
        let Statuses { serving: after, router: router_after, shards } =
            server_statuses(&mut conns[0])?;
        let hop_ms = if routed {
            Some(router_hop_ms(daemon.addr, &shards, &expected)?)
        } else {
            None
        };
        let ledger = &mut report.ledger;
        ledger.set("trace.overhead_ratio", untraced_ops_per_s / ops_per_s(&log, &slices));
        // Client spans and the reconciliation are per request: the phase is
        // time-bound, so its totals would grow with throughput.
        let requests = log.records.len().max(1) as f64;
        ledger.set("client.encode.ms", log.encode_ms / requests);
        ledger.set("client.decode.ms", log.decode_ms / requests);
        let delta = |path: &[&str]| total(&after, path) - total(&before, path);
        let ratio = |hits: f64, misses: f64| hits / (hits + misses).max(1.0);
        ledger.set(
            "service.cache.trace_hit_ratio",
            ratio(delta(&["cache", "trace_hits"]), delta(&["cache", "trace_misses"])),
        );
        ledger.set(
            "service.cache.result_hit_ratio",
            ratio(delta(&["cache", "result_hits"]), delta(&["cache", "result_misses"])),
        );
        ledger.set("service.queue.rejected_busy", delta(&["queue", "rejected_busy"]));
        ledger.set("service.cache.bytes", total(&after, &["cache", "bytes"]));
        // The daemon's histograms are cumulative: per-kind p50s are read
        // after the phase, weighted by each process's request count.
        for (kind, exec_name, latency_name) in [
            (
                "coverage",
                "service.kind.coverage.exec_p50_us",
                "service.kind.coverage.latency_p50_us",
            ),
            (
                "detects",
                "service.kind.detects.exec_p50_us",
                "service.kind.detects.latency_p50_us",
            ),
        ] {
            let weight = total(&after, &["kinds", kind, "latency", "count"]);
            let weighted = |field: &str| {
                after
                    .iter()
                    .map(|s| {
                        num(s, &["kinds", kind, "latency", "count"])
                            * num(s, &["kinds", kind, field, "p50_us"])
                    })
                    .sum::<f64>()
                    / weight.max(1.0)
            };
            ledger.set(exec_name, weighted("exec"));
            ledger.set(latency_name, weighted("latency"));
        }
        // Reconciliation: client time per request = encode + decode +
        // server latency + residual (wire, reactor and, when routed, the
        // router hop).
        let server_us: f64 =
            KINDS.iter().map(|k| latency_us(&after, k) - latency_us(&before, k)).sum();
        let client_ms = log.records.iter().map(|r| r.latency_ms).sum::<f64>() / requests;
        let layers = (log.encode_ms + log.decode_ms + server_us / 1e3) / requests;
        ledger.set("reconcile.layer_sum.ms", layers);
        ledger.set("reconcile.total.ms", client_ms);
        ledger.set("reconcile.residual_share", (client_ms - layers) / client_ms);
        ledger.set("service.network_residual.ms", client_ms - layers);
        if let (Some(rb), Some(ra), Some(hop_ms)) = (router_before, router_after, hop_ms) {
            ledger.set("router.residual.ms", hop_ms);
            ledger.set(
                "router.forwarded",
                num(&ra, &["forwarded"]) - num(&rb, &["forwarded"]),
            );
            ledger.set("router.shed", num(&ra, &["shed"]) - num(&rb, &["shed"]));
            for (k, name) in
                ["router.shard.0.requests", "router.shard.1.requests"].iter().enumerate()
            {
                let requests = |list: &[Json]| {
                    list.get(k).map_or(0.0, |s| {
                        KINDS.iter().map(|kind| num(s, &["kinds", kind, "requests"])).sum()
                    })
                };
                ledger.set(name, requests(&after) - requests(&before));
            }
        }
        logs.push(log);
    }
    report.peak_rss_mb = daemon.peak_rss_mb();
    daemon.stop()?;

    // Metrics of the untraced phase; every reply of every phase checked.
    let log = &logs[0];
    report.failed = log.failed as u64;
    report.attempted = log.records.len() as u64 + report.failed;
    report.passes = 1;
    for r in &log.records {
        report.latencies_ms.push(r.latency_ms);
        // A reply whose totals do not parse was reported by `phase`.
        if let (Req::Read(_) | Req::Write(..), Some(Ok((detected, total)))) =
            (&r.req, r.text.as_deref().map(check::coverage_totals))
        {
            report.coverage.push(detected as f64 / total.max(1) as f64);
            let t = library::by_name(r.req.test()).ok_or("unknown test")?;
            report.ops_per_cell.push(t.ops_per_cell() as f64);
        }
    }
    // Offline answers for the requests not precomputed, on two threads.
    let mut seen = HashSet::new();
    let todo: Vec<&Req> = logs
        .iter()
        .flat_map(|log| &log.records)
        .map(|r| &r.req)
        .filter(|req| !expected.contains_key(req) && seen.insert(*req))
        .collect();
    let half = todo.len().div_ceil(2);
    let answers = std::thread::scope(|s| {
        let workers: Vec<_> = todo
            .chunks(half.max(1))
            .map(|chunk| s.spawn(|| offline_answers(chunk, &traces)))
            .collect();
        workers.into_iter().map(|w| w.join().expect("check thread")).collect::<Vec<_>>()
    });
    for answer in answers {
        expected.extend(answer?);
    }
    for log in &logs {
        report.errors.extend(log.errors.iter().cloned());
        for r in &log.records {
            let what = format!("serve reply to {:?}", r.req);
            if let Err(e) =
                check::serve_reply(&what, r.text.as_deref(), r.detected, &expected[&r.req])
            {
                report.errors.push(e);
            }
        }
    }
    Ok(())
}
