//! `serve_hot` and `serve_churn`: heuristic SOLVE traffic against a release
//! `fbb serve` daemon over one connection — windowed closed-loop bursts
//! (`pass_s`, `op_ms`, `op_tail_ms`, `max_rate_per_s`, from the bursts the
//! host's other guests disturbed least), then seeded Poisson arrivals at a
//! ladder of offered rates.
//!
//! Hot: the seven ILP-tractable designs, uniform draws, default cache —
//! every design stays loaded. Churn: all nine Table 1 designs with Zipf
//! popularity against `--cache-designs 4`; a SOLVE answered "not loaded" is
//! followed by a LOAD of the inline bytes and a retry, and that request's
//! latency includes both.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use fbb::bench::prepare_design;
use fbb::core::{Granularity, TwoPassHeuristic};
use fbb::db::DesignDb;
use fbb::netlist::suite;
use fbb::serve::protocol::code;
use fbb::serve::{
    design_hash, Client, ClientError, Request, ResponseBody, SolveReply, SolveRequest,
};

use crate::oracle::{Die, Oracle};
use crate::report::{peak_rss_mb, Outcome};
use crate::{stats, Config, LayerMetrics, SplitMix};

/// Which traffic to drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Working set fits the cache.
    Hot,
    /// Zipf over all nine designs against a four-design cache.
    Churn,
}

/// β values every design is compiled at.
const BETAS: [f64; 2] = [0.05, 0.10];
/// Cluster budgets drawn per request.
const CLUSTERS: [u64; 2] = [2, 3];
/// Client connections (one thread each).
const CONNECTIONS: usize = 1;
/// Daemon solver workers (`fbb serve --workers`). With one worker, the
/// worker, the connection's reader thread and the client thread fit the
/// host's two cores; two workers made the scheduler, not the daemon, set
/// the burst times.
const WORKERS: usize = 1;
/// SOLVEs the connection keeps in flight in a closed-loop burst: enough
/// to keep the worker's queue from running dry.
const WINDOW: usize = 4;
/// Share of the measurement time spent on bursts; the open-loop ladder
/// gets the rest.
const BURST_SHARE: f64 = 0.7;
/// Fewest bursts the end-to-end figures come from (see [`quietest`]).
const MIN_QUIET: usize = 3;

/// Traffic shape of one mode.
struct Plan {
    designs: Vec<&'static str>,
    cache_designs: Option<usize>,
    /// Offered rates of the ladder, ascending, requests per second.
    ladder: [f64; 4],
    /// Index into `ladder` of the main rate: the longest step, whose
    /// open-loop p50 and p99 are reported as `serve.p50_ms`/`serve.p99_ms`.
    main: usize,
    /// p99 limit of a sustainable rate, ms.
    p99_limit_ms: f64,
    /// Requests in one closed-loop burst (`pass_s`).
    burst: usize,
    /// Set-ups per run; `setup_s` is their median.
    setups: usize,
}

fn plan(mode: Mode) -> Plan {
    match mode {
        Mode::Hot => Plan {
            designs: suite::ilp_tractable_names().to_vec(),
            cache_designs: None,
            ladder: [200.0, 400.0, 600.0, 1200.0],
            main: 0,
            p99_limit_ms: 100.0,
            burst: 500,
            setups: 9,
        },
        Mode::Churn => Plan {
            designs: suite::PAPER_TABLE1.iter().map(|s| s.name).collect(),
            cache_designs: Some(4),
            ladder: [50.0, 100.0, 200.0, 600.0],
            main: 1,
            p99_limit_ms: 500.0,
            burst: 300,
            setups: 5,
        },
    }
}

/// One compiled design: its `.fbb` bytes and their cache key.
struct Image {
    name: &'static str,
    bytes: Vec<u8>,
    hash: u64,
}

/// The local twin of an [`Image`]: the same bytes decoded in-process.
struct Compiled {
    db: DesignDb,
    decode_ms: f64,
}

/// One request: design index, β index, cluster index.
#[derive(Debug, Clone, Copy)]
struct Req {
    design: usize,
    beta: usize,
    clusters: usize,
}

impl Req {
    fn key(self) -> usize {
        (self.design * BETAS.len() + self.beta) * CLUSTERS.len() + self.clusters
    }
}

/// The in-process answer a reply must equal bit for bit.
struct ExpectedReply {
    leakage_bits: u64,
    assignment: Vec<u64>,
    dcrit_ps: f64,
    solve_ms: f64,
}

/// A spawned `fbb serve` process; killed and reaped on drop if not shut
/// down cleanly first.
struct Daemon {
    child: Option<Child>,
    addr: String,
}

impl Daemon {
    fn start(bin: &str, cache_designs: Option<usize>) -> Result<Daemon, String> {
        let mut cmd = Command::new(bin);
        cmd.args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            &WORKERS.to_string(),
        ]);
        if let Some(c) = cache_designs {
            cmd.args(["--cache-designs", &c.to_string()]);
        }
        let mut child = cmd
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {bin} serve: {e}"))?;
        let stdout = child.stdout.take().ok_or("no daemon stdout")?;
        let mut daemon = Daemon {
            child: Some(child),
            addr: String::new(),
        };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("daemon stdout: {e}"))?;
        daemon.addr = line
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or_else(|| format!("unexpected daemon banner {line:?}"))?
            .to_owned();
        Ok(daemon)
    }

    fn pid(&self) -> String {
        self.child
            .as_ref()
            .map_or_else(|| "self".to_owned(), |c| c.id().to_string())
    }

    /// SHUTDOWN, then wait for the drain; kill if it does not exit.
    fn stop(mut self) {
        if let Ok(mut c) = Client::connect(&self.addr) {
            let _ = c.shutdown();
        }
        if let Some(mut child) = self.child.take() {
            let deadline = Instant::now() + Duration::from_secs(10);
            while Instant::now() < deadline {
                if let Ok(Some(_)) = child.try_wait() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Times of one set-up, for the traced run.
#[derive(Default)]
struct SetupTimes {
    prepare_ms: f64,
    characterize_ms: f64,
    build_ms: f64,
    encode_ms: f64,
    load_ms: Vec<f64>,
}

/// Compiles every design, starts the daemon, LOADs every design and sends
/// one warm-up SOLVE per request kind.
fn setup(cfg: &Config, p: &Plan) -> Result<(Vec<Image>, Daemon, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let mut images = Vec::new();
    for &name in &p.designs {
        let t = Instant::now();
        let d = prepare_design(name);
        times.prepare_ms += t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let db = DesignDb::build(
            "perfbench",
            &d.netlist,
            &d.placement,
            &d.characterization,
            &BETAS,
            &[Granularity::Row],
            3,
        )
        .map_err(|e| format!("compile {name}: {e}"))?;
        times.build_ms += t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let bytes = db.encode_to_vec();
        images.push(Image {
            name,
            hash: design_hash(&bytes),
            bytes,
        });
        times.encode_ms += t.elapsed().as_secs_f64() * 1e3;
    }
    // prepare_design characterizes once per design; time one on its own.
    let t = Instant::now();
    let _ = fbb::device::Library::date09_45nm().characterize(
        &fbb::device::BodyBiasModel::date09_45nm(),
        &fbb::device::BiasLadder::date09().map_err(|e| e.to_string())?,
    );
    times.characterize_ms = t.elapsed().as_secs_f64() * 1e3;
    let daemon = Daemon::start(&cfg.fbb_bin, p.cache_designs)?;
    let mut client = Client::connect(&daemon.addr).map_err(|e| format!("connect: {e}"))?;
    for image in &images {
        let t = Instant::now();
        client
            .load_bytes(&image.bytes)
            .map_err(|e| format!("warm-up LOAD {}: {e}", image.name))?;
        times.load_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    for image in &images {
        for beta in BETAS {
            for clusters in CLUSTERS {
                let req = solve_request(image.hash, beta, clusters);
                solve_or_reload(&mut client, req, &image.bytes)
                    .map_err(|e| format!("warm-up SOLVE {}: {e}", image.name))?;
            }
        }
    }
    Ok((images, daemon, times))
}

fn solve_request(hash: u64, beta: f64, clusters: u64) -> SolveRequest {
    SolveRequest {
        design_hash: hash,
        granularity: 1,
        beta,
        clusters,
        budget_ms: 0,
        flags: 0,
    }
}

/// SOLVE; on "not loaded", LOAD the inline bytes and retry once. Returns
/// the reply and the LOAD round trip when one was needed.
fn solve_or_reload(
    client: &mut Client,
    req: SolveRequest,
    bytes: &[u8],
) -> Result<(SolveReply, Option<f64>), ClientError> {
    match client.solve(req.clone()) {
        Err(ClientError::Remote { message, .. }) if message.contains("not loaded") => {
            let t = Instant::now();
            client.load_bytes(bytes)?;
            let load_ms = t.elapsed().as_secs_f64() * 1e3;
            client.solve(req).map(|r| (r, Some(load_ms)))
        }
        other => other.map(|r| (r, None)),
    }
}

/// What one phase of traffic measured.
#[derive(Default)]
struct Phase {
    /// Latency from due time to reply, ms.
    latency_ms: Vec<f64>,
    /// Send-to-reply time of requests served without a reload, with the
    /// request kind, ms.
    rtt_ms: Vec<(usize, f64)>,
    /// How late the generator sent requests it was idle for, ms.
    lag_ms: Vec<f64>,
    /// LOAD round trips of reloads, with the design index.
    loads: Vec<(usize, f64)>,
    /// Replies, with their request.
    replies: Vec<(Req, SolveReply)>,
    errors: Vec<String>,
    /// Send time of each request, by schedule index.
    sent: Vec<(usize, Instant)>,
    /// Requests due by the last due time but not yet sent then.
    backlog_end: usize,
    /// From the first due time to the last reply, s.
    wall_s: f64,
}

impl Phase {
    /// Records one answered request.
    fn record(
        &mut self,
        req: Req,
        due: Instant,
        send: Instant,
        reply: SolveReply,
        load: Option<f64>,
    ) {
        let done = Instant::now();
        self.latency_ms
            .push(done.duration_since(due).as_secs_f64() * 1e3);
        match load {
            Some(ms) => self.loads.push((req.design, ms)),
            None => self
                .rtt_ms
                .push((req.key(), (done - send).as_secs_f64() * 1e3)),
        }
        self.replies.push((req, reply));
    }

    fn merge(&mut self, other: Phase) {
        self.latency_ms.extend(other.latency_ms);
        self.rtt_ms.extend(other.rtt_ms);
        self.lag_ms.extend(other.lag_ms);
        self.loads.extend(other.loads);
        self.replies.extend(other.replies);
        self.errors.extend(other.errors);
        self.sent.extend(other.sent);
    }
}

/// Drives `schedule` (due offsets in seconds, ascending) over
/// [`CONNECTIONS`] connections. With `depth` 1 each connection thread takes
/// the next request, waits for its due time and sends it (the open loop).
/// With a larger `depth` each connection keeps `depth` requests in flight,
/// sending the next as soon as a reply arrives (the closed-loop burst).
fn drive(addr: &str, schedule: &[(f64, Req)], images: &[Image], depth: usize) -> Phase {
    let next = AtomicUsize::new(0);
    let merged = Mutex::new(Phase::default());
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|s| {
        for _ in 0..CONNECTIONS {
            s.spawn(|| {
                let mut local = Phase::default();
                match Client::connect(addr) {
                    Ok(mut client) if depth > 1 => {
                        windowed(&mut client, &mut local, &next, schedule, images, depth)
                    }
                    Ok(mut client) => loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&entry) = schedule.get(i) else {
                            break;
                        };
                        one(&mut client, &mut local, i, entry, start, images);
                    },
                    Err(e) => local.errors.push(format!("connect: {e}")),
                }
                merged.lock().expect("phase lock").merge(local);
            });
        }
    });
    let mut phase = merged.into_inner().expect("phase lock");
    phase.wall_s = start.elapsed().as_secs_f64();
    if let Some(&(last_s, _)) = schedule.last() {
        // The last request itself is always sent at or after its due time.
        let (last_i, last) = (schedule.len() - 1, start + Duration::from_secs_f64(last_s));
        phase.backlog_end = phase
            .sent
            .iter()
            .filter(|&&(i, t)| i != last_i && t > last)
            .count();
    }
    phase
}

/// Open loop: waits for request `i`'s due time, then SOLVEs (reloading if
/// needed) and records it.
fn one(
    client: &mut Client,
    local: &mut Phase,
    i: usize,
    (due_s, req): (f64, Req),
    start: Instant,
    images: &[Image],
) {
    let due = start + Duration::from_secs_f64(due_s);
    let now = Instant::now();
    if now < due {
        std::thread::sleep(due - now);
        local.lag_ms.push(due.elapsed().as_secs_f64() * 1e3);
    }
    let send = Instant::now();
    local.sent.push((i, send));
    let image = &images[req.design];
    let sreq = solve_request(image.hash, BETAS[req.beta], CLUSTERS[req.clusters]);
    match solve_or_reload(client, sreq, &image.bytes) {
        Ok((reply, load)) => local.record(req, due, send, reply, load),
        Err(e) => local.errors.push(format!("{}: {e}", image.name)),
    }
}

/// Closed loop: keeps `window` SOLVEs in flight, taking the next request
/// from the shared schedule as each reply arrives. A "not loaded" reply
/// stops new sends until the window drains; the held requests are then
/// LOADed and retried one by one. Each request's latency runs from its own
/// send to its final reply.
fn windowed(
    client: &mut Client,
    local: &mut Phase,
    next: &AtomicUsize,
    schedule: &[(f64, Req)],
    images: &[Image],
    window: usize,
) {
    let mut pending = std::collections::HashMap::new();
    let mut retry: Vec<(Req, Instant)> = Vec::new();
    let mut exhausted = false;
    loop {
        while !exhausted && retry.is_empty() && pending.len() < window {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(&(_, req)) = schedule.get(i) else {
                exhausted = true;
                break;
            };
            let image = &images[req.design];
            let sreq = solve_request(image.hash, BETAS[req.beta], CLUSTERS[req.clusters]);
            let send = Instant::now();
            local.sent.push((i, send));
            match client.send(&Request::Solve(sreq)) {
                Ok(id) => {
                    pending.insert(id, (req, send));
                }
                Err(e) => local.errors.push(format!("{}: {e}", image.name)),
            }
        }
        if pending.is_empty() {
            if retry.is_empty() && exhausted {
                return;
            }
            for (req, send) in retry.drain(..) {
                let image = &images[req.design];
                let sreq = solve_request(image.hash, BETAS[req.beta], CLUSTERS[req.clusters]);
                match solve_or_reload(client, sreq, &image.bytes) {
                    Ok((reply, load)) => local.record(req, send, send, reply, load),
                    Err(e) => local.errors.push(format!("{}: {e}", image.name)),
                }
            }
            continue;
        }
        let resp = match client.recv() {
            Ok(resp) => resp,
            Err(e) => {
                local
                    .errors
                    .push(format!("{} replies lost: {e}", pending.len()));
                return;
            }
        };
        let Some((req, send)) = pending.remove(&resp.request_id) else {
            local
                .errors
                .push(format!("reply to unknown request {}", resp.request_id));
            continue;
        };
        match resp.body {
            ResponseBody::Solved(reply) if resp.code == code::OK => {
                local.record(req, send, send, reply, None)
            }
            ResponseBody::Message(m) if m.contains("not loaded") => retry.push((req, send)),
            other => local.errors.push(format!(
                "{}: code {} {other:?}",
                images[req.design].name, resp.code
            )),
        }
    }
}

/// Zipf exponent of design popularity in churn traffic.
const ZIPF: f64 = 2.0;

/// Relative popularity of design `d`.
fn popularity(mode: Mode, d: usize) -> f64 {
    match mode {
        Mode::Hot => 1.0,
        Mode::Churn => ((d + 1) as f64).powf(-ZIPF),
    }
}

/// The request mix of `n` requests, in a seeded random order. Every
/// request kind (design, β, C) appears in proportion to its popularity —
/// uniform over designs (hot) or Zipf over the Table 1 order (churn),
/// uniform over β and C — with counts rounded by largest remainder.
/// Quotas instead of independent draws keep a run's mix, and so the number
/// of large-design reloads it pays, the same from seed to seed.
fn mix(rng: &mut SplitMix, mode: Mode, designs: usize, n: usize) -> Vec<Req> {
    let per_design = BETAS.len() * CLUSTERS.len();
    let weight = |d: usize| popularity(mode, d);
    let total: f64 = (0..designs).map(weight).sum::<f64>() * per_design as f64;
    let exact: Vec<f64> = (0..designs * per_design)
        .map(|k| n as f64 * weight(k / per_design) / total)
        .collect();
    let mut count: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..exact.len()).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    for &k in by_remainder.iter().take(n - count.iter().sum::<usize>()) {
        count[k] += 1;
    }
    let mut reqs = Vec::with_capacity(n);
    for (k, &c) in count.iter().enumerate() {
        let req = Req {
            design: k / per_design,
            beta: (k % per_design) / CLUSTERS.len(),
            clusters: k % CLUSTERS.len(),
        };
        reqs.extend(std::iter::repeat_n(req, c));
    }
    rng.shuffle(&mut reqs);
    reqs
}

/// Poisson arrivals at `rate` for `seconds`, or `count` requests all due
/// at once when `rate` is infinite, carrying the request mix.
fn schedule(
    rng: &mut SplitMix,
    mode: Mode,
    designs: usize,
    rate: f64,
    seconds: f64,
    count: usize,
) -> Vec<(f64, Req)> {
    let mut due = Vec::new();
    if rate.is_finite() {
        let mut t = -(1.0 - rng.unit()).ln() / rate;
        while t <= seconds {
            due.push(t);
            t += -(1.0 - rng.unit()).ln() / rate;
        }
    } else {
        due = vec![0.0; count];
    }
    let reqs = mix(rng, mode, designs, due.len());
    due.into_iter().zip(reqs).collect()
}

/// Restarts the peak-RSS (`VmHWM`) count of process `pid`; a no-op where
/// `/proc/<pid>/clear_refs` is not writable.
fn reset_peak_rss(pid: &str) {
    let _ = std::fs::write(format!("/proc/{pid}/clear_refs"), "5");
}

/// Cumulative CPU time of the whole host, from the first line of
/// `/proc/stat`.
#[derive(Clone, Copy)]
struct HostTicks {
    steal: f64,
    total: f64,
}

fn host_ticks() -> HostTicks {
    let fields: Vec<f64> = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines().next().map(|l| {
                l.split_whitespace()
                    .skip(1)
                    .take(8)
                    .filter_map(|v| v.parse().ok())
                    .collect()
            })
        })
        .unwrap_or_default();
    HostTicks {
        // user nice system idle iowait irq softirq steal
        steal: fields.get(7).copied().unwrap_or(0.0),
        total: fields.iter().sum(),
    }
}

impl HostTicks {
    /// Share of the host's CPU time since `before` that the hypervisor gave
    /// to other guests; 0 where `/proc/stat` has no steal column.
    fn steal_share_since(self, before: HostTicks) -> f64 {
        let total = self.total - before.total;
        if total > 0.0 {
            (self.steal - before.steal) / total
        } else {
            0.0
        }
    }
}

/// One closed-loop burst.
struct Burst {
    wall_s: f64,
    /// Host steal share while it ran.
    steal: f64,
    /// In-process heuristic time of its replies over its wall time.
    heuristic_share: f64,
    latency_ms: Vec<f64>,
}

/// The quietest quarter of `bursts` by host steal time (at least
/// [`MIN_QUIET`]), and every other burst as quiet as the noisiest of
/// those, in run order. On a shared VM the hypervisor takes whole
/// stretches of a run's CPU time for other guests; bursts in those
/// stretches measure the neighbours, not the daemon.
fn quietest(bursts: Vec<Burst>) -> Vec<Burst> {
    let mut steal: Vec<f64> = bursts.iter().map(|b| b.steal).collect();
    steal.sort_by(f64::total_cmp);
    let keep = (bursts.len() / 4).max(MIN_QUIET);
    let Some(&limit) = steal.get(keep.min(steal.len()).saturating_sub(1)) else {
        return bursts;
    };
    bursts.into_iter().filter(|b| b.steal <= limit).collect()
}

fn stats_map(addr: &str) -> Vec<(String, u64)> {
    Client::connect(addr)
        .and_then(|mut c| c.stats())
        .unwrap_or_default()
}

fn stat(s: &[(String, u64)], name: &str) -> f64 {
    s.iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, v)| *v as f64)
}

/// Runs a serve workload.
///
/// # Errors
///
/// Returns a message if the daemon cannot be started or set up.
pub fn run(cfg: &Config, mode: Mode) -> Result<Outcome, String> {
    if cfg.fbb_bin.is_empty() {
        return Err("serve workloads need --fbb-bin".to_owned());
    }
    let p = plan(mode);
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..p.setups {
        if let Some((_, old, _)) = last.take() {
            Daemon::stop(old);
        }
        let t = Instant::now();
        last = Some(setup(cfg, &p)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (images, daemon, times) = last.expect("at least one set-up");
    // Peak RSS of the daemon through set-up: one connection LOADs and
    // warms every design in a fixed order, so the figure is repeatable.
    let setup_rss = peak_rss_mb(&daemon.pid());

    // Local twins and the expected replies, outside every timed window.
    let compiled: Vec<Compiled> = images
        .iter()
        .map(|image| {
            let t = Instant::now();
            let db = DesignDb::decode_verified(&image.bytes).expect("own bytes decode");
            Compiled {
                db,
                decode_ms: t.elapsed().as_secs_f64() * 1e3,
            }
        })
        .collect();
    out.note(format!(
        "designs: {}",
        images
            .iter()
            .zip(&compiled)
            .map(|(i, c)| format!(
                "{} {} B decode {:.2} ms",
                i.name,
                i.bytes.len(),
                c.decode_ms
            ))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let mut oracles: Vec<Oracle> = compiled
        .iter()
        .map(|c| {
            Oracle::new(Die::new(
                &c.db.netlist,
                &c.db.placement,
                &c.db.characterization,
            ))
        })
        .collect();
    let mut expected = Vec::new();
    for c in &compiled {
        for beta in BETAS {
            for clusters in CLUSTERS {
                let pre =
                    c.db.preprocessed_for(Granularity::Row, beta, clusters as usize)
                        .expect("compiled β");
                let mut times = Vec::new();
                let mut sol = None;
                for _ in 0..5 {
                    let t = Instant::now();
                    sol = Some(
                        TwoPassHeuristic::default()
                            .solve(&pre)
                            .expect("compensable"),
                    );
                    times.push(t.elapsed().as_secs_f64() * 1e3);
                }
                let sol = sol.expect("solved");
                expected.push(ExpectedReply {
                    leakage_bits: sol.leakage_nw.to_bits(),
                    assignment: sol.assignment.iter().map(|&l| l as u64).collect(),
                    dcrit_ps: pre.dcrit_ps,
                    solve_ms: stats::median(&times),
                });
            }
        }
    }

    let mut rng = SplitMix::new(cfg.seed);
    let n = compiled.len();
    let mut check = |phase: &Phase, out: &mut Outcome| {
        out.attempted += (phase.replies.len() + phase.errors.len()) as u64;
        out.failed += phase.errors.len() as u64;
        for e in phase.errors.iter().take(3) {
            out.mismatch(format!("request failed: {e}"));
        }
        for (req, reply) in &phase.replies {
            let e = &expected[req.key()];
            let label = format!(
                "{} b{} C{}",
                images[req.design].name, BETAS[req.beta], CLUSTERS[req.clusters]
            );
            if reply.leakage_nw.to_bits() != e.leakage_bits || reply.assignment != e.assignment {
                out.mismatch(format!(
                    "{label}: reply differs from the in-process heuristic"
                ));
            }
            let assignment: Vec<usize> = reply.assignment.iter().map(|&l| l as usize).collect();
            let v = oracles[req.design].verify(BETAS[req.beta], e.dcrit_ps, &assignment);
            if !v.ok() {
                out.failed += 1;
                out.mismatch(format!(
                    "{label}: tuned Dcrit {} ps > {} ps",
                    v.tuned_dcrit_ps, v.target_ps
                ));
            }
        }
    };

    // Closed-loop bursts: everything due at once, drained as fast as the
    // connection's window goes.
    let clock = Instant::now();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    // Peak RSS of the daemon per phase of traffic (bursts and the main
    // rate). LOADs of large designs make a single phase's peak vary from
    // run to run, so this is reported per layer only, as the median over
    // phases.
    let mut rss = Vec::new();
    let bursts_s = cfg.seconds * BURST_SHARE;
    let untraced_s = if cfg.trace { bursts_s / 2.0 } else { bursts_s };
    loop {
        let t = clock.elapsed().as_secs_f64();
        let into = if untraced.len() < MIN_QUIET || t < untraced_s {
            &mut untraced
        } else if cfg.trace && (traced.len() < MIN_QUIET || t < bursts_s) {
            &mut traced
        } else {
            break;
        };
        let sched = schedule(&mut rng, mode, n, f64::INFINITY, 0.0, p.burst);
        reset_peak_rss(&daemon.pid());
        let before = host_ticks();
        let phase = drive(&daemon.addr, &sched, &images, WINDOW);
        let steal = host_ticks().steal_share_since(before);
        rss.push(peak_rss_mb(&daemon.pid()));
        check(&phase, &mut out);
        // The share of the daemon's worker that the heuristic itself
        // (timed in-process) accounts for.
        let solving: f64 = phase
            .replies
            .iter()
            .map(|(r, _)| expected[r.key()].solve_ms)
            .sum();
        into.push(Burst {
            wall_s: phase.wall_s,
            steal,
            heuristic_share: solving / (phase.wall_s * 1e3 * WORKERS as f64),
            latency_ms: phase.latency_ms,
        });
    }
    let all = untraced.len();
    let untraced = quietest(untraced);
    let pass_s: Vec<f64> = untraced.iter().map(|b| b.wall_s).collect();
    let burst_ms: Vec<f64> = untraced
        .iter()
        .flat_map(|b| b.latency_ms.iter().copied())
        .collect();
    let steal: Vec<f64> = untraced.iter().map(|b| b.steal * 100.0).collect();
    let traced = quietest(traced);

    // The open-loop ladder: ascending offered rates until one misses the
    // p99 limit or leaves a backlog; the main rate runs longest.
    let remaining = (cfg.seconds - clock.elapsed().as_secs_f64()).max(2.0);
    // The main rate gets 60 % of the time, the other steps share the rest.
    let step_s = remaining * 0.4 / (p.ladder.len() - 1) as f64;
    let mut max_rps = 0.0;
    let mut main = Phase::default();
    let mut main_stats = (Vec::new(), Vec::new());
    for (i, &rate) in p.ladder.iter().enumerate() {
        let secs = if i == p.main { remaining * 0.6 } else { step_s };
        let sched = schedule(&mut rng, mode, n, rate, secs, 0);
        let before = if i == p.main {
            stats_map(&daemon.addr)
        } else {
            Vec::new()
        };
        reset_peak_rss(&daemon.pid());
        let phase = drive(&daemon.addr, &sched, &images, 1);
        if i == p.main {
            rss.push(peak_rss_mb(&daemon.pid()));
        }
        check(&phase, &mut out);
        let p99 = stats::quantile(&phase.latency_ms, 0.99);
        let sustained = p99 <= p.p99_limit_ms
            && phase.backlog_end <= CONNECTIONS.max(sched.len() / 50)
            && phase.errors.is_empty();
        out.note(format!(
            "offered {rate} req/s for {secs:.2} s: {} requests, latency {} ms, backlog {}, {} reloads{}",
            sched.len(),
            stats::summary(&phase.latency_ms),
            phase.backlog_end,
            phase.loads.len(),
            if sustained { "" } else { " (not sustained)" }
        ));
        if i == p.main {
            main_stats = (before, stats_map(&daemon.addr));
            main = phase;
        }
        if sustained {
            max_rps = rate;
        } else if i >= p.main {
            break;
        }
    }
    Daemon::stop(daemon);

    // Replies equal the in-process answers bit for bit (checked above), so
    // the saving of the traffic is the popularity-weighted saving of the
    // request kinds.
    let (mut saved, mut weight) = (0.0, 0.0);
    for (d, c) in compiled.iter().enumerate() {
        for (b, &beta) in BETAS.iter().enumerate() {
            for (k, &clusters) in CLUSTERS.iter().enumerate() {
                let pre =
                    c.db.preprocessed_for(Granularity::Row, beta, clusters as usize)
                        .expect("compiled β");
                let base = fbb::core::single_bb(&pre).expect("compensable").leakage_nw;
                let leak = f64::from_bits(
                    expected[Req {
                        design: d,
                        beta: b,
                        clusters: k,
                    }
                    .key()]
                    .leakage_bits,
                );
                saved += popularity(mode, d) * (1.0 - leak / base) * 100.0;
                weight += popularity(mode, d);
            }
        }
    }
    let pass_med = stats::median(&pass_s);
    let (p50, p99) = (
        stats::median(&main.latency_ms),
        stats::quantile(&main.latency_ms, 0.99),
    );
    let tail = stats::top_mean(&main.latency_ms, 0.01);
    out.set("setup_s", stats::median(&setup_s), "s");
    out.set("pass_s", pass_med, "s");
    out.set("op_ms", stats::median(&burst_ms), "ms");
    out.set("op_tail_ms", stats::top_mean(&burst_ms, 0.05), "ms");
    out.set("max_rate_per_s", p.burst as f64 / pass_med, "1/s");
    out.set("savings_pct", saved / weight, "%");
    out.set("verified_frac", 1.0 - out.fail_frac(), "ratio");
    out.set("peak_rss_mb", setup_rss, "MB");
    out.note(format!("setup_s: {} s", stats::summary(&setup_s)));
    out.note(format!(
        "burst of {} requests, the quietest {} of {all} bursts: {} s; host steal {} %",
        p.burst,
        pass_s.len(),
        stats::summary(&pass_s),
        stats::summary(&steal)
    ));
    out.note(format!("burst latency: {} ms", stats::summary(&burst_ms)));
    out.note(format!(
        "serve_p50_ms {p50:.4}, serve_p99_ms {p99:.4} at {} req/s ({} samples; slowest-1 % mean {tail:.4}); serve_max_rps {max_rps} (p99 limit {} ms)",
        p.ladder[p.main],
        main.latency_ms.len(),
        p.p99_limit_ms
    ));
    let oracle_s: f64 = oracles.iter().map(|o| o.sta_s).sum();
    out.note(format!(
        "oracle: {} full STA runs, {:.1} ms",
        oracles.iter().map(|o| o.sta_runs).sum::<u64>(),
        oracle_s * 1e3
    ));

    if cfg.trace {
        let mut l = LayerMetrics::default();
        let solve_ms: Vec<f64> = main
            .rtt_ms
            .iter()
            .map(|&(k, _)| expected[k].solve_ms)
            .collect();
        let overhead: Vec<f64> = main
            .rtt_ms
            .iter()
            .map(|&(k, rtt)| rtt - expected[k].solve_ms)
            .collect();
        l.set("core.heuristic_ms", stats::median(&solve_ms));
        l.set("serve.overhead_ms", stats::median(&overhead));
        let mut load_ms: Vec<f64> = main.loads.iter().map(|l| l.1).collect();
        let mut loaded: Vec<usize> = main.loads.iter().map(|l| l.0).collect();
        if loaded.is_empty() {
            // No reloads: report the warm-up LOADs of the set-up.
            load_ms = times.load_ms.clone();
            loaded = (0..n).collect();
        }
        l.set("serve.load_ms", stats::median(&load_ms));
        l.set(
            "db.decode_verified_ms",
            loaded.iter().map(|&d| compiled[d].decode_ms).sum::<f64>() / loaded.len() as f64,
        );
        l.set(
            "db.bytes",
            loaded
                .iter()
                .map(|&d| images[d].bytes.len() as f64)
                .sum::<f64>()
                / loaded.len() as f64,
        );
        l.set(
            "serve.reload_frac",
            main.loads.len() as f64 / main.latency_ms.len().max(1) as f64,
        );
        let (before, after) = &main_stats;
        for (metric, counter) in [
            ("serve.cache_evictions", "cache_evictions"),
            ("serve.cache_hits", "cache_hits"),
            ("serve.cache_misses", "cache_misses"),
        ] {
            l.set(metric, stat(after, counter) - stat(before, counter));
        }
        l.set("serve.generator_lag_ms", stats::median(&main.lag_ms));
        l.set("serve.backlog_end", main.backlog_end as f64);
        l.set("serve.traffic_rss_mb", stats::median(&rss));
        l.set("serve.p50_ms", p50);
        l.set("serve.p99_ms", p99);
        l.set("bench.prepare_design_ms", times.prepare_ms);
        l.set("device.characterize_ms", times.characterize_ms);
        l.set("db.build_ms", times.build_ms);
        l.set("db.encode_ms", times.encode_ms);
        l.set("verify.oracle_ms", oracle_s * 1e3);
        let share: Vec<f64> = traced.iter().map(|b| b.heuristic_share).collect();
        l.set("trace.coverage_frac", stats::median(&share));
        let traced_pass_s: Vec<f64> = traced.iter().map(|b| b.wall_s).collect();
        let traced_med = stats::median(&traced_pass_s);
        l.set("trace.overhead_frac", (traced_med - pass_med) / pass_med);
        l.into_outcome(&mut out);
    }
    Ok(out)
}
