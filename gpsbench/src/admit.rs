//! Admission workloads: the real `admitd` binary as a subprocess, driven
//! by one load-generator thread on one keep-alive connection (the server
//! closes every 100th request and the client reconnects). Every decision
//! is recorded and replayed afterwards through an in-process shadow
//! `AdmissionEngine`, which must reproduce each answer and the server's
//! cache counters exactly.

use crate::http::{Client, Response};
use crate::openloop::{self, OpenLoopRun};
use crate::{stats, Outcome};
use gps_analysis::{AdmissionEngine, CacheStats, CertBackend, ClassSpec, QosTarget};
use gps_ebb::{EbbProcess, TimeModel};
use gps_obs::metrics::Registry;
use gps_stats::{RngCore, Xoshiro256pp};
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Decisions per closed-loop batch.
const BATCH: usize = 1_000;
/// `/healthz` round trips timed per cycle in a traced run.
const HEALTHZ_PER_CYCLE: u64 = 200;
/// Set-ups per run: at least `MIN_SETUPS`, then more while they take
/// under a tenth of the run, up to `MAX_SETUPS`.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 31;
/// Approximate length of one measurement cycle, and the shares of it
/// for the closed loop and for each open-loop rate.
const CYCLE_SECONDS: f64 = 2.0;
const CLOSED_SHARE: f64 = 0.4;
const OPEN_SHARE: f64 = 0.3;
/// A fill that has not rejected every class by now is broken.
const MAX_FILL: usize = 1_000_000;

/// How admitd is started and loaded.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub args: &'static [&'static str],
    pub backend: CertBackend,
    pub rate: f64,
    /// Open-loop offered loads, decisions per second.
    pub low_rate: f64,
    pub high_rate: f64,
}

pub fn params(workload: &str) -> Option<Params> {
    match workload {
        // Default admitd: decisions are answered from the certificate
        // cache, so socket, parsing, telemetry and publish dominate.
        "admit_eb" => Some(Params {
            args: &[],
            backend: CertBackend::EffectiveBandwidth,
            rate: 1.0,
            low_rate: 4_000.0,
            high_rate: 10_000.0,
        }),
        // Every admit moves the RPPS guaranteed rates, so publish's
        // headroom search makes ~200 certificate-cache lookups per decision
        // and the LRU evicts: the engine dominates.
        "admit_rpps" => Some(Params {
            args: &["--backend", "rpps", "--rate", "1000"],
            backend: CertBackend::Rpps,
            rate: 1000.0,
            low_rate: 1_500.0,
            high_rate: 4_000.0,
        }),
        _ => None,
    }
}

/// The classes `admitd` serves (its built-in defaults); the shadow engine
/// must be built with exactly these.
fn classes() -> Vec<ClassSpec> {
    vec![
        ClassSpec::new(
            "voice",
            EbbProcess::new(0.02, 1.0, 17.4),
            QosTarget::new(5.0, 1e-6),
        ),
        ClassSpec::new(
            "video",
            EbbProcess::new(0.08, 2.0, 6.0),
            QosTarget::new(10.0, 1e-4),
        ),
        ClassSpec::new(
            "data",
            EbbProcess::new(0.05, 4.0, 3.0),
            QosTarget::new(40.0, 1e-3),
        ),
        ClassSpec::new(
            "bulk",
            EbbProcess::new(0.1, 6.0, 2.0),
            QosTarget::new(120.0, 1e-2),
        ),
    ]
}

/// Where `cargo build --release -p gps-experiments --bin admitd` puts
/// the binary.
pub fn admitd_path() -> PathBuf {
    crate::target_dir().join("release").join("admitd")
}

/// A running `admitd`, killed and reaped on drop.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn spawn(bin: &Path, args: &[&str]) -> io::Result<Daemon> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        // "admitd listening on 127.0.0.1:PORT (backend ..., rate ...)"
        let addr = line
            .strip_prefix("admitd listening on ")
            .and_then(|rest| rest.split(' ').next())
            .and_then(|a| a.parse().ok());
        let daemon = Daemon {
            child,
            addr: addr.unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0))),
            _stdout: stdout,
        };
        read?;
        if addr.is_none() {
            return Err(io::Error::other(format!(
                "admitd did not announce its address: {line:?}"
            )));
        }
        Ok(daemon)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Which part of the run a decision belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Fill,
    Closed,
    Open,
}

/// One answered decision, as sent and as answered.
#[derive(Debug, Clone, Copy)]
struct Record {
    phase: Phase,
    admit: bool,
    class: u8,
    seq: u64,
    accepted: bool,
    load_bits: u64,
}

/// The load generator: one client, the seeded request stream, and the
/// record of every decision made.
struct Load {
    client: Client,
    rng: Xoshiro256pp,
    /// `paths[class][admit as usize]`, built once.
    paths: Vec<[String; 2]>,
    phase: Phase,
    records: Vec<Record>,
    requests: u64,
}

fn request(client: &mut Client, requests: &mut u64, path: &str) -> io::Result<Response> {
    *requests += 1;
    let r = client.get(path)?;
    if r.status != 200 {
        return Err(io::Error::other(format!("{path} answered {}", r.status)));
    }
    Ok(r)
}

impl Load {
    fn new(addr: SocketAddr, seed: u64) -> Load {
        Load {
            client: Client::new(addr),
            rng: Xoshiro256pp::seed_from_u64(seed),
            paths: (0..classes().len())
                .map(|k| [format!("/depart?class={k}"), format!("/admit?class={k}")])
                .collect(),
            phase: Phase::Fill,
            records: Vec::new(),
            requests: 0,
        }
    }

    fn get(&mut self, path: &str) -> io::Result<Response> {
        request(&mut self.client, &mut self.requests, path)
    }

    fn decide(&mut self, admit: bool, class: usize) -> io::Result<bool> {
        let path = &self.paths[class][usize::from(admit)];
        let body = request(&mut self.client, &mut self.requests, path)?.body;
        let record = parse_decision(&body, self.phase, admit, class)
            .ok_or_else(|| io::Error::other(format!("unparseable decision: {body}")))?;
        self.records.push(record);
        Ok(record.accepted)
    }

    /// One request of the uniform mix: any class, admit:depart = 1:1.
    fn next(&mut self) -> io::Result<()> {
        let r = self.rng.next_u64();
        let class = (r % self.paths.len() as u64) as usize;
        self.decide((r >> 32) & 1 == 0, class).map(|_| ())
    }

    /// Round-robin admits until every class has been rejected once.
    fn fill(&mut self) -> io::Result<()> {
        let n = self.paths.len();
        let mut rejected = vec![false; n];
        for i in 0..MAX_FILL {
            if !self.decide(true, i % n)? {
                rejected[i % n] = true;
                if rejected.iter().all(|&r| r) {
                    return Ok(());
                }
            }
        }
        Err(io::Error::other("fill never rejected every class"))
    }

    fn scrape(&mut self) -> io::Result<Scrape> {
        Ok(Scrape(self.get("/metrics")?.body))
    }
}

/// Reads `seq`, `accepted` and `load_bits` from admitd's decision JSON.
fn parse_decision(body: &str, phase: Phase, admit: bool, class: usize) -> Option<Record> {
    let after = |key: &str| body.find(key).map(|i| &body[i + key.len()..]);
    let seq = after("\"seq\": ")?;
    let seq = seq[..seq.find(|c: char| !c.is_ascii_digit())?]
        .parse()
        .ok()?;
    let accepted = after("\"accepted\": ")?.starts_with("true");
    let bits = after("\"load_bits\": \"")?.get(..16)?;
    Some(Record {
        phase,
        admit,
        class: u8::try_from(class).ok()?,
        seq,
        accepted,
        load_bits: u64::from_str_radix(bits, 16).ok()?,
    })
}

/// One `/metrics` exposition.
struct Scrape(String);

impl Scrape {
    /// The sample of `series` (name plus labels, as exposed); 0 when absent.
    fn value(&self, series: &str) -> f64 {
        self.0
            .lines()
            .find_map(|l| l.strip_prefix(series)?.strip_prefix(' '))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0.0)
    }

    /// Request count and total server time (ns) recorded for `route`.
    fn route(&self, route: &str) -> (f64, f64) {
        let labels = format!("{{route=\"{route}\"}}");
        (
            self.value(&format!("obs_http_request_duration_ns_count{labels}")),
            self.value(&format!("obs_http_request_duration_ns_sum{labels}")),
        )
    }
}

/// What the shadow replay found and how long the engine took.
struct Shadow {
    mismatches: u64,
    first_mismatch: Option<String>,
    /// Cache counters at the end of the replay.
    end: CacheStats,
    /// Engine time and cache work over the closed-loop decisions only,
    /// the requests the server timings are taken around.
    closed: u64,
    closed_cache: CacheStats,
    decide: Duration,
    publish: Duration,
}

/// Replays the decisions in `seq` order through an in-process engine
/// configured like `admitd` — including its publish at start-up and after
/// every decision — and compares every answer.
fn shadow_replay(p: &Params, records: &[Record]) -> io::Result<Shadow> {
    let mut engine = AdmissionEngine::new(classes(), p.rate, TimeModel::Discrete, p.backend)
        .map_err(|e| io::Error::other(format!("shadow engine: {e:?}")))?;
    let registry = Registry::new();
    engine.publish(&registry);
    let mut shadow = Shadow {
        mismatches: 0,
        first_mismatch: None,
        end: CacheStats::default(),
        closed: 0,
        closed_cache: CacheStats::default(),
        decide: Duration::ZERO,
        publish: Duration::ZERO,
    };
    for r in records {
        let before = engine.cache_stats();
        let t0 = Instant::now();
        let d = if r.admit {
            engine.admit(usize::from(r.class))
        } else {
            engine.depart(usize::from(r.class))
        };
        let t1 = Instant::now();
        engine.publish(&registry);
        let t2 = Instant::now();
        if r.phase == Phase::Closed {
            let after = engine.cache_stats();
            let c = &mut shadow.closed_cache;
            c.hits += after.hits - before.hits;
            c.misses += after.misses - before.misses;
            c.evictions += after.evictions - before.evictions;
            shadow.closed += 1;
            shadow.decide += t1 - t0;
            shadow.publish += t2 - t1;
        }
        if (d.seq, d.accepted, d.load.to_bits()) != (r.seq, r.accepted, r.load_bits) {
            shadow.mismatches += 1;
            shadow.first_mismatch.get_or_insert_with(|| {
                format!(
                    "admitd answered seq {} accepted={} load_bits={:016x}, \
                     the shadow seq {} accepted={} load_bits={:016x}",
                    r.seq,
                    r.accepted,
                    r.load_bits,
                    d.seq,
                    d.accepted,
                    d.load.to_bits()
                )
            });
        }
    }
    shadow.end = engine.cache_stats();
    Ok(shadow)
}

/// Server-side request count and time (ns) per route in `SERVER_ROUTES`,
/// summed over the scrape pairs taken around the traced phases.
const SERVER_ROUTES: [&str; 3] = ["/admit", "/depart", "/healthz"];
const ADMIT: usize = 0;
const DEPART: usize = 1;
const HEALTHZ: usize = 2;

/// Everything the timed phases produced.
#[derive(Default)]
struct Phases {
    /// Closed-loop batch times (s): `[untimed, timed request by request]`.
    batches: [Vec<f64>; 2],
    /// Summed latency and count of the individually timed requests.
    timed: (Duration, u64),
    /// `(count, ns)` per route of `SERVER_ROUTES` (traced runs only).
    server: [(f64, f64); 3],
    healthz_rtt: Duration,
    healthz_n: u64,
    low: OpenLoopRun,
    high: OpenLoopRun,
}

impl Phases {
    fn add_server(&mut self, before: &Scrape, after: &Scrape) {
        for (sum, route) in self.server.iter_mut().zip(SERVER_ROUTES) {
            let ((n0, s0), (n1, s1)) = (before.route(route), after.route(route));
            sum.0 += n1 - n0;
            sum.1 += s1 - s0;
        }
    }

    /// Mean server time (µs) of the routes with the given indices.
    fn server_us(&self, routes: &[usize]) -> f64 {
        let (n, ns) = routes.iter().fold((0.0, 0.0), |(n, ns), &i| {
            (n + self.server[i].0, ns + self.server[i].1)
        });
        ns / n / 1e3
    }
}

fn extend(into: &mut OpenLoopRun, slice: OpenLoopRun) {
    into.latencies_ns.extend(slice.latencies_ns);
    into.max_lag_ns = into.max_lag_ns.max(slice.max_lag_ns);
}

/// The timed phases, interleaved in cycles so every phase samples the
/// whole run and a slow spell of the host weighs on all of them alike:
/// a closed-loop slice, then (traced only) a `/healthz` batch, then an
/// open-loop slice at each pinned rate. Each cycle after the first
/// starts with an untimed re-fill, so every cycle starts at the edge of
/// the admissible region rather than wherever the 1:1 random walk of the
/// previous cycle left the mix: the cost of a decision depends on where
/// the mix is, and without the re-fill it would depend on the seed.
fn measure(p: &Params, load: &mut Load, seconds: f64, traced: bool) -> io::Result<Phases> {
    let cycles = (seconds / CYCLE_SECONDS).round().max(1.0) as usize;
    let slice = |share: f64| Duration::from_secs_f64(share * seconds / cycles as f64);
    let mut ph = Phases::default();
    let mut k = 0usize;
    for cycle in 0..cycles {
        if cycle > 0 {
            load.phase = Phase::Fill;
            load.fill()?;
        }
        // Closed loop: batches back to back. A traced run times every
        // other batch request by request, so the cost of timing shows.
        load.phase = Phase::Closed;
        let before = traced.then(|| load.scrape()).transpose()?;
        let until = Instant::now() + slice(CLOSED_SHARE);
        loop {
            let by_request = traced && k.is_multiple_of(2);
            let t0 = Instant::now();
            for _ in 0..BATCH {
                if by_request {
                    let t = Instant::now();
                    load.next()?;
                    ph.timed.0 += t.elapsed();
                    ph.timed.1 += 1;
                } else {
                    load.next()?;
                }
            }
            ph.batches[usize::from(by_request)].push(t0.elapsed().as_secs_f64());
            k += 1;
            if Instant::now() >= until && (!traced || k.is_multiple_of(2)) {
                break;
            }
        }
        if let Some(before) = before {
            let mid = load.scrape()?;
            ph.add_server(&before, &mid);
            for _ in 0..HEALTHZ_PER_CYCLE {
                let t = Instant::now();
                load.get("/healthz")?;
                ph.healthz_rtt += t.elapsed();
                ph.healthz_n += 1;
            }
            ph.add_server(&mid, &load.scrape()?);
        }
        load.phase = Phase::Open;
        extend(
            &mut ph.low,
            openloop::run(p.low_rate, slice(OPEN_SHARE), |_| load.next())?,
        );
        extend(
            &mut ph.high,
            openloop::run(p.high_rate, slice(OPEN_SHARE), |_| load.next())?,
        );
    }
    Ok(ph)
}

/// Runs one admission workload against `bin` for about `seconds`.
pub fn run(p: &Params, bin: &Path, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = drive(p, bin, seed, seconds, traced, &mut out) {
        out.failed += 1;
        out.attempted = out.attempted.max(out.failed);
        out.failures.push(format!("admit load: {e}"));
    }
    out
}

fn drive(
    p: &Params,
    bin: &Path,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: &mut Outcome,
) -> io::Result<()> {
    let stream_seed = Xoshiro256pp::seed_from_u64(seed).next_u64();

    // Set-up: spawn, wait until it listens, fill. Repeated so its median
    // is steady; only the last daemon is measured.
    let mut setups = Vec::new();
    let setup_start = Instant::now();
    let (daemon, mut load) = loop {
        let t0 = Instant::now();
        let daemon = Daemon::spawn(bin, p.args)?;
        let mut load = Load::new(daemon.addr, stream_seed);
        let filled = load.fill();
        setups.push(t0.elapsed().as_secs_f64());
        if filled.is_err() {
            out.attempted += load.requests;
        }
        filled?;
        if setups.len() >= MIN_SETUPS
            && (setups.len() >= MAX_SETUPS || setup_start.elapsed().as_secs_f64() >= 0.1 * seconds)
        {
            break (daemon, load);
        }
        out.attempted += load.requests;
    };

    let measured = measure(p, &mut load, seconds, traced).and_then(|ph| Ok((ph, load.scrape()?)));
    let peak_rss = crate::host::peak_rss_mb(Some(daemon.child.id()));
    drop(daemon);
    out.attempted += load.requests;
    let (ph, end) = measured?;

    // Correctness: the shadow engine reproduces every answer, and its
    // cache counters equal the ones admitd exposes.
    let shadow = shadow_replay(p, &load.records)?;
    out.failed += shadow.mismatches;
    if let Some(m) = &shadow.first_mismatch {
        out.failures.push(format!(
            "{} of {} decisions differ from the shadow engine; first: {m}",
            shadow.mismatches,
            load.records.len()
        ));
    }
    for (what, ours) in [
        ("hits", shadow.end.hits),
        ("misses", shadow.end.misses),
        ("evictions", shadow.end.evictions),
    ] {
        let theirs = end.value(&format!("admission_cache_{what}_total"));
        if theirs != ours as f64 {
            out.failures.push(format!(
                "admitd reports {theirs} cache {what}, the shadow engine {ours}"
            ));
        }
    }

    let us = |ns: u64| ns as f64 / 1e3;
    let sorted = |run: &OpenLoopRun| {
        let mut lat = run.latencies_ns.clone();
        lat.sort_unstable();
        lat
    };
    let m = &mut out.metrics;
    if !traced {
        m.insert("setup_s".into(), stats::median(&setups));
        // Decisions over the mean batch time, not the median: a decision's
        // cost depends on where the mix is, and the mean weighs every state
        // the run visits.
        m.insert(
            "ops_per_s".into(),
            BATCH as f64 / stats::mean(&ph.batches[0]),
        );
        m.insert(
            "p50_us".into(),
            us(stats::percentile_sorted(&sorted(&ph.low), 50.0)),
        );
        m.insert("peak_rss_mb".into(), peak_rss);
        return Ok(());
    }

    let closed = shadow.closed as f64;
    let per_closed = |n: u64| n as f64 / closed;
    let connects = load.client.connects as f64;
    let connect_us = load.client.connect_time.as_secs_f64() * 1e6 / connects;
    let healthz_us = ph.healthz_rtt.as_secs_f64() * 1e6 / ph.healthz_n as f64;
    let transport_us = healthz_us - ph.server_us(&[HEALTHZ]);
    let client_us = ph.timed.0.as_secs_f64() * 1e6 / ph.timed.1 as f64;
    let connect_share_us = connect_us * connects / load.requests as f64;
    m.insert("client.connects".into(), connects);
    m.insert("client.connect_us".into(), connect_us);
    m.insert("transport.healthz_rtt_us".into(), healthz_us);
    m.insert("server.admit_us".into(), ph.server_us(&[ADMIT]));
    m.insert("server.depart_us".into(), ph.server_us(&[DEPART]));
    m.insert(
        "engine.decide_us".into(),
        shadow.decide.as_secs_f64() * 1e6 / closed,
    );
    m.insert(
        "engine.publish_us".into(),
        shadow.publish.as_secs_f64() * 1e6 / closed,
    );
    m.insert(
        "engine.hits_per_decision".into(),
        per_closed(shadow.closed_cache.hits),
    );
    m.insert(
        "engine.misses_per_decision".into(),
        per_closed(shadow.closed_cache.misses),
    );
    m.insert(
        "engine.evictions".into(),
        shadow.closed_cache.evictions as f64,
    );
    for (name, run) in [("low", &ph.low), ("high", &ph.high)] {
        let lat = sorted(run);
        if name == "high" {
            m.insert(
                "lat_us.p50.high".into(),
                us(stats::percentile_sorted(&lat, 50.0)),
            );
        }
        for p in [90, 99] {
            m.insert(
                format!("lat_us.p{p}.{name}"),
                us(stats::percentile_sorted(&lat, f64::from(p))),
            );
        }
        m.insert(format!("samples.{name}"), lat.len() as f64);
        m.insert(format!("gen.lag_us.max.{name}"), us(run.max_lag_ns));
    }
    // The closed-loop round trip against what the layers account for:
    // server time, transport (a /healthz round trip minus its server
    // time), and connects amortized over requests.
    m.insert(
        "unattributed_frac".into(),
        1.0 - (ph.server_us(&[ADMIT, DEPART]) + transport_us + connect_share_us) / client_us,
    );
    m.insert(
        "trace_overhead_frac".into(),
        stats::mean(&ph.batches[1]) / stats::mean(&ph.batches[0]) - 1.0,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_admitd_decision_json() {
        let body = "{\"seq\": 42, \"class\": 2, \"kind\": \"admit\", \"accepted\": true, \
                    \"sessions\": 3, \"load\": 0.15, \"load_bits\": \"3fc3333333333333\", \
                    \"certificate\": null}";
        let r = parse_decision(body, Phase::Closed, true, 2).unwrap();
        assert_eq!((r.seq, r.accepted, r.class), (42, true, 2));
        assert_eq!(r.load_bits, 0.15f64.to_bits());
        assert!(parse_decision("{\"seq\": 1}", Phase::Closed, true, 0).is_none());
    }

    #[test]
    fn scrape_reads_labeled_series() {
        let s = Scrape(
            "obs_http_request_duration_ns_sum{route=\"/admit\"} 5000\n\
             obs_http_request_duration_ns_count{route=\"/admit\"} 2\n\
             admission_cache_hits_total 7\n"
                .to_string(),
        );
        assert_eq!(s.route("/admit"), (2.0, 5000.0));
        assert_eq!(s.value("admission_cache_hits_total"), 7.0);
        assert_eq!(s.value("admission_cache_misses_total"), 0.0);
    }

    /// Runs both admit workloads briefly against a built `admitd`, with
    /// every check on; skipped when the binary has not been built.
    #[test]
    fn admit_smoke_against_admitd() {
        let bin = admitd_path();
        if !bin.exists() {
            eprintln!(
                "skipping admit smoke test: {} is absent \
                 (cargo build --release -p gps-experiments --bin admitd)",
                bin.display()
            );
            return;
        }
        for workload in ["admit_eb", "admit_rpps"] {
            let p = params(workload).unwrap();
            for traced in [false, true] {
                let out = run(&p, &bin, 3, 0.5, traced);
                assert!(out.failures.is_empty(), "{workload}: {:?}", out.failures);
                assert_eq!(out.failed, 0);
                assert!(out.attempted > 0);
                let key = if traced {
                    "engine.decide_us"
                } else {
                    "ops_per_s"
                };
                assert!(out.metrics[key] > 0.0, "{workload} {key}");
            }
        }
    }
}
