//! Live metrics exposition over TCP: a minimal, dependency-free HTTP/1.1
//! server for the registry, and the in-tree client that talks to it.
//!
//! Endpoints:
//!
//! * `/metrics` — the registry snapshot in Prometheus text exposition
//!   format v0.0.4 (see [`to_prometheus_text`]).
//! * `/metrics.json` — the existing deterministic snapshot JSON
//!   ([`crate::metrics::Snapshot::to_json`]), spans included.
//! * `/progress` — the live campaign progress document
//!   ([`crate::progress::Progress::to_json`]): replications
//!   done/restored/retried/quarantined, chunk count, throughput, ETA.
//! * `/health` — structured liveness JSON (`status`, `service`,
//!   `uptime_seconds`, `requests`).
//! * `/healthz` — bare `ok`, for probes that can't parse JSON.
//! * `/slo` — per-SLO error budgets and burn rates
//!   ([`crate::slo::SloSet::to_json`]); served when the exporter was
//!   started with request telemetry.
//!
//! The built-ins answer GET only. A service mounts its own endpoints by
//! passing a [`RequestHandler`] to [`Exporter::serve`]: it sees every GET
//! the built-ins don't claim and every POST. The admission-control daemon
//! serves `/admit`, `/depart`, and `/region` this way, concurrently with
//! `/metrics` scrapes; `campaignd` serves its orchestration routes.
//!
//! # Request telemetry
//!
//! With a [`TelemetryConfig`], [`Exporter::serve`] wraps dispatch in a
//! per-request middleware: every request gets a monotonically-assigned
//! request ID (readable from handlers via [`current_request_id`]), a
//! per-route/per-status `obs.http.requests` counter, an HDR latency
//! observation per route (`obs.http.request_duration_ns`, exposed as
//! Prometheus `le` buckets), in-flight/connection gauges, an SLO
//! burn-rate evaluation, a flight-recorder
//! [`TraceKind::RequestDispatch`](crate::trace::TraceKind) slice, and —
//! when [`TelemetryConfig::access_log`] is set (env:
//! `GPS_OBS_ACCESS_LOG`) — one NDJSON access-log line through the
//! journal sink. Access-log lines carry wall-clock latency only when
//! global timing is enabled, so the untimed log is byte-deterministic
//! for a deterministic client (verify.sh diffs it across the thread
//! matrix).
//!
//! The accept loop runs on one named thread (`gps-obs-exporter`); each
//! accepted connection is handled on its own short-lived `gps-obs-conn`
//! thread so a slow or stalled client can never wedge `/metrics` for
//! other scrapers. Connections are persistent in the HTTP/1.1 style:
//! the handler loops serving requests (pipelining included) until the
//! client asks `Connection: close`, speaks HTTP/1.0, goes quiet past the
//! read timeout, or exhausts the per-connection request budget
//! (`MAX_REQUESTS_PER_CONN`). Shutdown stays exact: dropping (or
//! [`Exporter::shutdown`]-ing) the handle sets a stop flag and makes a
//! wake-up connection to unblock `accept`, then joins the accept thread
//! (in-flight connection threads finish on their own, bounded by the
//! per-connection timeouts and the request budget).
//!
//! Malformed and hostile clients are bounded on every axis: reads and
//! writes time out after two seconds, the request line is capped at 1 KiB
//! (`414 URI Too Long` beyond that), the whole request head at 8 KiB
//! (`431 Request Header Fields Too Large`), and the body at 1 MiB
//! (`413 Content Too Large`); a `Content-Length` that is not a plain
//! decimal, or two that disagree, gets `400 Bad Request`. Each of these
//! closes the connection.
//!
//! [`HttpClient`] is the matching client: keep-alive, lazily connected,
//! rolling its connection before the server's request budget, and
//! retrying transport errors as its [`ClientConfig`] says.
//!
//! Nothing here is on a hot path: every request takes a fresh
//! [`Registry::snapshot`], so the exporter never holds metric locks
//! across I/O.

use crate::journal::{FieldValue, Journal, SinkKind};
use crate::metrics::{labeled, Registry};
use crate::prometheus::to_prometheus_text;
use crate::slo::{SloSet, SloSpec};
use std::cell::Cell;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const READ_TIMEOUT: Duration = Duration::from_secs(2);
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);
const MAX_REQUEST_BYTES: usize = 8 * 1024;
const MAX_REQUEST_LINE: usize = 1024;
/// Largest request body accepted on POST routes (`413` beyond that) —
/// checkpoint NDJSON lines are well under this.
const MAX_BODY_BYTES: usize = 1024 * 1024;

/// Requests served on one persistent connection before the server closes
/// it — bounds how long a keep-alive client can pin a `gps-obs-conn`
/// thread (together with the 2 s read timeout per request).
pub(crate) const MAX_REQUESTS_PER_CONN: usize = 100;

/// A response produced by a [`RequestHandler`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteResponse {
    /// HTTP status code (the reason phrase is derived from it).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Response body.
    pub body: String,
}

impl RouteResponse {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "application/json".to_string(),
            body: body.into(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "text/plain".to_string(),
            body: body.into(),
        }
    }
}

/// One parsed request handed to a [`RequestHandler`], borrowed from the
/// connection's buffers: method, path (query string included), and the
/// request body (empty for GET).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpRequest<'a> {
    /// Request method (`GET` or `POST`; others are rejected upstream).
    pub method: &'a str,
    /// Request path with its query string.
    pub path: &'a str,
    /// Request body, bounded by the server's body cap.
    pub body: &'a str,
}

/// Custom dispatch mounted via [`Exporter::serve`]: consulted for every
/// GET path the built-ins don't claim *and* for every POST. Return `Some`
/// to serve, `None` to fall through to 404.
pub type RequestHandler = Arc<dyn Fn(&HttpRequest<'_>) -> Option<RouteResponse> + Send + Sync>;
/// Configuration for the exporter's request-telemetry middleware (see
/// the module docs and [`Exporter::serve`]).
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Service name, surfaced in `/health` and `/slo`.
    pub service: String,
    /// SLOs evaluated over the request stream.
    pub slos: Vec<SloSpec>,
    /// Where NDJSON access-log lines go (`None` = no access log).
    pub access_log: Option<SinkKind>,
    /// A pre-built SLO set to share with the host process. When set it
    /// replaces `slos`: the exporter records HTTP outcomes into it, and
    /// the host can record non-HTTP events (e.g. shard completions in
    /// `campaignd`) into the same set — both show up at `/slo`.
    pub shared_slo: Option<Arc<SloSet>>,
}

impl TelemetryConfig {
    /// Telemetry with no SLOs and no access log.
    pub fn new(service: impl Into<String>) -> TelemetryConfig {
        TelemetryConfig {
            service: service.into(),
            slos: Vec::new(),
            access_log: None,
            shared_slo: None,
        }
    }

    /// Like [`new`](Self::new), plus an access-log sink taken from
    /// `GPS_OBS_ACCESS_LOG` (`noop`/`stderr`/a file path) when set.
    pub fn from_env(service: impl Into<String>) -> TelemetryConfig {
        let mut cfg = TelemetryConfig::new(service);
        if let Ok(v) = std::env::var("GPS_OBS_ACCESS_LOG") {
            cfg.access_log = Some(SinkKind::parse(&v));
        }
        cfg
    }

    /// Adds SLOs to evaluate.
    pub fn with_slos(mut self, slos: Vec<SloSpec>) -> TelemetryConfig {
        self.slos = slos;
        self
    }

    /// Shares a pre-built [`SloSet`] between the exporter and the host
    /// process (overrides [`with_slos`](Self::with_slos)).
    pub fn with_shared_slo(mut self, slo: Arc<SloSet>) -> TelemetryConfig {
        self.shared_slo = Some(slo);
        self
    }
}

/// Live request-telemetry state shared by all connection threads.
#[derive(Debug)]
struct Telemetry {
    next_id: AtomicU64,
    in_flight: AtomicU64,
    open_conns: AtomicU64,
    access: Option<Journal>,
    slo: Arc<SloSet>,
}

/// Per-exporter state threaded into every connection handler.
#[derive(Debug)]
struct ServerState {
    service: String,
    started: Instant,
    telemetry: Option<Telemetry>,
}

impl ServerState {
    fn new(service: String, telemetry: Option<Telemetry>) -> ServerState {
        ServerState {
            service,
            started: Instant::now(),
            telemetry,
        }
    }
}

thread_local! {
    /// The request ID the current connection thread is dispatching
    /// (0 = none). Route handlers run synchronously on the connection
    /// thread, so downstream code (e.g. the admission engine) can tag
    /// its own journal events and trace slices with the ID without any
    /// signature change.
    static CURRENT_REQUEST_ID: Cell<u64> = const { Cell::new(0) };
}

/// The request ID being dispatched on this thread, when the exporter
/// was started with telemetry and a request is in flight.
pub fn current_request_id() -> Option<u64> {
    let id = CURRENT_REQUEST_ID.with(|c| c.get());
    (id != 0).then_some(id)
}

/// In-flight accounting for one request: assigned ID, start instant,
/// and the flight-recorder slice open for its duration.
struct RequestCtx {
    id: u64,
    t0: Instant,
    _slice: crate::trace::TraceScope,
}

/// How a request ended: the final route/status labels and the response
/// body size, as recorded by [`Telemetry::finish_request`].
struct RequestOutcome<'a> {
    method: &'a str,
    route: &'a str,
    status: u16,
    bytes: usize,
}

impl Telemetry {
    fn new(registry: &Registry, cfg: &TelemetryConfig) -> Telemetry {
        let access = cfg.access_log.as_ref().map(|kind| {
            Journal::from_kind(kind, crate::Level::Info).unwrap_or_else(|_| Journal::noop())
        });
        // Touch the gauges so they render (at zero) from the first
        // scrape, not the first request.
        registry.gauge("obs.http.in_flight").set(0.0);
        registry.gauge("obs.http.open_connections").set(0.0);
        Telemetry {
            next_id: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            open_conns: AtomicU64::new(0),
            access,
            slo: cfg
                .shared_slo
                .clone()
                .unwrap_or_else(|| Arc::new(SloSet::new(cfg.slos.clone()))),
        }
    }

    fn connection_opened(&self, registry: &Registry) {
        registry.counter("obs.http.connections").inc();
        let open = self.open_conns.fetch_add(1, Ordering::Relaxed) + 1;
        registry.gauge("obs.http.open_connections").set(open as f64);
    }

    fn connection_closed(&self, registry: &Registry) {
        let open = self
            .open_conns
            .fetch_sub(1, Ordering::Relaxed)
            .saturating_sub(1);
        registry.gauge("obs.http.open_connections").set(open as f64);
    }

    /// Assigns the next request ID and opens its trace slice. `route`
    /// is only advisory here (the final label is decided at finish).
    fn begin_request(&self, registry: &Registry, route: &str) -> RequestCtx {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        CURRENT_REQUEST_ID.with(|c| c.set(id));
        let in_flight = self.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        registry.gauge("obs.http.in_flight").set(in_flight as f64);
        RequestCtx {
            id,
            t0: Instant::now(),
            _slice: crate::trace::scope(crate::trace::TraceKind::RequestDispatch, route, id),
        }
    }

    /// Closes out one request once its response body is decided (and
    /// before the bytes hit the socket — a client that has read the
    /// response can rely on the access-log line being flushed): counters,
    /// HDR latency, SLO evaluation, and the optional access-log line.
    fn finish_request(
        &self,
        registry: &Registry,
        started: &Instant,
        ctx: RequestCtx,
        outcome: RequestOutcome<'_>,
    ) {
        let RequestOutcome {
            method,
            route,
            status,
            bytes,
        } = outcome;
        CURRENT_REQUEST_ID.with(|c| c.set(0));
        let latency_ns = ctx.t0.elapsed().as_nanos() as u64;
        let in_flight = self
            .in_flight
            .fetch_sub(1, Ordering::Relaxed)
            .saturating_sub(1);
        registry.gauge("obs.http.in_flight").set(in_flight as f64);
        let status_str = status.to_string();
        registry
            .counter(&labeled(
                "obs.http.requests",
                &[("route", route), ("status", &status_str)],
            ))
            .inc();
        registry
            .hdr(&labeled(
                "obs.http.request_duration_ns",
                &[("route", route)],
            ))
            .observe(latency_ns);
        self.slo.record(
            registry,
            started.elapsed().as_secs(),
            route,
            status,
            latency_ns,
        );
        if let Some(access) = &self.access {
            // Latency is wall clock; keep it out of the line unless
            // timing was opted into, so the untimed access log stays
            // byte-deterministic for a deterministic client.
            if crate::global().timing_enabled() {
                access.info(
                    "obs.access",
                    "request",
                    &[
                        ("request_id", FieldValue::U64(ctx.id)),
                        ("method", FieldValue::from(method)),
                        ("route", FieldValue::from(route)),
                        ("status", FieldValue::U64(u64::from(status))),
                        ("bytes", FieldValue::U64(bytes as u64)),
                        ("latency_us", FieldValue::U64(latency_ns / 1_000)),
                    ],
                );
            } else {
                access.info(
                    "obs.access",
                    "request",
                    &[
                        ("request_id", FieldValue::U64(ctx.id)),
                        ("method", FieldValue::from(method)),
                        ("route", FieldValue::from(route)),
                        ("status", FieldValue::U64(u64::from(status))),
                        ("bytes", FieldValue::U64(bytes as u64)),
                    ],
                );
            }
        }
    }
}

fn reason_for(status: u16) -> &'static str {
    match status {
        200 => "OK",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Content Too Large",
        414 => "URI Too Long",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// A live `/metrics` server bound to one registry. Construct with
/// [`Exporter::serve`]; the listener thread stops when the handle is
/// shut down or dropped.
#[derive(Debug)]
pub struct Exporter {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Exporter {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts serving `registry` on a thread named `gps-obs-exporter`.
    ///
    /// `handler` mounts custom endpoints next to the built-ins: it sees
    /// every GET they don't claim and every POST (bodies framed by
    /// `Content-Length`, capped server-side with `413` beyond the cap).
    /// Without one, a POST gets `405`. `telemetry` enables the
    /// request-telemetry middleware: request IDs, per-route counters and
    /// HDR latency, in-flight gauges, SLO burn-rate evaluation (served at
    /// `/slo`), and the optional access log.
    pub fn serve(
        addr: &str,
        registry: Registry,
        handler: Option<RequestHandler>,
        telemetry: Option<TelemetryConfig>,
    ) -> std::io::Result<Exporter> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let service = telemetry
            .as_ref()
            .map(|t| t.service.clone())
            .unwrap_or_else(|| "gps-obs".to_string());
        let state = Arc::new(ServerState::new(
            service,
            telemetry.as_ref().map(|cfg| Telemetry::new(&registry, cfg)),
        ));
        let handle = std::thread::Builder::new()
            .name("gps-obs-exporter".to_string())
            .spawn(move || serve_loop(listener, registry, thread_stop, handler, state))?;
        crate::info(
            "obs.exporter",
            "started",
            &[("addr", local.to_string().as_str().into())],
        );
        Ok(Exporter {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address — useful when serving on port 0.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the listener thread and joins it. Also runs on drop;
    /// calling it explicitly just makes teardown order visible.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::SeqCst);
            // Wake the accept loop so it observes the flag.
            let _ = TcpStream::connect_timeout(&self.addr, READ_TIMEOUT);
            let _ = handle.join();
            crate::info(
                "obs.exporter",
                "stopped",
                &[("addr", self.addr.to_string().as_str().into())],
            );
        }
    }
}

impl Drop for Exporter {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn serve_loop(
    listener: TcpListener,
    registry: Registry,
    stop: Arc<AtomicBool>,
    handler: Option<RequestHandler>,
    state: Arc<ServerState>,
) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        if let Ok(stream) = conn {
            // One short-lived thread per connection: a stalled client
            // burns its own read timeout, not other scrapers' latency.
            let registry = registry.clone();
            let handler = handler.clone();
            let state = Arc::clone(&state);
            let _ = std::thread::Builder::new()
                .name("gps-obs-conn".to_string())
                .spawn(move || handle_connection(stream, &registry, handler.as_ref(), &state));
        }
    }
}

/// Outcome of pulling one message head off a persistent connection.
enum HeadRead {
    /// A complete head (start line + headers + blank line).
    Complete(Vec<u8>),
    /// Start line exceeded [`MAX_REQUEST_LINE`].
    LineTooLong,
    /// Head exceeded [`MAX_REQUEST_BYTES`].
    HeadTooLarge,
    /// Peer closed, stalled past the read timeout, or errored.
    Closed,
}

/// Reads one message head — a request on the server, a response on the
/// client — consuming it from `carry` (which may already hold pipelined
/// bytes from the previous read and keeps any surplus for the next
/// message). Bodies are framed separately by [`read_body`] using the
/// head's `Content-Length`.
fn read_head(stream: &mut TcpStream, carry: &mut Vec<u8>) -> HeadRead {
    let mut chunk = [0u8; 512];
    loop {
        let line_end = carry.windows(2).position(|w| w == b"\r\n");
        if line_end.map_or(carry.len() > MAX_REQUEST_LINE, |e| e > MAX_REQUEST_LINE) {
            return HeadRead::LineTooLong;
        }
        if let Some(end) = carry.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = carry[..end + 4].to_vec();
            carry.drain(..end + 4);
            return HeadRead::Complete(head);
        }
        if carry.len() > MAX_REQUEST_BYTES {
            return HeadRead::HeadTooLarge;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return HeadRead::Closed,
            Ok(n) => carry.extend_from_slice(&chunk[..n]),
            Err(_) => return HeadRead::Closed,
        }
    }
}

/// The body size a head announces: `Some(0)` without a `Content-Length`,
/// `None` when a value is not a plain decimal or two values disagree.
fn content_length_of(head: &str) -> Option<usize> {
    let mut announced = None;
    for (_, value) in head
        .lines()
        .filter_map(|l| l.split_once(':'))
        .filter(|(name, _)| name.eq_ignore_ascii_case("content-length"))
    {
        let value = value.trim();
        if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        let len: usize = value.parse().ok()?;
        if announced.is_some_and(|prev| prev != len) {
            return None;
        }
        announced = Some(len);
    }
    Some(announced.unwrap_or(0))
}

/// Pulls `len` body bytes off the connection, starting from whatever the
/// head read left in `carry`. Returns `None` if the peer closes or stalls
/// mid-body.
fn read_body(stream: &mut TcpStream, carry: &mut Vec<u8>, len: usize) -> Option<Vec<u8>> {
    let mut chunk = [0u8; 1024];
    while carry.len() < len {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(n) => carry.extend_from_slice(&chunk[..n]),
        }
    }
    let body = carry[..len].to_vec();
    carry.drain(..len);
    Some(body)
}

/// True when the request head asks to keep the connection open: HTTP/1.1
/// defaults to persistent unless a `Connection: close` header appears;
/// HTTP/1.0 (and anything unrecognized) closes.
fn wants_keep_alive(head: &str) -> bool {
    let mut lines = head.lines();
    let version = lines
        .next()
        .unwrap_or("")
        .split_whitespace()
        .nth(2)
        .unwrap_or("");
    if version != "HTTP/1.1" {
        return false;
    }
    for line in lines {
        if let Some(value) = line
            .split_once(':')
            .filter(|(name, _)| name.eq_ignore_ascii_case("connection"))
            .map(|(_, v)| v)
        {
            return !value.trim().eq_ignore_ascii_case("close");
        }
    }
    true
}

fn handle_connection(
    mut stream: TcpStream,
    registry: &Registry,
    handler: Option<&RequestHandler>,
    state: &ServerState,
) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    // Request/response over a persistent connection is exactly the
    // write-write-read pattern where Nagle + delayed ACK costs ~40 ms per
    // round trip; responses are tiny, so flush segments immediately.
    let _ = stream.set_nodelay(true);
    let telemetry = state.telemetry.as_ref();
    if let Some(t) = telemetry {
        t.connection_opened(registry);
    }
    let mut carry = Vec::with_capacity(512);
    for served in 0..MAX_REQUESTS_PER_CONN {
        let head_bytes = match read_head(&mut stream, &mut carry) {
            HeadRead::Complete(bytes) => bytes,
            HeadRead::Closed => break,
            HeadRead::LineTooLong => {
                registry.counter("obs.exporter.requests").inc();
                reject(
                    &mut stream,
                    registry,
                    state,
                    "GET",
                    414,
                    "request line too long\n",
                );
                break;
            }
            HeadRead::HeadTooLarge => {
                registry.counter("obs.exporter.requests").inc();
                reject(
                    &mut stream,
                    registry,
                    state,
                    "GET",
                    431,
                    "request head too large\n",
                );
                break;
            }
        };
        let head = String::from_utf8_lossy(&head_bytes);
        let mut parts = head.lines().next().unwrap_or("").split_whitespace();
        let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
        registry.counter("obs.exporter.requests").inc();
        // The last budgeted request closes regardless of what the client
        // asked for; the `Connection:` header in the response says which.
        let keep = wants_keep_alive(&head) && served + 1 < MAX_REQUESTS_PER_CONN;
        // Provisional route label: path without its query string. The
        // final label collapses unmatched paths to "unmatched" so hostile
        // scans cannot mint unbounded per-route series.
        let provisional = path.split('?').next().unwrap_or(path);
        // Without a trustworthy length the body cannot be framed, so the
        // next head's position is unknown: refuse and close.
        let Some(announced) = content_length_of(&head) else {
            reject(
                &mut stream,
                registry,
                state,
                method,
                400,
                "bad content-length\n",
            );
            break;
        };
        if announced > MAX_BODY_BYTES {
            reject(
                &mut stream,
                registry,
                state,
                method,
                413,
                "request body too large\n",
            );
            break;
        }
        // Consume the body even on paths that ignore it — keep-alive
        // framing depends on the next head starting after it.
        let Some(body_bytes) = read_body(&mut stream, &mut carry, announced) else {
            break;
        };
        let request = HttpRequest {
            method,
            path,
            body: &String::from_utf8_lossy(&body_bytes),
        };
        let ctx = telemetry.map(|t| t.begin_request(registry, provisional));
        let (status, content_type, body) = dispatch(&request, registry, handler, state);
        if let (Some(t), Some(ctx)) = (telemetry, ctx) {
            let route = if status == 404 || status == 405 {
                "unmatched"
            } else {
                provisional
            };
            let outcome = RequestOutcome {
                method,
                route,
                status,
                bytes: body.len(),
            };
            t.finish_request(registry, &state.started, ctx, outcome);
        }
        respond(
            &mut stream,
            status,
            reason_for(status),
            &content_type,
            &body,
            keep,
        );
        if !keep {
            break;
        }
    }
    if let Some(t) = telemetry {
        t.connection_closed(registry);
    }
}

/// Refuses a request before dispatch: records it under the
/// `bad_request` route when telemetry is on, answers `status`, and
/// drains the connection for closing.
fn reject(
    stream: &mut TcpStream,
    registry: &Registry,
    state: &ServerState,
    method: &str,
    status: u16,
    body: &str,
) {
    if let Some(t) = &state.telemetry {
        let ctx = t.begin_request(registry, "bad_request");
        let outcome = RequestOutcome {
            method,
            route: "bad_request",
            status,
            bytes: 0,
        };
        t.finish_request(registry, &state.started, ctx, outcome);
    }
    respond_and_drain(stream, status, body);
}

/// Produces `(status, content type, body)` for one request; the caller
/// writes the response and feeds the outcome to the telemetry layer.
/// Built-ins answer GET only; the mounted [`RequestHandler`] sees the
/// GETs they leave and every POST, and with no handler a non-GET is
/// `405`.
fn dispatch(
    request: &HttpRequest<'_>,
    registry: &Registry,
    handler: Option<&RequestHandler>,
    state: &ServerState,
) -> (u16, String, String) {
    let text = |status: u16, body: &str| (status, "text/plain".to_string(), body.to_string());
    if request.method == "GET" {
        if let Some(reply) = builtin(request.path, registry, state) {
            return reply;
        }
    } else if request.method != "POST" || handler.is_none() {
        let hint = if handler.is_some() {
            "GET or POST only\n"
        } else {
            "GET only\n"
        };
        return text(405, hint);
    }
    match handler.and_then(|h| h(request)) {
        Some(r) => (r.status, r.content_type, r.body),
        None => text(404, "not found\n"),
    }
}

/// The built-in GET endpoints; `None` for a path they don't claim.
fn builtin(path: &str, registry: &Registry, state: &ServerState) -> Option<(u16, String, String)> {
    let json = |body: String| Some((200, "application/json".to_string(), body));
    match path {
        "/metrics" => Some((
            200,
            "text/plain; version=0.0.4; charset=utf-8".to_string(),
            to_prometheus_text(&registry.snapshot()),
        )),
        "/metrics.json" => json(registry.snapshot().to_json()),
        "/progress" => json(crate::progress::global_progress().to_json()),
        "/health" => json(health_json(registry, state)),
        "/healthz" => Some((200, "text/plain".to_string(), "ok\n".to_string())),
        "/slo" => json(
            state
                .telemetry
                .as_ref()?
                .slo
                .to_json(&state.service, state.started.elapsed().as_secs()),
        ),
        _ => None,
    }
}

/// The structured `/health` document: liveness plus just enough
/// identity (service, uptime, request count) to tell *which* healthy
/// process answered.
fn health_json(registry: &Registry, state: &ServerState) -> String {
    let mut service = String::new();
    crate::json::write_escaped(&state.service, &mut service);
    format!(
        "{{\"status\":\"ok\",\"service\":{service},\"uptime_seconds\":{},\"requests\":{}}}\n",
        state.started.elapsed().as_secs(),
        registry.counter("obs.exporter.requests").get()
    )
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
    keep_alive: bool,
) {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    // One write per response: head and body in the same segment keeps a
    // keep-alive round trip to a single packet each way.
    let mut message = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: {connection}\r\n\r\n",
        body.len()
    );
    message.push_str(body);
    let _ = stream.write_all(message.as_bytes());
    let _ = stream.flush();
}

/// Responds with an error status and then drains whatever the client has
/// already sent before the connection drops. Closing a socket with unread
/// bytes in its receive buffer sends `RST`, which can destroy the response
/// before the client reads it; draining (bounded by the read timeout and a
/// byte cap) turns the close into an orderly `FIN`.
fn respond_and_drain(stream: &mut TcpStream, status: u16, body: &str) {
    respond(
        stream,
        status,
        reason_for(status),
        "text/plain",
        body,
        false,
    );
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut sink = [0u8; 1024];
    let mut drained = 0usize;
    while let Ok(n) = stream.read(&mut sink) {
        if n == 0 {
            break;
        }
        drained += n;
        if drained > 64 * 1024 {
            break;
        }
    }
}

/// Timeout/retry policy for [`HttpClient`]. Fully deterministic: a fixed
/// timeout on connect, read, and write, a bounded retry count, and linear
/// attempt-count backoff (`attempt × backoff_step`, no jitter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// Connect/read/write timeout.
    pub timeout: Duration,
    /// Retries after the first attempt (0 = fail fast).
    pub retries: u32,
    /// Backoff step: attempt `k` (1-based) sleeps `k × backoff_step`
    /// before retrying.
    pub backoff_step: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            timeout: READ_TIMEOUT,
            retries: 2,
            backoff_step: Duration::from_millis(25),
        }
    }
}

impl ClientConfig {
    /// Policy from the environment: `GPS_HTTP_TIMEOUT_MS` (default
    /// 2000) and `GPS_HTTP_RETRIES` (default 2).
    pub fn from_env() -> ClientConfig {
        let mut cfg = ClientConfig::default();
        if let Some(ms) = std::env::var("GPS_HTTP_TIMEOUT_MS")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
        {
            cfg.timeout = Duration::from_millis(ms.max(1));
        }
        if let Some(n) = std::env::var("GPS_HTTP_RETRIES")
            .ok()
            .and_then(|v| v.trim().parse::<u32>().ok())
        {
            cfg.retries = n;
        }
        cfg
    }
}

/// The in-tree HTTP client, used by the orchestration transport, the
/// admission replay and benchmarks, and the `obs_check` / `verify.sh`
/// smoke tests so nothing needs `curl`.
///
/// Requests ride one persistent connection (the server's keep-alive
/// path), with `Content-Length` framing each response. The connection is
/// opened lazily on the first request and rolled before it reaches the
/// server's `MAX_REQUESTS_PER_CONN` budget. A transport error drops the
/// connection and, up to [`ClientConfig::retries`] times, retries on a
/// fresh one after a linear backoff, incrementing the global
/// `client.retries` counter each time; the last error is returned. A
/// retry re-sends the request, so callers whose requests change server
/// state set `retries: 0`.
#[derive(Debug)]
pub struct HttpClient {
    addr: SocketAddr,
    cfg: ClientConfig,
    stream: Option<TcpStream>,
    carry: Vec<u8>,
    served: usize,
}

impl HttpClient {
    /// A client for `addr` with policy `cfg`. Only resolves the address:
    /// no connection is made until the first request.
    pub fn connect(addr: impl ToSocketAddrs, cfg: ClientConfig) -> std::io::Result<HttpClient> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address"))?;
        Ok(HttpClient {
            addr,
            cfg,
            stream: None,
            carry: Vec::with_capacity(512),
            served: 0,
        })
    }

    /// Issues one GET; returns `(status, body)`.
    pub fn get(&mut self, path: &str) -> std::io::Result<(u16, String)> {
        self.request("GET", path, None)
    }

    /// Issues one POST with a `Content-Length`-framed body; returns
    /// `(status, body)`.
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        self.request("POST", path, Some(body))
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<(u16, String)> {
        let mut attempt = 0;
        loop {
            match self.exchange(method, path, body) {
                Ok(reply) => return Ok(reply),
                // The connection is in an unknown framing state; any
                // retry runs on a fresh one.
                Err(e) => {
                    self.stream = None;
                    if attempt == self.cfg.retries {
                        return Err(e);
                    }
                }
            }
            attempt += 1;
            crate::metrics().counter("client.retries").inc();
            std::thread::sleep(self.cfg.backoff_step * attempt);
        }
    }

    /// One request/response on the current connection, opening it first
    /// when there is none.
    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<(u16, String)> {
        // Roll the connection before the server's per-connection budget
        // closes it mid-request.
        if self.served >= MAX_REQUESTS_PER_CONN - 1 {
            self.stream = None;
        }
        let stream = match &mut self.stream {
            Some(stream) => stream,
            None => {
                let stream = TcpStream::connect_timeout(&self.addr, self.cfg.timeout)?;
                stream.set_read_timeout(Some(self.cfg.timeout))?;
                stream.set_write_timeout(Some(self.cfg.timeout))?;
                stream.set_nodelay(true)?;
                self.carry.clear();
                self.served = 0;
                self.stream.insert(stream)
            }
        };
        let request = match body {
            Some(b) => format!(
                "{method} {path} HTTP/1.1\r\nHost: gps-obs\r\nContent-Length: {}\r\n\r\n{b}",
                b.len()
            ),
            None => format!("{method} {path} HTTP/1.1\r\nHost: gps-obs\r\n\r\n"),
        };
        stream.write_all(request.as_bytes())?;
        let invalid = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what);
        let eof = |what: &str| std::io::Error::new(std::io::ErrorKind::UnexpectedEof, what);
        let head_bytes = match read_head(stream, &mut self.carry) {
            HeadRead::Complete(bytes) => bytes,
            HeadRead::Closed => {
                return Err(eof("peer closed, stalled, or errored before a response"))
            }
            HeadRead::LineTooLong | HeadRead::HeadTooLarge => {
                return Err(invalid("response head too large"))
            }
        };
        let head = String::from_utf8_lossy(&head_bytes);
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid("bad status line"))?;
        let len = content_length_of(&head).ok_or_else(|| invalid("bad content-length"))?;
        let body = read_body(stream, &mut self.carry, len).ok_or_else(|| eof("body truncated"))?;
        self.served += 1;
        Ok((status, String::from_utf8_lossy(&body).into_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A client that surfaces the first transport error.
    fn fail_fast(addr: SocketAddr) -> HttpClient {
        let cfg = ClientConfig {
            retries: 0,
            ..ClientConfig::default()
        };
        HttpClient::connect(addr, cfg).unwrap()
    }

    #[test]
    fn server_round_trip_and_shutdown() {
        let r = Registry::new();
        r.counter("hits").add(3);
        let exporter = Exporter::serve("127.0.0.1:0", r.clone(), None, None).expect("bind");
        let addr = exporter.local_addr();
        let mut client = fail_fast(addr);

        let (status, body) = client.get("/healthz").unwrap();
        assert_eq!((status, body.as_str()), (200, "ok\n"));

        let (status, body) = client.get("/health").unwrap();
        assert_eq!(status, 200);
        let health = crate::json::parse(&body).expect("health json parses");
        assert_eq!(health.get("status").and_then(|v| v.as_str()), Some("ok"));
        assert_eq!(
            health.get("service").and_then(|v| v.as_str()),
            Some("gps-obs")
        );
        assert!(health
            .get("uptime_seconds")
            .and_then(|v| v.as_u64())
            .is_some());
        assert!(health.get("requests").and_then(|v| v.as_u64()).unwrap_or(0) >= 1);

        let (status, body) = client.get("/metrics").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("# TYPE hits_total counter"));
        assert!(body.contains("hits_total 3"));

        let (status, body) = client.get("/metrics.json").unwrap();
        assert_eq!(status, 200);
        let parsed = crate::json::parse(&body).expect("snapshot json parses");
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get("hits"))
                .and_then(|v| v.as_u64()),
            Some(3)
        );

        crate::progress::global_progress().begin_campaign("exporter_test", 10);
        crate::progress::global_progress().add_done(4);
        let (status, body) = client.get("/progress").unwrap();
        assert_eq!(status, 200);
        let doc = crate::json::parse(&body).expect("progress json parses");
        assert_eq!(
            doc.get("campaign").and_then(|v| v.as_str()),
            Some("exporter_test")
        );
        assert_eq!(doc.get("total").and_then(|v| v.as_u64()), Some(10));
        assert_eq!(doc.get("done").and_then(|v| v.as_u64()), Some(4));

        let (status, _) = client.get("/nope").unwrap();
        assert_eq!(status, 404);

        // Requests were counted on the live registry.
        assert!(r.counter("obs.exporter.requests").get() >= 4);

        drop(client);
        exporter.shutdown();
        // The port is released: a fresh bind to the same address works.
        assert!(TcpListener::bind(addr).is_ok());
    }

    #[test]
    fn keep_alive_serves_many_requests_on_one_connection() {
        let r = Registry::new();
        let exporter = Exporter::serve("127.0.0.1:0", r.clone(), None, None).expect("bind");
        let addr = exporter.local_addr();

        let before = r.counter("obs.exporter.requests").get();
        let mut client = fail_fast(addr);
        for _ in 0..10 {
            let (status, body) = client.get("/healthz").unwrap();
            assert_eq!((status, body.as_str()), (200, "ok\n"));
        }
        // All ten requests rode one connection and were all counted.
        assert_eq!(r.counter("obs.exporter.requests").get(), before + 10);

        exporter.shutdown();
    }

    #[test]
    fn connection_request_budget_is_enforced() {
        let exporter = Exporter::serve("127.0.0.1:0", Registry::new(), None, None).expect("bind");
        let addr = exporter.local_addr();

        // A raw connection: `HttpClient` rolls its connection before the
        // budget runs out, so it never sees the server close.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
        let mut carry = Vec::new();
        let mut exchange = |stream: &mut TcpStream| {
            stream
                .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                .ok()?;
            let HeadRead::Complete(head) = read_head(stream, &mut carry) else {
                return None;
            };
            read_body(stream, &mut carry, "ok\n".len())?;
            Some(String::from_utf8(head).unwrap())
        };
        for i in 0..MAX_REQUESTS_PER_CONN {
            let head =
                exchange(&mut stream).unwrap_or_else(|| panic!("request {i} within budget failed"));
            assert!(head.starts_with("HTTP/1.1 200 OK"), "request {i}: {head}");
            // The last budgeted response announces the close.
            let last = i + 1 == MAX_REQUESTS_PER_CONN;
            assert_eq!(head.contains("Connection: close"), last, "request {i}");
        }
        // The server closed after the budgeted request; one more on the
        // same connection cannot be answered.
        assert!(exchange(&mut stream).is_none());
        // A fresh connection works fine.
        assert_eq!(fail_fast(addr).get("/healthz").unwrap().0, 200);

        exporter.shutdown();
    }

    #[test]
    fn pipelined_requests_are_served_in_order() {
        let exporter = Exporter::serve("127.0.0.1:0", Registry::new(), None, None).expect("bind");
        let addr = exporter.local_addr();

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
        // Two requests in one write; the second asks to close so the
        // server ends the connection after answering both.
        let requests = "GET /health HTTP/1.1\r\nHost: t\r\n\r\n\
                        GET /nope HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
        stream.write_all(requests.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let statuses: Vec<&str> = response
            .lines()
            .filter(|l| l.starts_with("HTTP/1.1 "))
            .collect();
        assert_eq!(statuses, vec!["HTTP/1.1 200 OK", "HTTP/1.1 404 Not Found"]);
        assert!(response.contains("Connection: keep-alive"));
        assert!(response.contains("Connection: close"));

        exporter.shutdown();
    }

    #[test]
    fn custom_routes_mount_beside_builtins() {
        let r = Registry::new();
        r.counter("hits").add(7);
        let handler: RequestHandler = Arc::new(|req: &HttpRequest| match req.path {
            "/echo" => Some(RouteResponse::json(200, "{\"ok\":true}")),
            p if p.starts_with("/echo?") => Some(RouteResponse::text(200, p)),
            _ => None,
        });
        let exporter = Exporter::serve("127.0.0.1:0", r, Some(handler), None).expect("bind");
        let addr = exporter.local_addr();
        let mut client = fail_fast(addr);

        let (status, body) = client.get("/echo").unwrap();
        assert_eq!((status, body.as_str()), (200, "{\"ok\":true}"));
        // The query string reaches the handler verbatim.
        let (status, body) = client.get("/echo?x=1").unwrap();
        assert_eq!((status, body.as_str()), (200, "/echo?x=1"));
        // Built-ins still win, unclaimed paths still 404.
        let (status, body) = client.get("/metrics").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("hits_total 7"));
        assert_eq!(client.get("/unclaimed").unwrap().0, 404);

        exporter.shutdown();
    }

    #[test]
    fn keep_alive_header_parsing() {
        assert!(wants_keep_alive("GET / HTTP/1.1\r\nHost: x\r\n\r\n"));
        assert!(!wants_keep_alive(
            "GET / HTTP/1.1\r\nConnection: close\r\n\r\n"
        ));
        assert!(!wants_keep_alive(
            "GET / HTTP/1.1\r\nCONNECTION:  CLOSE \r\n\r\n"
        ));
        assert!(wants_keep_alive(
            "GET / HTTP/1.1\r\nConnection: keep-alive\r\n\r\n"
        ));
        assert!(!wants_keep_alive("GET / HTTP/1.0\r\n\r\n"));
        assert!(!wants_keep_alive(""));
    }

    #[test]
    fn stalled_connection_does_not_wedge_other_clients() {
        let exporter = Exporter::serve("127.0.0.1:0", Registry::new(), None, None).expect("bind");
        let addr = exporter.local_addr();

        // Open a connection and send nothing: it sits in its handler
        // thread waiting out READ_TIMEOUT (2 s).
        let stalled = TcpStream::connect(addr).unwrap();

        // Another client must still be served well before that timeout
        // elapses — the serial loop this replaced would block ~2 s here.
        let start = std::time::Instant::now();
        let (status, body) = fail_fast(addr).get("/healthz").unwrap();
        let elapsed = start.elapsed();
        assert_eq!((status, body.as_str()), (200, "ok\n"));
        assert!(
            elapsed < Duration::from_millis(1500),
            "stalled peer delayed a healthy scrape by {elapsed:?}"
        );

        drop(stalled);
        exporter.shutdown();
    }

    #[test]
    fn overlong_request_line_gets_414() {
        let exporter = Exporter::serve("127.0.0.1:0", Registry::new(), None, None).expect("bind");
        let addr = exporter.local_addr();

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
        let request = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(4 * 1024));
        stream.write_all(request.as_bytes()).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(
            response.starts_with("HTTP/1.1 414 "),
            "got: {}",
            response.lines().next().unwrap_or("")
        );

        exporter.shutdown();
    }

    #[test]
    fn oversized_request_head_gets_431() {
        let exporter = Exporter::serve("127.0.0.1:0", Registry::new(), None, None).expect("bind");
        let addr = exporter.local_addr();

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
        // Short request line, then enough short header lines to blow the
        // 8 KiB head cap before the terminating blank line.
        let mut request = String::from("GET /health HTTP/1.1\r\n");
        for i in 0..200 {
            request.push_str(&format!("X-Pad-{i}: {}\r\n", "b".repeat(64)));
        }
        request.push_str("\r\n");
        stream.write_all(request.as_bytes()).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(
            response.starts_with("HTTP/1.1 431 "),
            "got: {}",
            response.lines().next().unwrap_or("")
        );

        exporter.shutdown();
    }

    #[test]
    fn request_head_split_across_reads_hits_carry_path() {
        // The head arrives in three TCP segments, each smaller than a
        // request line; the server must keep accumulating in the carry
        // buffer instead of treating a partial head as a request.
        let r = Registry::new();
        let exporter = Exporter::serve("127.0.0.1:0", r.clone(), None, None).expect("bind");
        let addr = exporter.local_addr();

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
        stream.set_nodelay(true).unwrap();
        for part in ["GET /hea", "lthz HTTP/1.1\r\nHost: t\r\nConnec", ""] {
            stream.write_all(part.as_bytes()).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(20));
        }
        stream.write_all(b"tion: close\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(
            response.starts_with("HTTP/1.1 200 OK"),
            "got: {}",
            response.lines().next().unwrap_or("")
        );
        assert!(response.ends_with("ok\n"));
        assert_eq!(r.counter("obs.exporter.requests").get(), 1);

        exporter.shutdown();
    }

    #[test]
    fn two_pipelined_requests_in_one_segment_use_carry() {
        // Both heads land in a single read; the second must be served
        // entirely from the carry buffer (no further socket read), and
        // both must be counted.
        let r = Registry::new();
        let exporter = Exporter::serve("127.0.0.1:0", r.clone(), None, None).expect("bind");
        let addr = exporter.local_addr();

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
        let requests = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n\
                        GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
        stream.write_all(requests.as_bytes()).unwrap();
        // Nothing more is written: if the server failed to carry the
        // second head it would stall on read until timeout and close
        // without the second response.
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let oks = response.matches("HTTP/1.1 200 OK").count();
        assert_eq!(oks, 2, "expected both pipelined responses: {response}");
        assert_eq!(response.matches("ok\n").count(), 2);
        assert_eq!(r.counter("obs.exporter.requests").get(), 2);

        exporter.shutdown();
    }

    #[test]
    fn telemetry_counts_routes_latency_and_serves_slo() {
        let r = Registry::new();
        let handler: RequestHandler = Arc::new(|req: &HttpRequest| {
            if !req.path.starts_with("/admit") {
                return None;
            }
            // The request ID must be visible to downstream code on the
            // dispatch thread.
            let id = current_request_id().expect("request id set during dispatch");
            Some(RouteResponse::json(200, format!("{{\"id\":{id}}}")))
        });
        let cfg = TelemetryConfig::new("svc-test")
            .with_slos(vec![crate::slo::SloSpec::availability("avail", 0.999)]);
        let exporter =
            Exporter::serve("127.0.0.1:0", r.clone(), Some(handler), Some(cfg)).expect("bind");
        let addr = exporter.local_addr();

        // IDs are monotonically assigned in request order on one
        // connection.
        let mut client = fail_fast(addr);
        let (_, first) = client.get("/admit?class=0").unwrap();
        let (_, second) = client.get("/admit?class=1").unwrap();
        let id_of = |body: &str| {
            crate::json::parse(body)
                .unwrap()
                .get("id")
                .and_then(|v| v.as_u64())
                .unwrap()
        };
        assert_eq!(id_of(&second), id_of(&first) + 1);
        let (status, _) = client.get("/missing").unwrap();
        assert_eq!(status, 404);
        // No request in flight on this thread.
        assert_eq!(current_request_id(), None);

        // Health names the service; /slo serves budget + burn rates.
        let (_, health) = client.get("/health").unwrap();
        let doc = crate::json::parse(&health).unwrap();
        assert_eq!(
            doc.get("service").and_then(|v| v.as_str()),
            Some("svc-test")
        );
        let (status, slo) = client.get("/slo").unwrap();
        assert_eq!(status, 200);
        let doc = crate::json::parse(&slo).unwrap();
        assert_eq!(
            doc.get("service").and_then(|v| v.as_str()),
            Some("svc-test")
        );
        let slos = match doc.get("slos") {
            Some(crate::json::Json::Arr(items)) => items.clone(),
            other => panic!("slos not an array: {other:?}"),
        };
        assert_eq!(slos.len(), 1);
        assert!(slos[0].get("budget_remaining").is_some());
        assert!(slos[0]
            .get("fast")
            .and_then(|w| w.get("burn_rate"))
            .is_some());

        // The Prometheus surface carries per-route requests counters and
        // per-route HDR `le` buckets; the query string is stripped and
        // unmatched paths collapse to one label.
        let (_, text) = client.get("/metrics").unwrap();
        assert!(text.contains("obs_http_requests_total{route=\"/admit\",status=\"200\"} 2"));
        assert!(text.contains("obs_http_requests_total{route=\"unmatched\",status=\"404\"} 1"));
        assert!(text.contains("obs_http_request_duration_ns_bucket{route=\"/admit\",le=\""));
        assert!(text.contains("obs_http_request_duration_ns_count{route=\"/admit\"} 2"));
        assert!(text.contains("obs_http_in_flight 1")); // the /metrics request itself
        assert!(text.contains("obs_http_connections_total 1"));
        drop(client);

        exporter.shutdown();
        // Without telemetry, /slo falls through to 404.
        let plain = Exporter::serve("127.0.0.1:0", Registry::new(), None, None).expect("bind");
        assert_eq!(fail_fast(plain.local_addr()).get("/slo").unwrap().0, 404);
        plain.shutdown();
    }

    #[test]
    fn post_routes_round_trip_with_bodies() {
        let handler: RequestHandler = Arc::new(|req: &HttpRequest| match req.path {
            "/echo" if req.method == "POST" => {
                Some(RouteResponse::text(200, format!("got:{}", req.body)))
            }
            "/info" if req.method == "GET" => Some(RouteResponse::text(200, "info")),
            _ => None,
        });
        let exporter =
            Exporter::serve("127.0.0.1:0", Registry::new(), Some(handler), None).expect("bind");
        let addr = exporter.local_addr();

        let mut client = fail_fast(addr);
        // POST bodies reach the handler, keep-alive framing intact:
        // mixed POSTs and GETs ride the same connection.
        let (status, body) = client.post("/echo", "hello world").unwrap();
        assert_eq!((status, body.as_str()), (200, "got:hello world"));
        let (status, body) = client.get("/info").unwrap();
        assert_eq!((status, body.as_str()), (200, "info"));
        let (status, body) = client.post("/echo", "{\"x\":[1,2]}").unwrap();
        assert_eq!((status, body.as_str()), (200, "got:{\"x\":[1,2]}"));
        // Builtins still answer GET on the same server.
        assert_eq!(client.get("/healthz").unwrap().0, 200);
        // POST to an unclaimed path is 404, not 405.
        assert_eq!(client.post("/nope", "x").unwrap().0, 404);
        drop(client);

        // Without a request handler, POST stays 405 as before.
        let plain = Exporter::serve("127.0.0.1:0", Registry::new(), None, None).expect("bind");
        let mut c = fail_fast(plain.local_addr());
        assert_eq!(c.post("/metrics", "x").unwrap().0, 405);
        plain.shutdown();
        exporter.shutdown();
    }

    #[test]
    fn oversized_post_body_gets_413() {
        let handler: RequestHandler =
            Arc::new(|_req: &HttpRequest| Some(RouteResponse::text(200, "ok")));
        let exporter =
            Exporter::serve("127.0.0.1:0", Registry::new(), Some(handler), None).expect("bind");
        let addr = exporter.local_addr();

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
        // Announce a body over the cap; the server must refuse before
        // reading it.
        let head = format!(
            "POST /echo HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        stream.write_all(head.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(
            response.starts_with("HTTP/1.1 413 "),
            "expected 413, got: {}",
            response.lines().next().unwrap_or("")
        );

        exporter.shutdown();
    }

    #[test]
    fn unparseable_content_length_gets_400() {
        let handler: RequestHandler =
            Arc::new(|_req: &HttpRequest| Some(RouteResponse::text(200, "ok")));
        let exporter =
            Exporter::serve("127.0.0.1:0", Registry::new(), Some(handler), None).expect("bind");
        let addr = exporter.local_addr();

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
        // Read as 0 the body would be parsed as the next request head.
        let request = "POST /echo HTTP/1.1\r\nHost: t\r\nContent-Length: 5x\r\n\r\nhello";
        stream.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(
            response.starts_with("HTTP/1.1 400 "),
            "expected 400, got: {response}"
        );
        assert_eq!(response.matches("HTTP/1.1").count(), 1, "{response}");

        exporter.shutdown();
    }

    #[test]
    fn content_length_must_be_one_plain_decimal() {
        let head = |lines: &str| format!("POST /x HTTP/1.1\r\n{lines}\r\n");
        assert_eq!(content_length_of(&head("Host: t\r\n")), Some(0));
        assert_eq!(content_length_of(&head("Content-Length: 12\r\n")), Some(12));
        assert_eq!(
            content_length_of(&head("content-length: 3\r\nContent-Length: 3\r\n")),
            Some(3)
        );
        for bad in ["5x", "-1", "+5", "", "1 2"] {
            let h = head(&format!("Content-Length: {bad}\r\n"));
            assert_eq!(content_length_of(&h), None, "{bad:?}");
        }
        let disagree = head("Content-Length: 3\r\nContent-Length: 4\r\n");
        assert_eq!(content_length_of(&disagree), None);
    }

    #[test]
    fn client_config_env_knobs_parse() {
        // Uses explicit values rather than set_var: the suite is
        // multi-threaded and env mutation races other tests.
        let cfg = ClientConfig::default();
        assert_eq!(cfg.timeout, Duration::from_secs(2));
        assert_eq!(cfg.retries, 2);
        let fast = ClientConfig {
            timeout: Duration::from_millis(100),
            retries: 5,
            ..ClientConfig::default()
        };
        assert_eq!(fast.timeout, Duration::from_millis(100));
        assert_eq!(fast.retries, 5);
    }

    #[test]
    fn http_client_survives_connection_budget_and_counts_retries() {
        let exporter = Exporter::serve("127.0.0.1:0", Registry::new(), None, None).expect("bind");
        let addr = exporter.local_addr();
        let mut client = HttpClient::connect(addr, ClientConfig::default()).unwrap();
        // Cross the per-connection request budget several times over: the
        // client reconnects proactively, so no request observes an error.
        for _ in 0..(2 * MAX_REQUESTS_PER_CONN + 7) {
            let (status, body) = client.get("/healthz").unwrap();
            assert_eq!((status, body.as_str()), (200, "ok\n"));
        }
        exporter.shutdown();

        // Against a dead peer the client fails bounded-fast and counts
        // each retry.
        let before = crate::metrics().counter("client.retries").get();
        let cfg = ClientConfig {
            timeout: Duration::from_millis(50),
            retries: 2,
            backoff_step: Duration::from_millis(1),
        };
        let mut dead = HttpClient::connect(addr, cfg).unwrap();
        assert!(dead.get("/healthz").is_err());
        assert_eq!(crate::metrics().counter("client.retries").get(), before + 2);

        // With `retries: 0` the first error comes back and nothing is
        // counted. (Same test as above: the counter is process-global.)
        let once = ClientConfig { retries: 0, ..cfg };
        let mut dead = HttpClient::connect(addr, once).unwrap();
        assert!(dead.get("/healthz").is_err());
        assert_eq!(crate::metrics().counter("client.retries").get(), before + 2);
    }

    #[test]
    fn shared_slo_merges_http_and_host_events() {
        let r = Registry::new();
        let slo = Arc::new(SloSet::new(vec![crate::slo::SloSpec::availability(
            "shard-completion",
            0.9,
        )
        .for_route("shard")]));
        let cfg = TelemetryConfig::new("campaignd-test").with_shared_slo(Arc::clone(&slo));
        let exporter = Exporter::serve("127.0.0.1:0", r.clone(), None, Some(cfg)).expect("bind");
        let addr = exporter.local_addr();

        // The host records synthetic (non-HTTP) events into the same set
        // the exporter serves at /slo.
        slo.record(&r, 0, "shard", 200, 0);
        slo.record(&r, 1, "shard", 503, 0);
        let (status, body) = fail_fast(addr).get("/slo").unwrap();
        assert_eq!(status, 200);
        let doc = crate::json::parse(&body).unwrap();
        let slos = match doc.get("slos") {
            Some(crate::json::Json::Arr(items)) => items.clone(),
            other => panic!("slos not an array: {other:?}"),
        };
        assert_eq!(slos.len(), 1);
        assert_eq!(
            slos[0].get("name").and_then(|v| v.as_str()),
            Some("shard-completion")
        );
        // One good + one bad event reached the shared tracker.
        assert_eq!(slos[0].get("good").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(slos[0].get("bad").and_then(|v| v.as_u64()), Some(1));

        exporter.shutdown();
    }
}
