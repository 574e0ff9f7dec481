//! The serving core: listener, connection framing, batching workers,
//! admission control, degradation, hot-swap, and drain-on-shutdown.
//!
//! # Life of a request
//!
//! A connection reader decodes each frame and — for `Classify` —
//! validates the clip, stamps arrival time and deadline, and pushes a
//! job onto the bounded queue.  Admission is where backpressure lives:
//! a full queue rejects the push and the client gets an immediate
//! typed `Overloaded` response instead of unbounded buffering.  The
//! observed queue depth also feeds the [`DegradeController`], which
//! flips the service between full-cascade and triage-only modes with
//! hysteresis.
//!
//! Workers pop *adaptive batches*: up to `max_batch` jobs, but only
//! whatever has actually accumulated — one job under light load, a
//! full batch under pressure, with no artificial batching delay.
//! Deadlines are enforced at dispatch: jobs that expired while queued
//! are answered with `Deadline` without paying for inference.  A batch
//! of clips is one [`Cascade::run`] and a scan is one [`scan_chip`],
//! both on the cascade the [`ModelSlot`] publishes: [`Server::start`]
//! and a hot-swap compile it, so no request compiles anything.  The
//! batch runs under `catch_unwind`; if it panics (a poisoned request,
//! or an injected fault), each job is retried individually so only the
//! culpable request fails `Internal` while its batch-mates still get
//! real answers.  Batch outcomes per model generation feed the
//! [`SwapMonitor`], which rolls a bad hot-swap back automatically.
//!
//! Shutdown closes the queue (new pushes fail `Shutdown`), lets the
//! workers drain admitted jobs within the drain timeout, then flushes
//! any leftovers with typed `Shutdown` errors — every admitted request
//! is answered exactly once, even across a shutdown.

use crate::degrade::DegradeController;
use crate::fault::FaultPlan;
use crate::proto::{
    self, decode_request, encode_response, ErrorCode, Request, Response, ScanHit, MAX_FRAME_LEN,
};
use crate::queue::{BoundedQueue, PushRejected};
use crate::swap::{validate_and_swap, SwapMonitor, SwapVerdict};
use hotspot_bnn::{scan_chip, Cascade, ModelSlot, PackedBnn, ScanConfig, ScanReport};
use hotspot_geometry::BitImage;
use hotspot_telemetry::{
    depth_buckets, next_trace_id, serving_latency_ns_buckets, trace, Clock, Counter, DriftConfig,
    DriftMonitor, FlightRecorder, Gauge, Histogram, MetricsRegistry, MonotonicClock, Outcome,
    RequestRecord, Stage, WindowedHistogram,
};
use hotspot_tensor::{Workspace, WorkspacePool};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Poll interval for reader threads and the drain loop; bounds how
/// long shutdown waits on an idle connection.
const POLL: Duration = Duration::from_millis(50);

/// Serving configuration.  [`ServeConfig::new`] gives production-ish
/// defaults; tests shrink the knobs to force each failure mode
/// deterministically.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Inference worker threads.
    pub workers: usize,
    /// Upper bound on jobs per batch (the lower bound is whatever has
    /// accumulated — batching adapts to load).
    pub max_batch: usize,
    /// Bounded queue capacity; pushes beyond it are shed `Overloaded`.
    pub queue_capacity: usize,
    /// Queue depth at which the degradation ladder starts counting
    /// toward triage-only mode.
    pub high_water: usize,
    /// Queue depth at or below which the ladder counts toward
    /// recovery.
    pub low_water: usize,
    /// Consecutive high-water observations before degrading.
    pub degrade_enter_after: usize,
    /// Consecutive low-water observations before recovering.
    pub degrade_exit_after: usize,
    /// Deadline applied when a request says `deadline_ms == 0`.
    pub default_deadline: Duration,
    /// How long shutdown waits for workers to drain admitted jobs
    /// before flushing the rest with `Shutdown` errors.
    pub drain_timeout: Duration,
    /// Cascade escalation threshold: triage margins inside
    /// `(-threshold, threshold)` are confirmed by the full M-level
    /// pass (ignored while degraded or for M = 1 models).
    pub cascade_threshold: f32,
    /// Clip side length the model expects; other sizes are rejected
    /// `BadRequest`.
    pub input_size: usize,
    /// Per-frame payload ceiling.
    pub max_frame_len: usize,
    /// Post-swap watch window in batches.
    pub swap_window: usize,
    /// Failed batches within the window that trigger rollback.
    pub swap_max_failures: usize,
    /// Flight-recorder capacity: how many completed request records the
    /// ring retains for `GET /debug/requests` and trace-id lookup.
    pub flight_capacity: usize,
    /// Rolling-window metrics: number of time slices and their
    /// duration.  Windowed p50/p95/p99 latency and request rate cover
    /// the last `window_slices × window_slice_ns` nanoseconds.
    pub window_slices: usize,
    pub window_slice_ns: u64,
    /// Drift-monitor tuning (baseline size, window, thresholds).
    pub drift: DriftConfig,
    /// When `true`, workers time every layer of the triage and confirm
    /// passes and export the timings
    /// (`serve_layer_triage_ns_total{slot=...}` and
    /// `serve_layer_confirm_*`) on the scrape.  The profiled passes run
    /// the same chunked engine as unprofiled ones, so replies are
    /// bit-identical.  Off by default: per-layer clocks cost a few
    /// percent of throughput.
    pub profile_layers: bool,
}

impl ServeConfig {
    /// Defaults for a model taking `input_size`-pixel clips.
    pub fn new(input_size: usize) -> Self {
        ServeConfig {
            workers: 2,
            max_batch: 16,
            queue_capacity: 64,
            high_water: 48,
            low_water: 16,
            degrade_enter_after: 3,
            degrade_exit_after: 3,
            default_deadline: Duration::from_secs(1),
            drain_timeout: Duration::from_secs(2),
            cascade_threshold: 1.0,
            input_size,
            max_frame_len: MAX_FRAME_LEN,
            swap_window: 16,
            swap_max_failures: 3,
            flight_capacity: 1024,
            window_slices: 6,
            window_slice_ns: 10_000_000_000, // 1-minute window
            drift: DriftConfig::default(),
            profile_layers: false,
        }
    }

    fn validate(&self) -> Result<(), String> {
        if self.workers == 0 || self.max_batch == 0 || self.queue_capacity == 0 {
            return Err("workers, max_batch and queue_capacity must be positive".into());
        }
        if !(self.low_water < self.high_water && self.high_water <= self.queue_capacity) {
            return Err(format!(
                "need low_water < high_water <= queue_capacity, got {} / {} / {}",
                self.low_water, self.high_water, self.queue_capacity
            ));
        }
        if self.input_size == 0 {
            return Err("input_size must be positive".into());
        }
        if !(self.cascade_threshold.is_finite() && self.cascade_threshold >= 0.0) {
            return Err(format!(
                "cascade_threshold must be finite and non-negative, got {}",
                self.cascade_threshold
            ));
        }
        if self.swap_max_failures == 0 || self.swap_max_failures > self.swap_window {
            return Err("need 0 < swap_max_failures <= swap_window".into());
        }
        if self.flight_capacity == 0 {
            return Err("flight_capacity must be positive".into());
        }
        if self.window_slices == 0 || self.window_slice_ns == 0 {
            return Err("window_slices and window_slice_ns must be positive".into());
        }
        Ok(())
    }
}

/// What an admitted job asks the workers to compute.
enum JobPayload {
    /// Classify one pre-converted ±1 clip.
    Classify {
        /// The clip as signed floats, ready for the plan.
        input: Vec<f32>,
    },
    /// Scan a full-chip raster with the streaming scanner.
    Scan {
        /// The chip bitmap.
        image: BitImage,
        /// Window grid stride in pixels.
        stride: u32,
    },
}

/// One admitted job (classification or full-chip scan).
struct Job {
    id: u64,
    payload: JobPayload,
    deadline: Instant,
    enqueued: Instant,
    reply: mpsc::Sender<Vec<u8>>,
    /// The flight-recorder record under construction: carries the
    /// trace id and accumulates per-stage durations as the job moves
    /// admission → queue → batch → dispatch → inference → reply.
    rec: RequestRecord,
    /// Clock reading at enqueue, for the queue-wait stage.
    queued_ns: u64,
}

/// Pre-registered metric handles (one registry lookup each, at
/// startup).
struct ServeMetrics {
    requests: Counter,
    responses: Counter,
    deadline_miss: Counter,
    shed: Counter,
    panics: Counter,
    swaps: Counter,
    rollbacks: Counter,
    bad_frames: Counter,
    degraded: Gauge,
    queue_depth: Gauge,
    latency_ns: Histogram,
    batch_fill: Histogram,
    queue_depth_sampled: Histogram,
    /// Rolling-window views, refreshed at scrape time from the
    /// windowed latency histogram.
    window_p50: Gauge,
    window_p95: Gauge,
    window_p99: Gauge,
    window_rate: Gauge,
}

impl ServeMetrics {
    fn new(registry: &MetricsRegistry, config: &ServeConfig) -> Self {
        ServeMetrics {
            requests: registry.counter("serve_requests_total"),
            responses: registry.counter("serve_responses_total"),
            deadline_miss: registry.counter("serve_deadline_miss_total"),
            shed: registry.counter("serve_shed_total"),
            panics: registry.counter("serve_worker_panics_total"),
            swaps: registry.counter("serve_swaps_total"),
            rollbacks: registry.counter("serve_rollbacks_total"),
            bad_frames: registry.counter("serve_bad_frames_total"),
            degraded: registry.gauge("serve_degraded"),
            queue_depth: registry.gauge("serve_queue_depth"),
            latency_ns: registry.histogram("serve_latency_ns", &serving_latency_ns_buckets()),
            batch_fill: registry.histogram("serve_batch_fill", &depth_buckets(config.max_batch)),
            queue_depth_sampled: registry.histogram(
                "serve_queue_depth_sampled",
                &depth_buckets(config.queue_capacity),
            ),
            window_p50: registry.gauge("serve_latency_window_p50_ns"),
            window_p95: registry.gauge("serve_latency_window_p95_ns"),
            window_p99: registry.gauge("serve_latency_window_p99_ns"),
            window_rate: registry.gauge("serve_request_rate_per_sec"),
        }
    }
}

struct Shared {
    config: ServeConfig,
    queue: BoundedQueue<Job>,
    slot: ModelSlot,
    fault: Arc<FaultPlan>,
    registry: Arc<MetricsRegistry>,
    degrade: DegradeController,
    monitor: SwapMonitor,
    ws_pool: WorkspacePool,
    shutdown: AtomicBool,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
    m: ServeMetrics,
    /// One clock for every request-scoped timestamp, so stage
    /// durations across threads share a timebase.
    clock: Arc<dyn Clock>,
    /// Completed-request ring for `GET /debug/requests` and trace-id
    /// lookup.
    flight: FlightRecorder,
    /// Rolling-window latency distribution (last N seconds), the
    /// source of the `serve_latency_window_*` gauges.
    latency_window: WindowedHistogram,
    /// Prediction-margin / escalation-rate drift vs the baseline
    /// captured after each model load or swap.
    drift: DriftMonitor,
}

/// What shutdown observed while draining.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Jobs still queued when the drain timeout expired; each was
    /// answered with a typed `Shutdown` error.
    pub flushed: usize,
}

/// A running hotspot-serving instance (see module docs).  Construct
/// with [`Server::start`], stop with [`Server::shutdown`].
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    listener: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds a loopback listener on an OS-assigned port, compiles
    /// `model`'s cascade for `config.input_size` clips, and starts
    /// serving it.
    ///
    /// # Errors
    ///
    /// Returns `io::Error` when the socket cannot be bound or the
    /// configuration is invalid (surfaced as `InvalidInput`).
    pub fn start(config: ServeConfig, model: PackedBnn) -> io::Result<Server> {
        config
            .validate()
            .map_err(|m| io::Error::new(io::ErrorKind::InvalidInput, m))?;
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let registry = Arc::new(MetricsRegistry::new());
        let m = ServeMetrics::new(&registry, &config);
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock);
        let drift = DriftMonitor::with_clock(config.drift.clone(), clock.clone());
        drift.bind_gauge(registry.gauge("serve_drift_divergence"));
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_capacity),
            slot: ModelSlot::new(Cascade::new(&model, config.input_size)),
            fault: Arc::new(FaultPlan::new()),
            registry,
            degrade: DegradeController::new(
                config.high_water,
                config.low_water,
                config.degrade_enter_after,
                config.degrade_exit_after,
            ),
            monitor: SwapMonitor::new(config.swap_window, config.swap_max_failures),
            // Only the workers check workspaces out, so the bound can
            // never block; it exists to catch accounting bugs loudly.
            ws_pool: WorkspacePool::bounded(config.workers),
            shutdown: AtomicBool::new(false),
            conn_threads: Mutex::new(Vec::new()),
            m,
            flight: FlightRecorder::new(config.flight_capacity),
            latency_window: WindowedHistogram::with_clock(
                config.window_slices,
                config.window_slice_ns,
                &serving_latency_ns_buckets(),
                clock.clone(),
            ),
            drift,
            clock,
            config,
        });
        let workers = (0..shared.config.workers)
            .map(|i| {
                let shared = shared.clone();
                thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        let accept_shared = shared.clone();
        let listener_thread = thread::Builder::new()
            .name("serve-listener".into())
            .spawn(move || accept_loop(&listener, &accept_shared))
            .expect("spawn listener");
        Ok(Server {
            addr,
            shared,
            listener: Some(listener_thread),
            workers,
        })
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The fault-injection plan (armed by tests; inert by default).
    pub fn fault(&self) -> Arc<FaultPlan> {
        self.shared.fault.clone()
    }

    /// The server's metrics registry.
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        self.shared.registry.clone()
    }

    /// The model generation currently serving.
    pub fn generation(&self) -> u64 {
        self.shared.slot.generation()
    }

    /// `true` while the service is in triage-only degradation.
    pub fn is_degraded(&self) -> bool {
        self.shared.degrade.is_degraded()
    }

    /// The flight recorder holding completed request records (the
    /// in-process view of `GET /debug/requests`).
    pub fn flight(&self) -> &FlightRecorder {
        &self.shared.flight
    }

    /// The prediction-drift monitor for the serving model.
    pub fn drift(&self) -> &DriftMonitor {
        &self.shared.drift
    }

    /// Recent degradation-mode transitions (clock-stamped).
    pub fn degrade_transitions(&self) -> Vec<crate::degrade::DegradeTransition> {
        self.shared.degrade.transitions()
    }

    /// Stops the server: closes admission, drains in-flight jobs for
    /// up to the configured drain timeout, flushes anything left with
    /// typed `Shutdown` errors, and joins every thread.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue.close();
        let deadline = Instant::now() + self.shared.config.drain_timeout;
        while !self.shared.queue.is_empty() && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        let leftovers = self.shared.queue.drain_remaining();
        let flushed = leftovers.len();
        // Consume each job as it is flushed: a retained `Job` would keep
        // its reply sender alive past the joins below, and a connection
        // writer thread only exits once every sender has dropped.
        for job in leftovers {
            let resp = Response::Error {
                id: job.id,
                code: ErrorCode::Shutdown,
                msg: "server is shutting down".into(),
            };
            finish(&self.shared, job, resp, Outcome::Shutdown);
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // A throwaway connection unblocks the accept loop so it can
        // observe the shutdown flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(listener) = self.listener.take() {
            let _ = listener.join();
        }
        let conns = {
            let mut guard = self
                .shared
                .conn_threads
                .lock()
                .unwrap_or_else(|p| p.into_inner());
            std::mem::take(&mut *guard)
        };
        for c in conns {
            let _ = c.join();
        }
        ShutdownReport { flushed }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let conn_shared = shared.clone();
                let handle = thread::Builder::new()
                    .name("serve-conn".into())
                    .spawn(move || handle_connection(stream, &conn_shared))
                    .expect("spawn connection handler");
                shared
                    .conn_threads
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .push(handle);
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

enum ReadOutcome {
    Full,
    /// Peer closed (possibly mid-frame — a truncated frame simply ends
    /// the connection; no request was formed, so nothing is owed).
    Eof,
    Shutdown,
}

/// Fills `buf` from the stream, tolerating read timeouts (used to poll
/// the shutdown flag) and partial reads.
fn read_full(stream: &mut TcpStream, buf: &mut [u8], shutdown: &AtomicBool) -> ReadOutcome {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return ReadOutcome::Eof,
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    return ReadOutcome::Shutdown;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return ReadOutcome::Eof,
        }
    }
    ReadOutcome::Full
}

fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL));
    // Writer thread: responses (possibly produced by several workers)
    // funnel through one channel so frames never interleave.  It exits
    // when every sender — the reader below plus any in-flight jobs —
    // has dropped.
    let (tx, rx) = mpsc::channel::<Vec<u8>>();
    let mut write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let writer = thread::Builder::new()
        .name("serve-conn-writer".into())
        .spawn(move || {
            while let Ok(frame) = rx.recv() {
                if proto::write_frame(&mut write_half, &frame).is_err() {
                    // Client gone; keep draining so senders never block.
                }
            }
        })
        .expect("spawn connection writer");
    shared
        .conn_threads
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .push(writer);

    loop {
        let mut prefix = [0u8; 4];
        match read_full(&mut stream, &mut prefix, &shared.shutdown) {
            ReadOutcome::Full => {}
            ReadOutcome::Eof | ReadOutcome::Shutdown => break,
        }
        if &prefix == b"GET " {
            serve_http(&mut stream, shared);
            break;
        }
        let len = u32::from_le_bytes(prefix) as usize;
        if len > shared.config.max_frame_len {
            shared.m.bad_frames.inc();
            send_error(
                &tx,
                0,
                ErrorCode::CorruptFrame,
                format!(
                    "frame length {len} exceeds the {}-byte limit",
                    shared.config.max_frame_len
                ),
            );
            break;
        }
        let mut payload = vec![0u8; len];
        match read_full(&mut stream, &mut payload, &shared.shutdown) {
            ReadOutcome::Full => {}
            ReadOutcome::Eof | ReadOutcome::Shutdown => break,
        }
        match decode_request(&payload) {
            Ok(req) => {
                if !dispatch_request(req, &tx, shared) {
                    break;
                }
            }
            Err(e) => {
                shared.m.bad_frames.inc();
                send_error(&tx, 0, ErrorCode::CorruptFrame, e.0);
                break;
            }
        }
    }
    // Dropping `tx` lets the writer exit once in-flight jobs finish.
}

/// Handles one decoded request; returns `false` when the connection
/// should close.
fn dispatch_request(req: Request, tx: &mpsc::Sender<Vec<u8>>, shared: &Arc<Shared>) -> bool {
    match req {
        Request::Ping { id } => {
            let _ = tx.send(encode_response(&Response::Pong { id }));
        }
        Request::Metrics => {
            let text = metrics_text(shared);
            let _ = tx.send(encode_response(&Response::MetricsText(text)));
        }
        Request::Stats { id } => {
            let _ = tx.send(encode_response(&Response::Stats {
                id,
                generation: shared.slot.generation(),
                degraded: shared.degrade.is_degraded(),
                queue_depth: shared.queue.len() as u64,
            }));
        }
        Request::SwapModel { id, path } => handle_swap(id, path, tx, shared),
        Request::Classify {
            id,
            deadline_ms,
            width,
            height,
            words,
            trace_id,
        } => return admit_classify(id, deadline_ms, width, height, words, trace_id, tx, shared),
        Request::Scan {
            id,
            deadline_ms,
            stride,
            width,
            height,
            words,
            trace_id,
        } => {
            return admit_scan(
                id,
                deadline_ms,
                stride,
                width,
                height,
                words,
                trace_id,
                tx,
                shared,
            )
        }
    }
    true
}

fn handle_swap(id: u64, path: String, tx: &mpsc::Sender<Vec<u8>>, shared: &Arc<Shared>) {
    if shared.shutdown.load(Ordering::SeqCst) {
        send_error(
            tx,
            id,
            ErrorCode::Shutdown,
            "server is shutting down".into(),
        );
        return;
    }
    let path = PathBuf::from(path);
    match validate_and_swap(&shared.slot, &path, shared.config.input_size, &shared.fault) {
        Ok((generation, prev)) => {
            shared.monitor.begin_watch(generation, prev);
            shared.m.swaps.inc();
            // The published model defines a new "normal": the drift
            // monitor recollects its baseline against it.
            shared.drift.rebaseline();
            trace::dispatch_event(
                "serve.swap",
                &[("generation", trace::Value::from(generation))],
            );
            let _ = tx.send(encode_response(&Response::SwapOk { id, generation }));
        }
        Err(e) => send_error(tx, id, ErrorCode::SwapFailed, e.to_string()),
    }
}

/// Validates and enqueues a classify request.  Always answers the
/// request (immediately on rejection, via a worker on admission).
///
/// Tracing starts here: the client's trace id is honored when present,
/// otherwise one is minted, and the admission stage (validate + raster
/// conversion + enqueue) is the record's first timing.
#[allow(clippy::too_many_arguments)]
fn admit_classify(
    id: u64,
    deadline_ms: u32,
    width: u32,
    height: u32,
    words: Vec<u64>,
    trace_id: u64,
    tx: &mpsc::Sender<Vec<u8>>,
    shared: &Arc<Shared>,
) -> bool {
    let t_admit = shared.clock.now_ns();
    shared.m.requests.inc();
    let side = shared.config.input_size;
    if width as usize != side || height as usize != side {
        send_error(
            tx,
            id,
            ErrorCode::BadRequest,
            format!("expected a {side}x{side} clip, got {width}x{height}"),
        );
        return true;
    }
    let image = match BitImage::from_words(width as usize, height as usize, words) {
        Ok(img) => img,
        Err(e) => {
            send_error(tx, id, ErrorCode::BadRequest, e);
            return true;
        }
    };
    let payload = JobPayload::Classify {
        input: image.to_signed_f32(),
    };
    enqueue_job(id, deadline_ms, trace_id, payload, t_admit, tx, shared);
    true
}

/// Validates and enqueues a full-chip scan request.  Scans share the
/// classify queue, deadline enforcement, and shedding: one chip is one
/// job.
#[allow(clippy::too_many_arguments)]
fn admit_scan(
    id: u64,
    deadline_ms: u32,
    stride: u32,
    width: u32,
    height: u32,
    words: Vec<u64>,
    trace_id: u64,
    tx: &mpsc::Sender<Vec<u8>>,
    shared: &Arc<Shared>,
) -> bool {
    let t_admit = shared.clock.now_ns();
    shared.m.requests.inc();
    if stride == 0 {
        send_error(
            tx,
            id,
            ErrorCode::BadRequest,
            "stride must be positive".into(),
        );
        return true;
    }
    if width == 0 || height == 0 {
        send_error(
            tx,
            id,
            ErrorCode::BadRequest,
            format!("chip must be non-empty, got {width}x{height}"),
        );
        return true;
    }
    let image = match BitImage::from_words(width as usize, height as usize, words) {
        Ok(img) => img,
        Err(e) => {
            send_error(tx, id, ErrorCode::BadRequest, e);
            return true;
        }
    };
    enqueue_job(
        id,
        deadline_ms,
        trace_id,
        JobPayload::Scan { image, stride },
        t_admit,
        tx,
        shared,
    );
    true
}

/// Shared admission tail: stamps deadline and trace, enqueues, and
/// answers immediately on shed/shutdown.
fn enqueue_job(
    id: u64,
    deadline_ms: u32,
    trace_id: u64,
    payload: JobPayload,
    t_admit: u64,
    tx: &mpsc::Sender<Vec<u8>>,
    shared: &Arc<Shared>,
) {
    let now = Instant::now();
    let budget = if deadline_ms == 0 {
        shared.config.default_deadline
    } else {
        Duration::from_millis(u64::from(deadline_ms))
    };
    let trace_id = if trace_id != 0 {
        trace_id
    } else {
        next_trace_id()
    };
    let mut rec = RequestRecord::new(trace_id, id, t_admit);
    let queued_ns = shared.clock.now_ns();
    rec.mark(Stage::Admission, queued_ns.saturating_sub(t_admit));
    let job = Job {
        id,
        payload,
        deadline: now + budget,
        enqueued: now,
        reply: tx.clone(),
        rec,
        queued_ns,
    };
    match shared.queue.push(job) {
        Ok(depth) => {
            let degraded = shared.degrade.observe(depth);
            shared.m.degraded.set(if degraded { 1.0 } else { 0.0 });
            shared.m.queue_depth.set(depth as f64);
            shared.m.queue_depth_sampled.observe(depth as f64);
        }
        Err(PushRejected::Full(job)) => {
            shared.m.shed.inc();
            // A full queue is also the strongest overload signal the
            // ladder can see.
            let degraded = shared.degrade.observe(shared.queue.capacity());
            shared.m.degraded.set(if degraded { 1.0 } else { 0.0 });
            let resp = Response::Error {
                id: job.id,
                code: ErrorCode::Overloaded,
                msg: "queue is at capacity".into(),
            };
            finish(shared, job, resp, Outcome::Shed);
        }
        Err(PushRejected::Closed(job)) => {
            let resp = Response::Error {
                id: job.id,
                code: ErrorCode::Shutdown,
                msg: "server is shutting down".into(),
            };
            finish(shared, job, resp, Outcome::Shutdown);
        }
    }
}

/// Ceiling on HTTP request bytes read after the sniffed `GET ` prefix
/// (path + headers); anything longer is answered 404 and dropped.
const MAX_HTTP_REQUEST: usize = 8 * 1024;

/// Reads the rest of an HTTP request (we already consumed `"GET "`)
/// and returns the request path, or `None` if the request never
/// completes within bounds.  The stream has a read timeout, so the
/// loop also notices server shutdown.
fn read_http_path(stream: &mut TcpStream, shutdown: &AtomicBool) -> Option<String> {
    let mut buf = Vec::with_capacity(256);
    let mut chunk = [0u8; 512];
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
        if buf.len() > MAX_HTTP_REQUEST {
            return None;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break, // EOF: parse whatever arrived
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    return None;
                }
                // A bare `GET /path HTTP/1.0\r\n` with no trailing
                // blank line is still parseable once the line is in.
                if buf.windows(2).any(|w| w == b"\r\n") {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    }
    // `buf` starts at the path: the `GET ` prefix was the sniff.
    let end = buf.iter().position(|&b| b == b' ' || b == b'\r')?;
    String::from_utf8(buf[..end].to_vec()).ok()
}

/// Builds a complete `HTTP/1.1` response with correct framing headers.
fn http_response(status: &str, content_type: &str, body: &str) -> String {
    format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

/// Refreshes the rolling-window gauges and renders the Prometheus
/// text.  Shared by the HTTP scrape and the binary `Metrics` request,
/// so both views agree.
fn metrics_text(shared: &Shared) -> String {
    let snap = shared.latency_window.snapshot();
    shared.m.window_p50.set(snap.quantile(0.50).unwrap_or(0.0));
    shared.m.window_p95.set(snap.quantile(0.95).unwrap_or(0.0));
    shared.m.window_p99.set(snap.quantile(0.99).unwrap_or(0.0));
    shared
        .m
        .window_rate
        .set(shared.latency_window.rate_per_sec());
    // Keep the drift gauge fresh even when traffic has stopped.
    shared.drift.compare();
    shared.registry.to_prometheus()
}

/// Answers one HTTP request on the sniffed connection, then closes it:
/// `/metrics` (Prometheus text with windowed quantiles), `/healthz`
/// (liveness JSON incl. queue depth and degrade state),
/// `/debug/requests` (the flight recorder as JSONL), 404 otherwise.
fn serve_http(stream: &mut TcpStream, shared: &Arc<Shared>) {
    let path = match read_http_path(stream, &shared.shutdown) {
        Some(p) => p,
        None => return,
    };
    let response = match path.split('?').next().unwrap_or("") {
        "/metrics" => http_response("200 OK", "text/plain; version=0.0.4", &metrics_text(shared)),
        "/healthz" => {
            let body = format!(
                "{{\"status\":\"ok\",\"queue_depth\":{},\"degraded\":{},\
                 \"generation\":{},\"flight_recorded\":{}}}\n",
                shared.queue.len(),
                shared.degrade.is_degraded(),
                shared.slot.generation(),
                shared.flight.total_recorded(),
            );
            http_response("200 OK", "application/json", &body)
        }
        "/debug/requests" => {
            http_response("200 OK", "application/x-ndjson", &shared.flight.to_jsonl())
        }
        _ => http_response("404 Not Found", "text/plain", "not found\n"),
    };
    let _ = stream.write_all(response.as_bytes());
}

fn send_error(tx: &mpsc::Sender<Vec<u8>>, id: u64, code: ErrorCode, msg: String) {
    let _ = tx.send(encode_response(&Response::Error { id, code, msg }));
}

/// Sends `resp` for `job`, records response metrics, closes out the
/// job's flight record (reply stage + outcome), and files it in the
/// recorder.  Consumes the job: a request is finished exactly once.
fn finish(shared: &Shared, mut job: Job, resp: Response, outcome: Outcome) {
    let t_reply = shared.clock.now_ns();
    let _ = job.reply.send(encode_response(&resp));
    shared.m.responses.inc();
    let latency = job.enqueued.elapsed().as_nanos() as f64;
    shared.m.latency_ns.observe(latency);
    shared.latency_window.observe(latency);
    job.rec
        .mark(Stage::Reply, shared.clock.now_ns().saturating_sub(t_reply));
    job.rec.outcome = outcome;
    shared.flight.record(job.rec);
}

/// Signed nanoseconds from `now` to `deadline` (negative = missed).
fn slack_ns(deadline: Instant, now: Instant) -> i64 {
    if deadline >= now {
        deadline.duration_since(now).as_nanos() as i64
    } else {
        -(now.duration_since(deadline).as_nanos() as i64)
    }
}

/// Completes a successfully classified job: stamps the cascade
/// outcome `(margin, escalated)` on its flight record, feeds the drift
/// monitor, and replies.
fn finish_classified(shared: &Shared, mut job: Job, r: (f32, bool), degraded: bool, levels: u8) {
    let (margin, escalated) = r;
    job.rec.escalated = escalated;
    job.rec.degraded = degraded;
    // M-level actually spent on this clip: the full ladder when the
    // cascade escalated it, the M = 1 triage pass otherwise.
    job.rec.m_level = if escalated { levels } else { 1 };
    shared.drift.observe(f64::from(margin), escalated);
    let resp = Response::Classify {
        id: job.id,
        hotspot: margin >= 0.0,
        margin,
        degraded,
        escalated,
        trace_id: job.rec.trace_id,
    };
    finish(shared, job, resp, Outcome::Ok);
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(batch) = shared.queue.pop_batch(shared.config.max_batch) {
        let t_pop = shared.clock.now_ns();
        shared.m.queue_depth.set(shared.queue.len() as f64);
        if let Some(ms) = shared.fault.slow_worker_ms() {
            thread::sleep(Duration::from_millis(ms));
        }
        // Deadline enforcement happens at dispatch: a job that expired
        // while queued is answered without paying for inference.
        let now = Instant::now();
        let mut live = Vec::with_capacity(batch.len());
        let mut expired = Vec::new();
        for mut job in batch {
            job.rec
                .mark(Stage::QueueWait, t_pop.saturating_sub(job.queued_ns));
            job.rec.deadline_slack_ns = slack_ns(job.deadline, now);
            if job.deadline <= now {
                expired.push(job);
            } else {
                live.push(job);
            }
        }
        let t_formed = shared.clock.now_ns();
        let batch_ns = t_formed.saturating_sub(t_pop);
        for mut job in expired {
            shared.m.deadline_miss.inc();
            // The timeline is complete and truthful: the job reached
            // batch formation, and zero nanoseconds went to dispatch
            // or inference.
            job.rec.mark(Stage::Batch, batch_ns);
            job.rec.mark(Stage::Dispatch, 0);
            job.rec.mark(Stage::Inference, 0);
            job.rec.degraded = shared.degrade.is_degraded();
            let resp = Response::Error {
                id: job.id,
                code: ErrorCode::Deadline,
                msg: "deadline expired while queued".into(),
            };
            finish(shared, job, resp, Outcome::Deadline);
        }
        if live.is_empty() {
            continue;
        }
        let batch_size = live.len() as u32;
        shared.m.batch_fill.observe(f64::from(batch_size));
        let degraded = shared.degrade.is_degraded();
        let (cascade, generation) = shared.slot.current();
        let levels = cascade.levels().max(1) as u8;
        let t_dispatched = shared.clock.now_ns();
        for job in &mut live {
            job.rec.mark(Stage::Batch, batch_ns);
            job.rec
                .mark(Stage::Dispatch, t_dispatched.saturating_sub(t_formed));
            job.rec.batch_size = batch_size;
        }
        // Clips batch together; each scan is its own unit of isolation.
        let (classify, scans): (Vec<Job>, Vec<Job>) = live
            .into_iter()
            .partition(|j| matches!(j.payload, JobPayload::Classify { .. }));
        if !classify.is_empty() {
            match run_batch(shared, &cascade, generation, &classify, degraded) {
                Ok(results) => {
                    let infer_ns = shared.clock.now_ns().saturating_sub(t_dispatched);
                    handle_verdict(
                        shared,
                        shared.monitor.record(&shared.slot, generation, true),
                    );
                    for (mut job, r) in classify.into_iter().zip(results) {
                        job.rec.mark(Stage::Inference, infer_ns);
                        finish_classified(shared, job, r, degraded, levels);
                    }
                }
                Err(()) => {
                    // Panic isolation: retry each job alone (against the
                    // *current* model — a rollback may just have happened)
                    // so only the culpable request fails.
                    for mut job in classify {
                        let (cascade, generation) = shared.slot.current();
                        let levels = cascade.levels().max(1) as u8;
                        match run_batch(
                            shared,
                            &cascade,
                            generation,
                            std::slice::from_ref(&job),
                            degraded,
                        ) {
                            Ok(mut results) => {
                                let r = results.pop().expect("one result for one job");
                                // Inference cost includes the failed batch
                                // attempt this clip was part of.
                                job.rec.mark(
                                    Stage::Inference,
                                    shared.clock.now_ns().saturating_sub(t_dispatched),
                                );
                                finish_classified(shared, job, r, degraded, levels);
                            }
                            Err(()) => {
                                job.rec.mark(
                                    Stage::Inference,
                                    shared.clock.now_ns().saturating_sub(t_dispatched),
                                );
                                job.rec.degraded = degraded;
                                let resp = Response::Error {
                                    id: job.id,
                                    code: ErrorCode::Internal,
                                    msg: "worker panicked while classifying this clip".into(),
                                };
                                finish(shared, job, resp, Outcome::Internal);
                            }
                        }
                    }
                }
            }
        }
        for mut job in scans {
            match run_scan(shared, &cascade, generation, &job, degraded) {
                Ok(report) => {
                    handle_verdict(
                        shared,
                        shared.monitor.record(&shared.slot, generation, true),
                    );
                    job.rec.mark(
                        Stage::Inference,
                        shared.clock.now_ns().saturating_sub(t_dispatched),
                    );
                    finish_scanned(shared, job, &report, degraded, levels);
                }
                Err(()) => {
                    // One retry against the current slot (a rollback may
                    // just have replaced a poisoned generation).
                    let (cascade, generation) = shared.slot.current();
                    let levels = cascade.levels().max(1) as u8;
                    match run_scan(shared, &cascade, generation, &job, degraded) {
                        Ok(report) => {
                            job.rec.mark(
                                Stage::Inference,
                                shared.clock.now_ns().saturating_sub(t_dispatched),
                            );
                            finish_scanned(shared, job, &report, degraded, levels);
                        }
                        Err(()) => {
                            job.rec.mark(
                                Stage::Inference,
                                shared.clock.now_ns().saturating_sub(t_dispatched),
                            );
                            job.rec.degraded = degraded;
                            let resp = Response::Error {
                                id: job.id,
                                code: ErrorCode::Internal,
                                msg: "worker panicked while scanning this chip".into(),
                            };
                            finish(shared, job, resp, Outcome::Internal);
                        }
                    }
                }
            }
        }
    }
}

fn handle_verdict(shared: &Shared, verdict: SwapVerdict) {
    if let SwapVerdict::RolledBack {
        failed,
        restored_as,
    } = verdict
    {
        shared.m.rollbacks.inc();
        // A rollback changes the serving model too: recollect the
        // drift baseline against the restored generation.
        shared.drift.rebaseline();
        trace::dispatch_event(
            "serve.rollback",
            &[
                ("failed_generation", trace::Value::from(failed)),
                ("restored_as", trace::Value::from(restored_as)),
            ],
        );
    }
}

/// Runs `work` for `jobs` under `catch_unwind`, after the fault plan's
/// poison checks.  Workspace accounting survives a panic: the arena is
/// moved into the closure and a fresh one is restored to the pool if
/// it is lost.  A panic counts against `generation` in the metrics and
/// the swap monitor before `Err` returns.
fn isolated<T>(
    shared: &Shared,
    generation: u64,
    jobs: &[Job],
    work: impl FnOnce(&mut Workspace) -> T,
) -> Result<T, ()> {
    let ws = shared.ws_pool.checkout();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut ws = ws;
        for job in jobs {
            if shared.fault.is_poisoned_request(job.id) {
                panic!("injected fault: poisoned request {}", job.id);
            }
        }
        if shared.fault.is_poisoned_generation(generation) {
            panic!("injected fault: poisoned model generation {generation}");
        }
        (work(&mut ws), ws)
    }));
    match outcome {
        Ok((out, ws)) => {
            shared.ws_pool.restore(ws);
            Ok(out)
        }
        Err(_) => {
            // The workspace died with the panic; keep the bounded
            // pool's outstanding count honest with a fresh arena.
            shared.ws_pool.restore(Workspace::new());
            shared.m.panics.inc();
            handle_verdict(
                shared,
                shared.monitor.record(&shared.slot, generation, false),
            );
            Err(())
        }
    }
}

/// Runs the cascade over a batch of clips, [`isolated`].
fn run_batch(
    shared: &Shared,
    cascade: &Cascade,
    generation: u64,
    jobs: &[Job],
    degraded: bool,
) -> Result<Vec<(f32, bool)>, ()> {
    isolated(shared, generation, jobs, |ws| {
        classify_batch(shared, cascade, jobs, degraded, ws)
    })
}

/// Runs one full-chip scan with the slot's `cascade`, [`isolated`].
/// Every window runs the same triage → confirm cascade; degradation
/// maps to triage-only scanning.
fn run_scan(
    shared: &Shared,
    cascade: &Cascade,
    generation: u64,
    job: &Job,
    degraded: bool,
) -> Result<ScanReport, ()> {
    isolated(shared, generation, std::slice::from_ref(job), |ws| {
        let JobPayload::Scan { image, stride } = &job.payload else {
            panic!("scan worker got a non-scan job");
        };
        let config = ScanConfig {
            stride: *stride as usize,
            cascade_threshold: shared.config.cascade_threshold,
            triage_only: degraded,
            dedup: true,
        };
        scan_chip(cascade, &config, image, ws)
    })
}

/// Completes a scan job: stamps the flight record (a scan is its own
/// batch of one; escalation means any window escalated) and replies
/// with the merged regions.  Scans skip the drift monitor — its
/// baseline models per-clip margins, not per-window grids.
fn finish_scanned(shared: &Shared, mut job: Job, report: &ScanReport, degraded: bool, levels: u8) {
    job.rec.escalated = report.escalated > 0;
    job.rec.degraded = degraded;
    job.rec.m_level = if report.escalated > 0 { levels } else { 1 };
    let regions: Vec<ScanHit> = report
        .regions
        .iter()
        .map(|r| ScanHit {
            x0: r.x0 as u32,
            y0: r.y0 as u32,
            x1: r.x1 as u32,
            y1: r.y1 as u32,
            score: r.score,
            windows: r.windows as u32,
        })
        .collect();
    trace::dispatch_event(
        "serve.scan",
        &[
            ("trace_id", trace::Value::from(job.rec.trace_id)),
            ("windows", trace::Value::from(report.windows)),
            ("regions", trace::Value::from(regions.len())),
            ("escalated", trace::Value::from(report.escalated)),
            ("degraded", trace::Value::from(degraded)),
        ],
    );
    let resp = Response::ScanRegions {
        id: job.id,
        regions,
        windows: report.windows as u32,
        escalated: report.escalated as u32,
        degraded,
        trace_id: job.rec.trace_id,
    };
    finish(shared, job, resp, Outcome::Ok);
}

/// One batch through the cascade: stages the clips' ±1 inputs, runs
/// [`Cascade::run`] once — at threshold 0 while degraded, so only the
/// triage pass runs — and reports the batch as a `serve.batch` event.
/// Returns each clip's `(margin, escalated)`.
fn classify_batch(
    shared: &Shared,
    cascade: &Cascade,
    jobs: &[Job],
    degraded: bool,
    ws: &mut Workspace,
) -> Vec<(f32, bool)> {
    let plane = cascade.side() * cascade.side();
    let n = jobs.len();
    let mut input = ws.take_f32(n * plane);
    for (job, dst) in jobs.iter().zip(input.chunks_mut(plane)) {
        let JobPayload::Classify { input: clip } = &job.payload else {
            panic!("classify batch got a non-classify job");
        };
        dst.copy_from_slice(clip);
    }
    let threshold = if degraded {
        0.0
    } else {
        shared.config.cascade_threshold
    };
    let mut results = vec![(0.0f32, false); n];
    // Profiled or not, the batch runs the same cascade, so a profile
    // describes the code that serves.
    let mut prof = shared.config.profile_layers.then(|| cascade.profiler());
    cascade.run(&input, threshold, ws, &mut results, prof.as_mut());
    ws.give_f32(input);
    let escalated = results.iter().filter(|r| r.1).count();
    if let Some(p) = prof {
        let reg = &shared.registry;
        p.triage.export_to(reg, "serve_layer_triage", "slot");
        if escalated > 0 {
            p.confirm.export_to(reg, "serve_layer_confirm", "slot");
        }
    }
    // Stitch the batch into the trace stream: the first clip's trace
    // id anchors this event to the per-request timelines in the
    // flight recorder.
    trace::dispatch_event(
        "serve.batch",
        &[
            (
                "first_trace_id",
                trace::Value::from(jobs.first().map_or(0, |j| j.rec.trace_id)),
            ),
            ("clips", trace::Value::from(n)),
            ("escalated", trace::Value::from(escalated)),
            ("degraded", trace::Value::from(degraded)),
        ],
    );
    results
}
