//! The long-lived micro-batching forecast service.
//!
//! One dispatcher thread owns an MPSC receiver. Clients submit
//! [`ForecastRequest`]s through cheap cloneable [`ServeClient`] handles
//! and get back [`ForecastTicket`]s they can block on. The dispatcher
//! accumulates requests into a micro-batch and flushes when either the
//! batch is full ([`BatchPolicy::max_batch`]) or the oldest queued
//! request has waited [`BatchPolicy::max_delay`]. Each flush flattens
//! the batch into design rows and fans contiguous chunks across the
//! deterministic sharded executor, so a batch of n requests costs the
//! same tree walks as n serial calls but amortizes dispatch and runs on
//! every core — and, because each row's score depends only on that row,
//! the replies are bit-identical to serial scoring at *any* batch
//! split and worker count (the determinism proptest pins this).
//!
//! Admission is controlled at the front: a request with a NaN or
//! infinite feature is refused outright, an atomic in-flight depth
//! counter bounds the queue (typed [`ServeError::Overloaded`] when
//! full) and a sliding-window per-source [`RateLimiter`] sheds abusive
//! sources before their requests cost any scoring work.
//!
//! Every lock here guards state that is either updated in one step (the
//! admission gate, the rate limiter) or cleared before each use (the
//! worker scratch), so a lock poisoned by a panicking thread is
//! recovered rather than propagated to every later caller.

use crate::error::{Result, ServeError};
use crate::rate::{default_windows, RateLimiter, RateWindow};
use crate::store::ModelStore;
use ddos_astopo::Asn;
use ddos_cart::CartError;
use ddos_core::spatiotemporal::{
    AttackForecast, ForecastScratch, InstanceFeatures, SpatioTemporalModel,
};
use ddos_stats::exec::{map_indexed, resolve_parallelism};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// When the dispatcher flushes an accumulating micro-batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Flush as soon as this many requests are pending.
    pub max_batch: usize,
    /// Flush when the oldest pending request has waited this long, even
    /// if the batch is not full (bounds tail latency under light load).
    pub max_delay: Duration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy { max_batch: 64, max_delay: Duration::from_millis(2) }
    }
}

/// Configuration for [`ForecastService::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Micro-batch flush policy.
    pub batch: BatchPolicy,
    /// Maximum requests in flight (queued or being scored) before
    /// admission control returns [`ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// Worker threads per flush, as for the fitting pipeline: `None`
    /// means every available core, `Some(0)` is clamped to 1. Scoring is
    /// bit-identical at any setting.
    pub workers: Option<usize>,
    /// Per-source sliding admission windows; empty disables rate
    /// accounting entirely.
    pub rate_windows: Vec<RateWindow>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            batch: BatchPolicy::default(),
            queue_capacity: 4_096,
            workers: None,
            rate_windows: default_windows(),
        }
    }
}

impl ServeConfig {
    /// A config with rate accounting disabled — the common choice for
    /// trusted in-process callers and for determinism tests, where
    /// wall-clock admission would be a nondeterminism source.
    pub fn unlimited() -> Self {
        ServeConfig { rate_windows: Vec::new(), ..ServeConfig::default() }
    }
}

/// One forecast query: who is asking, which victim network it concerns,
/// and the assembled feature vector to score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForecastRequest {
    /// Opaque submitting-source identifier, the unit of rate accounting.
    pub source: u64,
    /// The target autonomous system the forecast concerns (carried
    /// through to the response untouched).
    pub target: Asn,
    /// The 13-dimensional spatiotemporal instance to score.
    pub features: InstanceFeatures,
}

/// The answer to one [`ForecastRequest`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForecastResponse {
    /// The target carried from the request.
    pub target: Asn,
    /// The clamped four-head forecast (hour, day, magnitude, duration).
    pub forecast: AttackForecast,
    /// How many requests shared this request's micro-batch — observability
    /// for tuning [`BatchPolicy`], with no effect on the scores.
    pub batch_len: usize,
    /// The service-assigned admission sequence number.
    pub seq: u64,
}

/// A claim on one in-flight forecast; redeem with [`ForecastTicket::wait`].
#[derive(Debug)]
pub struct ForecastTicket {
    rx: mpsc::Receiver<Result<ForecastResponse>>,
    seq: u64,
}

impl ForecastTicket {
    /// The admission sequence number this ticket will resolve to.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Blocks until the service answers.
    ///
    /// # Errors
    ///
    /// Whatever scoring error the batch hit, or
    /// [`ServeError::Disconnected`] if the service died first.
    pub fn wait(self) -> Result<ForecastResponse> {
        self.rx.recv().unwrap_or(Err(ServeError::Disconnected))
    }
}

/// One queued request travelling dispatcher-ward.
struct Envelope {
    seq: u64,
    target: Asn,
    features: InstanceFeatures,
    reply: mpsc::Sender<Result<ForecastResponse>>,
}

/// State shared between clients, the handle and the dispatcher.
#[derive(Debug)]
struct Shared {
    /// `None` once shutdown has begun; taking it closes the channel.
    tx: Mutex<Option<mpsc::Sender<Envelope>>>,
    /// Requests admitted but not yet answered.
    depth: AtomicUsize,
    capacity: usize,
    /// `None` when rate accounting is disabled.
    rate: Option<Mutex<RateLimiter>>,
    /// Origin for wall-clock logical time fed to the rate limiter.
    epoch: Instant,
    seq: AtomicU64,
    rejected_overload: AtomicUsize,
    rejected_rate: AtomicUsize,
}

/// Counters the dispatcher reports at shutdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests scored and answered.
    pub served: usize,
    /// Micro-batches flushed.
    pub batches: usize,
    /// The largest batch any flush scored.
    pub max_batch_len: usize,
    /// Requests refused by the depth bound.
    pub rejected_overload: usize,
    /// Requests refused by rate accounting.
    pub rejected_rate: usize,
}

/// Namespace for starting the service; see [`ForecastService::start`].
#[derive(Debug)]
pub struct ForecastService;

impl ForecastService {
    /// Loads `key` from `store` and spawns the dispatcher thread,
    /// returning the owning [`ServeHandle`]. The model is resolved once,
    /// up front — a broken artifact fails fast here, not per request.
    ///
    /// # Errors
    ///
    /// Any [`ModelStore::load`] failure.
    pub fn start(
        store: &Arc<dyn ModelStore>,
        key: &str,
        config: ServeConfig,
    ) -> Result<ServeHandle> {
        let model = store.load(key)?;
        Ok(Self::start_with_model(model, config))
    }

    /// Spawns the dispatcher over an already-resolved model.
    pub fn start_with_model(model: Arc<SpatioTemporalModel>, config: ServeConfig) -> ServeHandle {
        let (tx, rx) = mpsc::channel::<Envelope>();
        let rate = (!config.rate_windows.is_empty())
            .then(|| Mutex::new(RateLimiter::new(config.rate_windows.clone())));
        let shared = Arc::new(Shared {
            tx: Mutex::new(Some(tx)),
            depth: AtomicUsize::new(0),
            capacity: config.queue_capacity.max(1),
            rate,
            epoch: Instant::now(),
            seq: AtomicU64::new(0),
            rejected_overload: AtomicUsize::new(0),
            rejected_rate: AtomicUsize::new(0),
        });
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || dispatch_loop(&model, &config, &shared, &rx))
        };
        ServeHandle { shared, dispatcher: Some(dispatcher) }
    }
}

/// The owning handle: mints clients, and its [`shutdown`](ServeHandle::shutdown)
/// drains the queue before the dispatcher exits. Dropping without
/// shutdown also stops the service (the dispatcher still drains), just
/// without surfacing [`ServeStats`].
#[derive(Debug)]
pub struct ServeHandle {
    shared: Arc<Shared>,
    dispatcher: Option<JoinHandle<ServeStats>>,
}

impl ServeHandle {
    /// A cheap cloneable submission handle.
    pub fn client(&self) -> ServeClient {
        ServeClient { shared: Arc::clone(&self.shared) }
    }

    /// Closes admission, waits for the dispatcher to drain and answer
    /// every queued request, and returns its counters.
    ///
    /// # Errors
    ///
    /// [`ServeError::Disconnected`] if the dispatcher panicked.
    pub fn shutdown(mut self) -> Result<ServeStats> {
        self.close();
        let handle = self.dispatcher.take().expect("dispatcher already joined");
        let mut stats = handle.join().map_err(|_| ServeError::Disconnected)?;
        stats.rejected_overload = self.shared.rejected_overload.load(Ordering::Relaxed);
        stats.rejected_rate = self.shared.rejected_rate.load(Ordering::Relaxed);
        Ok(stats)
    }

    fn close(&self) {
        // Dropping the sender disconnects the channel; the dispatcher
        // flushes what it holds and exits.
        self.shared.tx.lock().unwrap_or_else(PoisonError::into_inner).take();
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.close();
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
    }
}

/// A cloneable submission endpoint over the shared admission state.
#[derive(Debug, Clone)]
pub struct ServeClient {
    shared: Arc<Shared>,
}

impl ServeClient {
    /// Submits one request at wall-clock time.
    ///
    /// # Errors
    ///
    /// [`ServeError::Cart`]`(`[`CartError::NonFiniteInput`]`)` when a
    /// feature is NaN or infinite, [`ServeError::Overloaded`],
    /// [`ServeError::RateLimited`], or [`ServeError::ShuttingDown`].
    pub fn submit(&self, request: ForecastRequest) -> Result<ForecastTicket> {
        let now = self.shared.epoch.elapsed().as_millis() as u64;
        self.submit_at(request, now)
    }

    /// Submits one request at an explicit logical time (milliseconds
    /// since service start), the deterministic entry the rate-limiting
    /// tests drive. `submit` is exactly this with the wall clock.
    ///
    /// # Errors
    ///
    /// As [`submit`](ServeClient::submit).
    pub fn submit_at(&self, request: ForecastRequest, now_millis: u64) -> Result<ForecastTicket> {
        finite(&request)?;
        self.admit_depth(1)?;
        if let Some(rate) = &self.shared.rate {
            let admitted = rate
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .admit(request.source, now_millis);
            if let Err(e) = admitted {
                self.shared.depth.fetch_sub(1, Ordering::AcqRel);
                self.shared.rejected_rate.fetch_add(1, Ordering::Relaxed);
                return Err(e);
            }
        }
        self.enqueue(request).inspect_err(|_| {
            self.shared.depth.fetch_sub(1, Ordering::AcqRel);
        })
    }

    /// Submits a batch all-or-nothing: either every request is admitted
    /// (one depth reservation, skipping per-source rate accounting) and
    /// tickets come back in order, or nothing is enqueued.
    ///
    /// # Errors
    ///
    /// [`ServeError::Cart`]`(`[`CartError::NonFiniteInput`]`)` when any
    /// request has a NaN or infinite feature (the batch is refused
    /// whole), [`ServeError::Overloaded`] or [`ServeError::ShuttingDown`];
    /// on error no request from the batch is in flight.
    pub fn submit_batch(&self, requests: &[ForecastRequest]) -> Result<Vec<ForecastTicket>> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        requests.iter().try_for_each(finite)?;
        self.admit_depth(requests.len())?;
        let mut tickets = Vec::with_capacity(requests.len());
        for (i, request) in requests.iter().enumerate() {
            match self.enqueue(*request) {
                Ok(t) => tickets.push(t),
                Err(e) => {
                    // Already-enqueued requests will still be answered;
                    // release only the unenqueued remainder.
                    self.shared.depth.fetch_sub(requests.len() - i, Ordering::AcqRel);
                    return Err(e);
                }
            }
        }
        Ok(tickets)
    }

    /// Requests currently in flight (admitted, not yet answered).
    pub fn in_flight(&self) -> usize {
        self.shared.depth.load(Ordering::Acquire)
    }

    fn admit_depth(&self, n: usize) -> Result<()> {
        let prev = self.shared.depth.fetch_add(n, Ordering::AcqRel);
        if prev + n > self.shared.capacity {
            self.shared.depth.fetch_sub(n, Ordering::AcqRel);
            self.shared.rejected_overload.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded { queued: prev, capacity: self.shared.capacity });
        }
        Ok(())
    }

    fn enqueue(&self, request: ForecastRequest) -> Result<ForecastTicket> {
        let seq = self.shared.seq.fetch_add(1, Ordering::Relaxed);
        let (reply_tx, reply_rx) = mpsc::channel();
        let envelope =
            Envelope { seq, target: request.target, features: request.features, reply: reply_tx };
        let gate = self.shared.tx.lock().unwrap_or_else(PoisonError::into_inner);
        match gate.as_ref() {
            Some(tx) => {
                tx.send(envelope).map_err(|_| ServeError::ShuttingDown)?;
                Ok(ForecastTicket { rx: reply_rx, seq })
            }
            None => Err(ServeError::ShuttingDown),
        }
    }
}

/// Refuses a request with a NaN or infinite feature before it costs any
/// admission or scoring work.
fn finite(request: &ForecastRequest) -> Result<()> {
    if request.features.is_finite() {
        Ok(())
    } else {
        Err(ServeError::Cart(CartError::NonFiniteInput))
    }
}

/// Per-worker reusable buffers: one traversal scratch and one output
/// vector per executor slot, reused across every flush of the service's
/// lifetime.
struct WorkerPool {
    slots: Vec<Mutex<(ForecastScratch, Vec<AttackForecast>)>>,
}

impl WorkerPool {
    fn new(workers: usize) -> Self {
        let mut slots = Vec::with_capacity(workers);
        slots.resize_with(workers, || Mutex::new((ForecastScratch::default(), Vec::new())));
        WorkerPool { slots }
    }
}

fn dispatch_loop(
    model: &SpatioTemporalModel,
    config: &ServeConfig,
    shared: &Shared,
    rx: &mpsc::Receiver<Envelope>,
) -> ServeStats {
    let max_batch = config.batch.max_batch.max(1);
    let workers = resolve_parallelism(config.workers);
    let pool = WorkerPool::new(workers);
    let mut stats = ServeStats::default();
    let mut pending: Vec<Envelope> = Vec::with_capacity(max_batch);
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(max_batch);
    let mut deadline: Option<Instant> = None;
    let mut open = true;

    while open {
        // Blocking receive when idle; deadline-bounded while a batch is
        // accumulating.
        let received = match deadline {
            None => rx.recv().map_err(|_| mpsc::RecvTimeoutError::Disconnected),
            Some(d) => {
                let budget = d.saturating_duration_since(Instant::now());
                rx.recv_timeout(budget)
            }
        };
        match received {
            Ok(envelope) => {
                if pending.is_empty() {
                    deadline = Some(Instant::now() + config.batch.max_delay);
                }
                pending.push(envelope);
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                flush(model, &pool, workers, &mut pending, &mut rows, shared, &mut stats);
                deadline = None;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => open = false,
        }
        if pending.len() >= max_batch {
            flush(model, &pool, workers, &mut pending, &mut rows, shared, &mut stats);
            deadline = None;
        }
    }
    // Admission is closed; drain whatever remains so every ticket
    // resolves before shutdown returns.
    flush(model, &pool, workers, &mut pending, &mut rows, shared, &mut stats);
    stats
}

/// Scores `pending` as one micro-batch and answers every envelope.
///
/// The batch is cut into `workers` contiguous chunk ranges fanned across
/// [`map_indexed`]; each chunk is scored with that executor slot's
/// long-lived scratch. Chunk boundaries cannot affect values — every
/// row's score is a pure function of that row — so this is bit-identical
/// to one serial `forecast_rows_into` over the whole batch.
fn flush(
    model: &SpatioTemporalModel,
    pool: &WorkerPool,
    workers: usize,
    pending: &mut Vec<Envelope>,
    rows: &mut Vec<Vec<f64>>,
    shared: &Shared,
    stats: &mut ServeStats,
) {
    if pending.is_empty() {
        return;
    }
    let n = pending.len();
    rows.clear();
    rows.extend(pending.iter().map(|e| e.features.to_row()));

    let workers = workers.min(n).max(1);
    let chunk_len = n.div_ceil(workers);
    let chunks: Vec<(usize, usize)> =
        (0..workers).map(|w| ((w * chunk_len).min(n), ((w + 1) * chunk_len).min(n))).collect();

    let scored: Vec<Result<Vec<AttackForecast>>> =
        map_indexed(&chunks, Some(workers), |i, &(lo, hi)| {
            let mut slot = pool.slots[i].lock().unwrap_or_else(PoisonError::into_inner);
            let (scratch, out) = &mut *slot;
            model.forecast_rows_into(&rows[lo..hi], scratch, out)?;
            Ok(out.clone())
        });

    let mut forecasts: Vec<AttackForecast> = Vec::with_capacity(n);
    let mut failure: Option<ServeError> = None;
    for chunk in scored {
        match chunk {
            Ok(mut part) => forecasts.append(&mut part),
            Err(e) => {
                failure = Some(e);
                break;
            }
        }
    }

    stats.batches += 1;
    stats.max_batch_len = stats.max_batch_len.max(n);
    for (j, envelope) in pending.drain(..).enumerate() {
        let answer = match &failure {
            None => Ok(ForecastResponse {
                target: envelope.target,
                forecast: forecasts[j],
                batch_len: n,
                seq: envelope.seq,
            }),
            Some(e) => Err(e.clone()),
        };
        let _ = envelope.reply.send(answer);
        shared.depth.fetch_sub(1, Ordering::AcqRel);
    }
    if failure.is_none() {
        stats.served += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{fitted, poison};

    #[test]
    fn poisoned_locks_still_admit_and_answer() {
        let model = fitted();
        let handle = ForecastService::start_with_model(
            Arc::clone(model),
            ServeConfig { workers: Some(1), ..ServeConfig::default() },
        );
        poison(handle.shared.rate.as_ref().expect("default config rate-limits"));
        poison(&handle.shared.tx);

        let features = InstanceFeatures::from_row(&[1.0; 13]).unwrap();
        let request = ForecastRequest { source: 7, target: Asn(7), features };
        let got = handle.client().submit(request).unwrap().wait().unwrap().forecast;
        let want = model.forecast_features(&[features]).unwrap()[0];
        assert_eq!(got.hour.to_bits(), want.hour.to_bits());
        assert_eq!(got.duration_secs.to_bits(), want.duration_secs.to_bits());
        // Shutdown takes the recovered admission gate too.
        assert_eq!(handle.shutdown().unwrap().served, 1);
    }
}
