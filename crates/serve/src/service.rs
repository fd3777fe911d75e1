//! The long-lived micro-batching forecast service.
//!
//! Clients submit [`ForecastRequest`]s through cheap cloneable
//! [`ServeClient`] handles and get back [`ForecastTicket`]s they can
//! block on. Everything between them and the one dispatcher thread is
//! allocated once per service: a locked batch queue that clients push
//! request envelopes onto, and a reply slab of ticket slots that the
//! dispatcher fills in place. The dispatcher accumulates requests into a
//! micro-batch and flushes when either the batch is full
//! ([`BatchPolicy::max_batch`]) or the oldest queued request has waited
//! [`BatchPolicy::max_delay`]. Each flush overwrites reused design rows
//! with the batch's features and fans contiguous chunks across the
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
//! sources before their requests cost any scoring work. The queue lock
//! is the admission gate: the rate ledger lives in the queue, so a
//! request is rate-checked, stamped, numbered and queued under that one
//! lock (a request is stamped if and only if it is queued, and
//! admission order is queue order), and shutdown closes it. A
//! [`submit_batch`](ServeClient::submit_batch) skips rate accounting.
//!
//! The service holds three kinds of lock: the queue (with the rate
//! ledger), the reply slab, and one per worker's scratch. A submission
//! takes the reply slab's lock inside the queue's, after the rate check.
//! Each guards state that is either updated in one step (the queue and
//! its ledger, the reply slab) or cleared before each use (the worker
//! scratch), so a lock poisoned by a panicking thread is recovered
//! rather than propagated to every later caller. A scorer that panics
//! costs only its own batch: those tickets get
//! [`ServeError::ScoringPanicked`] and later batches are served. So does
//! a finite but extreme row whose tree outputs overflow: its batch is
//! answered with the scorer's typed `NonFiniteInput` error, never with a
//! NaN or infinite forecast.

use crate::error::{Result, ServeError};
use crate::rate::{default_windows, RateLimiter, RateWindow};
use crate::store::ModelStore;
use ddos_astopo::Asn;
use ddos_cart::CartError;
use ddos_core::spatiotemporal::{
    AttackForecast, ForecastScratch, InstanceFeatures, SpatioTemporalModel,
};
use ddos_stats::exec::{map_indexed, resolve_parallelism};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
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
///
/// Dropping a ticket unredeemed gives its reply slot back to the service.
#[derive(Debug)]
pub struct ForecastTicket {
    shared: Arc<Shared>,
    /// The ticket's reply slot; `None` once redeemed.
    slot: Option<usize>,
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
    pub fn wait(mut self) -> Result<ForecastResponse> {
        match self.slot.take() {
            Some(slot) => self.shared.redeem(slot),
            None => Err(ServeError::Disconnected),
        }
    }
}

impl Drop for ForecastTicket {
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            self.shared.abandon(slot);
        }
    }
}

/// One queued request travelling dispatcher-ward.
#[derive(Debug)]
struct Envelope {
    /// The reply slot the answer goes to.
    slot: usize,
    seq: u64,
    target: Asn,
    features: InstanceFeatures,
}

/// The batch queue. Its lock is also the admission gate.
#[derive(Debug)]
struct Queue {
    /// `false` once shutdown has begun: nothing more is admitted.
    open: bool,
    /// Per-source rate accounting of single submissions; an empty window
    /// set admits everything.
    rate: RateLimiter,
    /// Admitted envelopes in admission order. A deque, so a flush that
    /// takes one batch off the front of a deep queue moves only that
    /// batch.
    pending: VecDeque<Envelope>,
    /// When the current batch started accumulating: the 0→1 transition,
    /// or the flush that left the remainder behind. Read only while
    /// `pending` is non-empty.
    since: Instant,
    /// The next admission sequence number.
    next_seq: u64,
}

/// One reply slot's state.
#[derive(Debug)]
enum Slot {
    /// On the free list.
    Free,
    /// Held by a live ticket; not answered yet.
    Waiting,
    /// Its ticket was dropped unredeemed; the answer frees it.
    Abandoned,
    /// Answered; the ticket has not redeemed it yet.
    Ready(Result<ForecastResponse>),
}

/// The reply slab: one slot per live ticket, reused through a free list.
///
/// Slots that are `Waiting` or `Abandoned` belong to requests admitted
/// and not yet answered, of which there are at most `queue_capacity`,
/// so the slab outgrows its presized capacity only while callers hold
/// answered tickets they have not redeemed.
#[derive(Debug)]
struct Replies {
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// Set once the dispatcher thread has exited, so a ticket that would
    /// otherwise wait forever gets [`ServeError::Disconnected`].
    dead: bool,
}

/// The largest reply slab presized up front. A larger `queue_capacity`
/// still admits that many requests; the slab grows to meet them.
const MAX_PRESIZED_SLOTS: usize = 1 << 16;

impl Replies {
    fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.min(MAX_PRESIZED_SLOTS);
        Replies {
            slots: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            dead: false,
        }
    }

    /// A slot for a new ticket, from the free list when it has one.
    fn claim(&mut self) -> usize {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Slot::Waiting;
                slot
            }
            None => {
                self.slots.push(Slot::Waiting);
                self.slots.len() - 1
            }
        }
    }

    fn release(&mut self, slot: usize) {
        self.slots[slot] = Slot::Free;
        self.free.push(slot);
    }

    /// Stores `answer` for its ticket, or frees the slot if the ticket is gone.
    fn answer(&mut self, slot: usize, answer: Result<ForecastResponse>) {
        match self.slots[slot] {
            Slot::Abandoned => self.release(slot),
            _ => self.slots[slot] = Slot::Ready(answer),
        }
    }

    /// Takes the answer in `slot` and frees it, if it has been answered.
    fn take(&mut self, slot: usize) -> Option<Result<ForecastResponse>> {
        match std::mem::replace(&mut self.slots[slot], Slot::Free) {
            Slot::Ready(answer) => {
                self.free.push(slot);
                Some(answer)
            }
            unanswered => {
                self.slots[slot] = unanswered;
                None
            }
        }
    }
}

/// State shared between clients, tickets, the handle and the dispatcher.
#[derive(Debug)]
struct Shared {
    queue: Mutex<Queue>,
    /// Wakes the dispatcher: when the queue leaves empty, when it reaches
    /// a full batch, and at close.
    queued: Condvar,
    replies: Mutex<Replies>,
    /// Wakes ticket waiters, once per answered batch and when the
    /// dispatcher exits.
    answered: Condvar,
    max_batch: usize,
    /// Requests admitted but not yet answered.
    depth: AtomicUsize,
    capacity: usize,
    /// Origin for wall-clock logical time fed to the rate limiter.
    epoch: Instant,
    rejected_overload: AtomicUsize,
    rejected_rate: AtomicUsize,
}

/// Locks `mutex`, recovering it if a panicking holder poisoned it.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    /// Runs `push` under the queue lock if the queue is still open and
    /// the rate ledger admits `rated` (a source and its logical time;
    /// `None` skips rate accounting), with the reply slab locked for
    /// claiming slots, then wakes the dispatcher if the queue left empty
    /// or reached a full batch.
    fn enqueue<T>(
        &self,
        rated: Option<(u64, u64)>,
        push: impl FnOnce(&mut Queue, &mut Replies) -> T,
    ) -> Result<T> {
        let mut queue = lock(&self.queue);
        if !queue.open {
            return Err(ServeError::ShuttingDown);
        }
        if let Some((source, now_millis)) = rated {
            if let Err(e) = queue.rate.admit(source, now_millis) {
                self.rejected_rate.fetch_add(1, Ordering::Relaxed);
                return Err(e);
            }
        }
        let before = queue.pending.len();
        if before == 0 {
            queue.since = Instant::now();
        }
        let pushed = push(&mut queue, &mut lock(&self.replies));
        let after = queue.pending.len();
        drop(queue);
        if before == 0 || (before < self.max_batch && after >= self.max_batch) {
            self.queued.notify_one();
        }
        Ok(pushed)
    }

    /// Queues one request and returns its ticket; called inside
    /// [`enqueue`](Shared::enqueue).
    fn push(
        self: &Arc<Self>,
        queue: &mut Queue,
        replies: &mut Replies,
        request: &ForecastRequest,
    ) -> ForecastTicket {
        let seq = queue.next_seq;
        queue.next_seq += 1;
        let slot = replies.claim();
        queue.pending.push_back(Envelope {
            slot,
            seq,
            target: request.target,
            features: request.features,
        });
        ForecastTicket { shared: Arc::clone(self), slot: Some(slot), seq }
    }

    /// Blocks until `slot` is answered, then takes the answer.
    fn redeem(&self, slot: usize) -> Result<ForecastResponse> {
        let mut replies = lock(&self.replies);
        loop {
            if let Some(answer) = replies.take(slot) {
                return answer;
            }
            if replies.dead {
                replies.release(slot);
                return Err(ServeError::Disconnected);
            }
            replies = self.answered.wait(replies).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Gives back the slot of a ticket dropped unredeemed.
    fn abandon(&self, slot: usize) {
        let mut replies = lock(&self.replies);
        match replies.slots[slot] {
            Slot::Waiting if !replies.dead => replies.slots[slot] = Slot::Abandoned,
            _ => replies.release(slot),
        }
    }

    /// Closes admission and wakes the dispatcher to drain and exit.
    fn close(&self) {
        lock(&self.queue).open = false;
        self.queued.notify_one();
    }
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
    /// Requests refused by the depth bound (every request of a refused
    /// batch).
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
        start_scored(model, config, SpatioTemporalModel::forecast_rows_into)
    }
}

/// How a flush scores one chunk of rows: the model's batch kernel in
/// service, a deliberately failing stand-in under test.
type Scorer = fn(
    &SpatioTemporalModel,
    &[Vec<f64>],
    &mut ForecastScratch,
    &mut Vec<AttackForecast>,
) -> ddos_core::Result<()>;

fn start_scored(
    model: Arc<SpatioTemporalModel>,
    config: ServeConfig,
    score: Scorer,
) -> ServeHandle {
    let capacity = config.queue_capacity.max(1);
    let shared = Arc::new(Shared {
        queue: Mutex::new(Queue {
            open: true,
            rate: RateLimiter::new(config.rate_windows.clone()),
            pending: VecDeque::new(),
            since: Instant::now(),
            next_seq: 0,
        }),
        queued: Condvar::new(),
        replies: Mutex::new(Replies::with_capacity(capacity)),
        answered: Condvar::new(),
        max_batch: config.batch.max_batch.max(1),
        depth: AtomicUsize::new(0),
        capacity,
        epoch: Instant::now(),
        rejected_overload: AtomicUsize::new(0),
        rejected_rate: AtomicUsize::new(0),
    });
    let dispatcher = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || dispatch_loop(&model, &config, &shared, score))
    };
    ServeHandle { shared, dispatcher: Some(dispatcher) }
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
    /// every queued request, and returns its counters. Live clients do
    /// not hold the service open: their later submissions get
    /// [`ServeError::ShuttingDown`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Disconnected`] if the dispatcher panicked.
    pub fn shutdown(mut self) -> Result<ServeStats> {
        self.shared.close();
        // Only `shutdown` and `drop` take the dispatcher, and both consume
        // the handle, so it is always here.
        let handle = self.dispatcher.take().ok_or(ServeError::Disconnected)?;
        let mut stats = handle.join().map_err(|_| ServeError::Disconnected)?;
        stats.rejected_overload = self.shared.rejected_overload.load(Ordering::Relaxed);
        stats.rejected_rate = self.shared.rejected_rate.load(Ordering::Relaxed);
        Ok(stats)
    }

    /// Reply slots the slab holds, and how many of them are free.
    #[cfg(test)]
    fn slab(&self) -> (usize, usize) {
        let replies = lock(&self.shared.replies);
        (replies.slots.len(), replies.free.len())
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.shared.close();
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
    /// The clock is read before the admission lock is taken, so
    /// concurrent submissions can reach the rate ledger out of clock
    /// order; the ledger reads a time earlier than the latest it saw as
    /// that latest time.
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
        let shared = &self.shared;
        shared
            .enqueue(Some((request.source, now_millis)), |queue, replies| {
                shared.push(queue, replies, &request)
            })
            .inspect_err(|_| {
                shared.depth.fetch_sub(1, Ordering::AcqRel);
            })
    }

    /// Submits a batch all-or-nothing: either every request is admitted
    /// (one depth reservation, skipping per-source rate accounting) and
    /// tickets come back in order with contiguous sequence numbers, or
    /// nothing is enqueued.
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
        let shared = &self.shared;
        shared
            .enqueue(None, |queue, replies| {
                requests.iter().map(|request| shared.push(queue, replies, request)).collect()
            })
            .inspect_err(|_| {
                shared.depth.fetch_sub(requests.len(), Ordering::AcqRel);
            })
    }

    /// Requests currently in flight (admitted, not yet answered).
    pub fn in_flight(&self) -> usize {
        self.shared.depth.load(Ordering::Acquire)
    }

    fn admit_depth(&self, n: usize) -> Result<()> {
        let prev = self.shared.depth.fetch_add(n, Ordering::AcqRel);
        if prev + n > self.shared.capacity {
            self.shared.depth.fetch_sub(n, Ordering::AcqRel);
            self.shared.rejected_overload.fetch_add(n, Ordering::Relaxed);
            return Err(ServeError::Overloaded { queued: prev, capacity: self.shared.capacity });
        }
        Ok(())
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

/// One executor slot's reusable buffers — per-tree output buffers,
/// output vector, and the outcome of its last chunk — kept for the
/// service's lifetime.
struct Worker {
    scratch: ForecastScratch,
    out: Vec<AttackForecast>,
    scored: Result<()>,
}

impl Worker {
    fn new() -> Mutex<Self> {
        Mutex::new(Worker { scratch: ForecastScratch::default(), out: Vec::new(), scored: Ok(()) })
    }
}

/// Marks the service dead when the dispatcher thread exits, by return or
/// by unwinding: admission closes and every ticket still waiting is
/// woken to get [`ServeError::Disconnected`] instead of hanging.
struct ExitGuard<'a>(&'a Shared);

impl Drop for ExitGuard<'_> {
    fn drop(&mut self) {
        lock(&self.0.queue).open = false;
        lock(&self.0.replies).dead = true;
        self.0.answered.notify_all();
    }
}

fn dispatch_loop(
    model: &SpatioTemporalModel,
    config: &ServeConfig,
    shared: &Shared,
    score: Scorer,
) -> ServeStats {
    let _exit = ExitGuard(shared);
    let mut pool: Vec<Mutex<Worker>> = Vec::new();
    pool.resize_with(resolve_parallelism(config.workers), Worker::new);
    let mut stats = ServeStats::default();
    let mut batch: Vec<Envelope> = Vec::with_capacity(shared.max_batch);
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(shared.max_batch);
    while next_batch(shared, config.batch.max_delay, &mut batch) {
        flush(model, score, &pool, &mut batch, &mut rows, shared, &mut stats);
    }
    stats
}

/// Blocks until a batch is due — `max_batch` are pending, the batch has
/// waited `max_delay`, or admission has closed — and moves up to
/// `max_batch` envelopes into `batch`. Returns `false` once the queue is
/// closed and drained.
fn next_batch(shared: &Shared, max_delay: Duration, batch: &mut Vec<Envelope>) -> bool {
    let mut queue = lock(&shared.queue);
    loop {
        let pending = queue.pending.len();
        if pending >= shared.max_batch || (pending > 0 && !queue.open) {
            break;
        }
        if !queue.open {
            return false;
        }
        queue = if pending == 0 {
            shared.queued.wait(queue).unwrap_or_else(PoisonError::into_inner)
        } else {
            let waited = queue.since.elapsed();
            if waited >= max_delay {
                break;
            }
            let timed = shared.queued.wait_timeout(queue, max_delay - waited);
            timed.unwrap_or_else(PoisonError::into_inner).0
        };
    }
    let take = queue.pending.len().min(shared.max_batch);
    batch.extend(queue.pending.drain(..take));
    if !queue.pending.is_empty() {
        queue.since = Instant::now();
    }
    true
}

/// Scores `batch` as one micro-batch and answers every envelope.
///
/// The batch is cut into at most one contiguous chunk per worker, fanned
/// across [`map_indexed`]; each chunk is scored with that executor
/// slot's long-lived buffers, one `RegressionTree::predict` walk per row
/// and tree (`forecast_rows_into`). Chunk boundaries cannot affect values —
/// every row's score is a pure function of that row — so this is
/// bit-identical to one serial `forecast_rows_into` over the whole
/// batch. The rows are overwritten in place and the answers are written
/// straight from each slot's output into the reply slab under one lock,
/// so a flush allocates nothing once the buffers have grown.
fn flush(
    model: &SpatioTemporalModel,
    score: Scorer,
    pool: &[Mutex<Worker>],
    batch: &mut Vec<Envelope>,
    rows: &mut Vec<Vec<f64>>,
    shared: &Shared,
    stats: &mut ServeStats,
) {
    let n = batch.len();
    if rows.len() < n {
        rows.resize_with(n, Vec::new);
    }
    for (row, envelope) in rows.iter_mut().zip(batch.iter()) {
        row.clear();
        row.extend_from_slice(&envelope.features.to_array());
    }
    let rows = &rows[..n];
    let chunk_len = n.div_ceil(pool.len());
    let pool = &pool[..n.div_ceil(chunk_len)];

    let scored = catch_unwind(AssertUnwindSafe(|| {
        map_indexed(pool, Some(pool.len()), |w, worker| {
            let chunk = &rows[w * chunk_len..((w + 1) * chunk_len).min(n)];
            let Worker { scratch, out, scored } = &mut *lock(worker);
            *scored = score(model, chunk, scratch, out).map_err(ServeError::from);
        });
    }));
    let failure = match scored {
        Ok(()) => pool.iter().find_map(|worker| lock(worker).scored.clone().err()),
        Err(_) => Some(ServeError::ScoringPanicked),
    };

    let mut replies = lock(&shared.replies);
    match &failure {
        None => {
            for (envelopes, worker) in batch.chunks(chunk_len).zip(pool) {
                let worker = lock(worker);
                for (j, envelope) in envelopes.iter().enumerate() {
                    let response = ForecastResponse {
                        target: envelope.target,
                        forecast: worker.out[j],
                        batch_len: n,
                        seq: envelope.seq,
                    };
                    replies.answer(envelope.slot, Ok(response));
                }
            }
        }
        Some(e) => {
            for envelope in batch.iter() {
                replies.answer(envelope.slot, Err(e.clone()));
            }
        }
    }
    // Under the slab lock, so a redeemed answer is never still counted
    // in flight.
    shared.depth.fetch_sub(n, Ordering::AcqRel);
    drop(replies);
    shared.answered.notify_all();
    batch.clear();

    stats.batches += 1;
    stats.max_batch_len = stats.max_batch_len.max(n);
    if failure.is_none() {
        stats.served += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{fitted, poison};
    use ddos_core::ModelError;

    fn request(features: InstanceFeatures) -> ForecastRequest {
        ForecastRequest { source: 7, target: Asn(7), features }
    }

    fn assert_same_bits(got: &AttackForecast, want: &AttackForecast) {
        assert_eq!(got.hour.to_bits(), want.hour.to_bits());
        assert_eq!(got.day.to_bits(), want.day.to_bits());
        assert_eq!(got.magnitude.to_bits(), want.magnitude.to_bits());
        assert_eq!(got.duration_secs.to_bits(), want.duration_secs.to_bits());
    }

    #[test]
    fn poisoned_locks_still_admit_and_answer() {
        let model = fitted();
        let handle = ForecastService::start_with_model(
            Arc::clone(model),
            ServeConfig { workers: Some(1), ..ServeConfig::default() },
        );
        poison(&handle.shared.queue);
        poison(&handle.shared.replies);

        let features = InstanceFeatures::from_row(&[1.0; 13]).unwrap();
        let got = handle.client().submit(request(features)).unwrap().wait().unwrap().forecast;
        assert_same_bits(&got, &model.forecast_features(&[features]).unwrap()[0]);
        // Shutdown takes the recovered admission gate too.
        assert_eq!(handle.shutdown().unwrap().served, 1);
    }

    /// The first feature of a row the test scorer refuses to score.
    const PANIC_MARKER: f64 = -4_242.0;

    fn panics_on_marker(
        model: &SpatioTemporalModel,
        rows: &[Vec<f64>],
        scratch: &mut ForecastScratch,
        out: &mut Vec<AttackForecast>,
    ) -> ddos_core::Result<()> {
        assert!(rows.iter().all(|row| row[0] != PANIC_MARKER), "a scorer panicked on purpose");
        model.forecast_rows_into(rows, scratch, out)
    }

    #[test]
    fn panicking_scorer_answers_its_batch_with_a_typed_error() {
        let model = fitted();
        let config = ServeConfig {
            batch: BatchPolicy { max_batch: 4, max_delay: Duration::from_secs(5) },
            workers: Some(2),
            ..ServeConfig::unlimited()
        };
        let handle = start_scored(Arc::clone(model), config, panics_on_marker);
        let client = handle.client();
        let clean: Vec<InstanceFeatures> =
            (0..4).map(|i| InstanceFeatures::from_row(&[f64::from(i); 13]).unwrap()).collect();
        let mut marked = clean.clone();
        marked[3] = InstanceFeatures::from_row(&[PANIC_MARKER; 13]).unwrap();

        let batch: Vec<_> = marked.iter().copied().map(request).collect();
        for ticket in client.submit_batch(&batch).unwrap() {
            assert_eq!(ticket.wait().unwrap_err(), ServeError::ScoringPanicked);
        }
        assert_eq!(client.in_flight(), 0);

        // The dispatcher survived: the next batch gets the serial bits.
        let serial = model.forecast_features(&clean).unwrap();
        let batch: Vec<_> = clean.iter().copied().map(request).collect();
        for (ticket, want) in client.submit_batch(&batch).unwrap().into_iter().zip(&serial) {
            assert_same_bits(&ticket.wait().unwrap().forecast, want);
        }
        let stats = handle.shutdown().unwrap();
        assert_eq!((stats.served, stats.batches), (4, 2));
    }

    #[test]
    fn overflowing_row_answers_its_batch_with_a_typed_error() {
        let model = fitted();
        let clean: Vec<InstanceFeatures> =
            (0..4).map(|i| InstanceFeatures::from_row(&[f64::from(i); 13]).unwrap()).collect();
        // A finite row that serial scoring refuses: one feature of a clean
        // row set to an extreme that overflows a tree's output.
        let extremes = [f64::MAX, -f64::MAX, 1e300, -1e300];
        let hostile = (0..13)
            .flat_map(|f| extremes.map(|v| (f, v)))
            .map(|(f, v)| {
                let mut row = clean[1].to_array();
                row[f] = v;
                InstanceFeatures::from_row(&row).unwrap()
            })
            .find(|f| model.forecast_features(&[*f]).is_err())
            .expect("an extreme feature overflows some tree");
        assert!(hostile.is_finite(), "admission lets the row through");

        let config = ServeConfig {
            batch: BatchPolicy { max_batch: 4, max_delay: Duration::from_secs(5) },
            workers: Some(2),
            ..ServeConfig::unlimited()
        };
        let handle = ForecastService::start_with_model(Arc::clone(model), config);
        let client = handle.client();
        let mut marked = clean.clone();
        marked[3] = hostile;
        let batch: Vec<_> = marked.iter().copied().map(request).collect();
        for ticket in client.submit_batch(&batch).unwrap() {
            assert_eq!(
                ticket.wait().unwrap_err(),
                ServeError::Model(ModelError::Cart(CartError::NonFiniteInput))
            );
        }

        // The next clean batch gets the serial bits.
        let serial = model.forecast_features(&clean).unwrap();
        let batch: Vec<_> = clean.iter().copied().map(request).collect();
        for (ticket, want) in client.submit_batch(&batch).unwrap().into_iter().zip(&serial) {
            assert_same_bits(&ticket.wait().unwrap().forecast, want);
        }
        let stats = handle.shutdown().unwrap();
        assert_eq!((stats.served, stats.batches), (4, 2));
    }

    #[test]
    fn dropped_tickets_keep_the_slab_within_capacity() {
        const CAPACITY: usize = 8;
        let config = ServeConfig {
            batch: BatchPolicy { max_batch: 3, max_delay: Duration::from_micros(100) },
            queue_capacity: CAPACITY,
            workers: Some(1),
            ..ServeConfig::unlimited()
        };
        let handle = ForecastService::start_with_model(Arc::clone(fitted()), config);
        let client = handle.client();
        let idle = || {
            while client.in_flight() > 0 {
                std::thread::yield_now();
            }
        };
        let features = InstanceFeatures::from_row(&[1.0; 13]).unwrap();
        let batch = [request(features); CAPACITY];
        for round in 0..10 {
            let tickets = client.submit_batch(&batch).unwrap();
            // Even rounds drop tickets before their answers arrive (the
            // dispatcher frees those slots), odd rounds after (the drop
            // frees them).
            if round % 2 == 1 {
                idle();
            }
            drop(tickets);
            idle();
        }
        let (slots, free) = handle.slab();
        assert!(slots <= CAPACITY, "the slab grew to {slots} slots");
        assert_eq!(free, slots, "every slot is free again");
        assert_eq!(handle.shutdown().unwrap().served, 10 * CAPACITY);
    }
}
