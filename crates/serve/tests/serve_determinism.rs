//! The serving crate's load-bearing contract: concurrent micro-batched
//! serving is *bit-identical* to serial scoring — at any worker count,
//! batch size, flush timing or producer interleaving — plus the typed
//! admission-control and drain-on-shutdown behaviors around it.

use ddos_astopo::Asn;
use ddos_cart::CartError;
use ddos_core::spatiotemporal::{InstanceFeatures, SpatioTemporalConfig, SpatioTemporalModel};
use ddos_serve::{
    BatchPolicy, ForecastRequest, ForecastService, RateWindow, ServeConfig, ServeError,
};
use ddos_trace::{CorpusConfig, TraceGenerator};
use proptest::prelude::*;
use std::sync::{Arc, Barrier, OnceLock};
use std::time::Duration;

/// One fitted model plus its training instances as typed features —
/// fitted once, shared by every case (fitting per case would dominate the
/// suite's wall-clock).
fn fixture() -> &'static (Arc<SpatioTemporalModel>, Vec<InstanceFeatures>) {
    static CELL: OnceLock<(Arc<SpatioTemporalModel>, Vec<InstanceFeatures>)> = OnceLock::new();
    CELL.get_or_init(|| {
        let corpus = TraceGenerator::new(CorpusConfig::small(), 121).generate().unwrap();
        let (train, _) = corpus.split(0.8).unwrap();
        let config = SpatioTemporalConfig::fast();
        let model = SpatioTemporalModel::fit(&corpus, train, &config, 5).unwrap();
        let (xs, _) = SpatioTemporalModel::training_design(train, &config, 5).unwrap();
        let features: Vec<InstanceFeatures> =
            xs.iter().map(|row| InstanceFeatures::from_row(row).unwrap()).collect();
        assert!(features.len() >= 40, "fixture needs a non-trivial request stream");
        (Arc::new(model), features)
    })
}

fn request(i: usize, features: InstanceFeatures) -> ForecastRequest {
    ForecastRequest { source: (i % 3) as u64, target: Asn(i as u32), features }
}

/// Rate accounting off, generous queue: the config every determinism case
/// uses so admission never perturbs the stream under test.
fn config(workers: usize, max_batch: usize, max_delay: Duration) -> ServeConfig {
    ServeConfig {
        batch: BatchPolicy { max_batch, max_delay },
        queue_capacity: 100_000,
        workers: Some(workers),
        rate_windows: Vec::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// THE determinism contract: for every request, the micro-batched
    /// concurrent service returns exactly the f64 bits serial
    /// `forecast_features` produces — across worker counts, batch sizes
    /// and flush deadlines.
    #[test]
    fn micro_batched_serving_is_bit_identical_to_serial(
        workers in 1usize..5,
        batch_pick in 0usize..4,
        delay_pick in 0usize..3,
    ) {
        let (model, features) = fixture();
        let serial = model.forecast_features(features).unwrap();

        let max_batch = [1usize, 3, 7, 64][batch_pick];
        let delay_micros = [0u64, 200, 5_000_000][delay_pick];
        let handle = ForecastService::start_with_model(
            Arc::clone(model),
            config(workers, max_batch, Duration::from_micros(delay_micros)),
        );
        let client = handle.client();
        let tickets: Vec<_> = features
            .iter()
            .enumerate()
            .map(|(i, f)| client.submit(request(i, *f)).unwrap())
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let response = ticket.wait().unwrap();
            prop_assert_eq!(response.target, Asn(i as u32));
            prop_assert!(response.batch_len >= 1);
            let (got, want) = (response.forecast, serial[i]);
            prop_assert_eq!(got.hour.to_bits(), want.hour.to_bits());
            prop_assert_eq!(got.day.to_bits(), want.day.to_bits());
            prop_assert_eq!(got.magnitude.to_bits(), want.magnitude.to_bits());
            prop_assert_eq!(got.duration_secs.to_bits(), want.duration_secs.to_bits());
        }
        let stats = handle.shutdown().unwrap();
        prop_assert_eq!(stats.served, features.len());
        prop_assert!(stats.batches >= 1);
    }
}

/// Racing producer threads interleave nondeterministically into the
/// micro-batch stream; every individual answer must still be the serial
/// bits for its own request.
#[test]
fn concurrent_producers_get_serial_bits() {
    let (model, features) = fixture();
    let serial = model.forecast_features(features).unwrap();
    let handle = ForecastService::start_with_model(
        Arc::clone(model),
        config(4, 5, Duration::from_micros(100)),
    );

    const PRODUCERS: usize = 4;
    let serial = &serial;
    std::thread::scope(|scope| {
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let client = handle.client();
                scope.spawn(move || {
                    let mine: Vec<usize> =
                        (0..features.len()).filter(|i| i % PRODUCERS == p).collect();
                    let tickets: Vec<_> = mine
                        .iter()
                        .map(|&i| (i, client.submit(request(i, features[i])).unwrap()))
                        .collect();
                    for (i, ticket) in tickets {
                        let got = ticket.wait().unwrap().forecast;
                        assert_eq!(got.hour.to_bits(), serial[i].hour.to_bits());
                        assert_eq!(got.day.to_bits(), serial[i].day.to_bits());
                        assert_eq!(got.magnitude.to_bits(), serial[i].magnitude.to_bits());
                        assert_eq!(got.duration_secs.to_bits(), serial[i].duration_secs.to_bits());
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
    });
    let stats = handle.shutdown().unwrap();
    assert_eq!(stats.served, features.len());
}

/// A full queue rejects with the typed `Overloaded` (not a panic, not a
/// block), and shutdown still answers everything that was admitted.
#[test]
fn admission_control_sheds_load_with_typed_overloaded() {
    let (model, features) = fixture();
    let cfg = ServeConfig {
        batch: BatchPolicy { max_batch: 100, max_delay: Duration::from_secs(5) },
        queue_capacity: 4,
        workers: Some(1),
        rate_windows: Vec::new(),
    };
    let handle = ForecastService::start_with_model(Arc::clone(model), cfg);
    let client = handle.client();

    let tickets: Vec<_> = (0..4).map(|i| client.submit(request(i, features[i])).unwrap()).collect();
    let err = client.submit(request(4, features[4])).unwrap_err();
    assert!(matches!(err, ServeError::Overloaded { capacity: 4, .. }), "got {err:?}");

    // Batch admission is all-or-nothing: a batch that would overflow
    // leaves nothing in flight beyond the four already queued.
    let batch: Vec<_> = (0..3).map(|i| request(10 + i, features[i])).collect();
    assert!(matches!(client.submit_batch(&batch), Err(ServeError::Overloaded { .. })));
    assert_eq!(client.in_flight(), 4);

    // The admitted four all resolve at shutdown (drain before exit).
    drop(std::thread::spawn({
        let handle_tickets = tickets;
        move || {
            for t in handle_tickets {
                t.wait().unwrap();
            }
        }
    }));
    let stats = handle.shutdown().unwrap();
    assert_eq!(stats.served, 4);
    // One refused single submit and the three requests of the refused batch.
    assert_eq!(stats.rejected_overload, 4);
}

/// Per-source sliding-window accounting: the logical-time entry point
/// makes rejection deterministic; other sources are unaffected, and a
/// rejected request consumes no budget and no queue slot.
#[test]
fn rate_limiting_is_per_source_and_deterministic() {
    let (model, features) = fixture();
    let cfg = ServeConfig {
        batch: BatchPolicy::default(),
        queue_capacity: 1_000,
        workers: Some(2),
        rate_windows: vec![RateWindow::new(1, 3)],
    };
    let handle = ForecastService::start_with_model(Arc::clone(model), cfg);
    let client = handle.client();
    let req = |source: u64| ForecastRequest { source, target: Asn(1), features: features[0] };

    let mut tickets = Vec::new();
    for t in [0u64, 10, 20] {
        tickets.push(client.submit_at(req(7), t).unwrap());
    }
    let err = client.submit_at(req(7), 30).unwrap_err();
    assert_eq!(err, ServeError::RateLimited { source: 7, window_secs: 1, limit: 3 });
    // Unrelated source still admitted; the limited source recovers once
    // its burst ages out of the window.
    tickets.push(client.submit_at(req(8), 30).unwrap());
    tickets.push(client.submit_at(req(7), 1_021).unwrap());
    for t in tickets {
        t.wait().unwrap();
    }
    let stats = handle.shutdown().unwrap();
    assert_eq!(stats.served, 5);
    assert_eq!(stats.rejected_rate, 1);
}

/// A NaN or infinite feature, at any position, is refused at admission
/// with the typed `NonFiniteInput` — alone or inside a batch, which is
/// refused whole — leaving nothing in flight; valid requests after it are
/// answered with the serial bits.
#[test]
fn non_finite_features_are_refused_at_admission() {
    let (model, features) = fixture();
    let handle = ForecastService::start_with_model(
        Arc::clone(model),
        config(2, 8, Duration::from_micros(200)),
    );
    let client = handle.client();
    let non_finite = Some(ServeError::Cart(CartError::NonFiniteInput));
    let row = features[0].to_row();
    for pos in 0..row.len() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut dirty = row.clone();
            dirty[pos] = bad;
            let poisoned = request(pos, InstanceFeatures::from_row(&dirty).unwrap());
            assert_eq!(client.submit_at(poisoned, 0).err(), non_finite);
            let batch = [request(0, features[0]), poisoned, request(1, features[1])];
            assert_eq!(client.submit_batch(&batch).err(), non_finite);
            assert_eq!(client.in_flight(), 0, "feature {pos} = {bad}");
        }
    }
    let serial = model.forecast_features(&features[..2]).unwrap();
    let batch = [request(0, features[0]), request(1, features[1])];
    for (ticket, want) in client.submit_batch(&batch).unwrap().into_iter().zip(&serial) {
        assert_eq!(ticket.wait().unwrap().forecast.hour.to_bits(), want.hour.to_bits());
    }
    let got = client.submit(request(2, features[0])).unwrap().wait().unwrap().forecast;
    assert_eq!(got.duration_secs.to_bits(), serial[0].duration_secs.to_bits());
    assert_eq!(handle.shutdown().unwrap().served, 3);
}

/// Size-triggered flushes under a long deadline produce exactly full
/// batches, and the batch length is reported on every response.
#[test]
fn size_triggered_flushes_report_batch_len() {
    let (model, features) = fixture();
    let handle =
        ForecastService::start_with_model(Arc::clone(model), config(2, 4, Duration::from_secs(5)));
    let client = handle.client();
    let requests: Vec<_> = (0..8).map(|i| request(i, features[i])).collect();
    let tickets = client.submit_batch(&requests).unwrap();
    for ticket in tickets {
        assert_eq!(ticket.wait().unwrap().batch_len, 4);
    }
    let stats = handle.shutdown().unwrap();
    assert_eq!((stats.served, stats.batches, stats.max_batch_len), (8, 2, 4));
}

/// After shutdown begins, clients get the typed `ShuttingDown`; everything
/// admitted beforehand has already been answered.
#[test]
fn shutdown_drains_then_refuses() {
    let (model, features) = fixture();
    let handle = ForecastService::start_with_model(
        Arc::clone(model),
        config(2, 16, Duration::from_millis(1)),
    );
    let client = handle.client();
    let tickets: Vec<_> =
        (0..20).map(|i| client.submit(request(i, features[i])).unwrap()).collect();
    let responses: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
    assert_eq!(responses.len(), 20);
    // Sequence numbers are admission-ordered from a single client.
    for (i, r) in responses.iter().enumerate() {
        assert_eq!(r.seq, i as u64);
    }
    let stats = handle.shutdown().unwrap();
    assert_eq!(stats.served, 20);
    assert!(matches!(client.submit(request(0, features[0])), Err(ServeError::ShuttingDown)));
    assert_eq!(client.in_flight(), 0);
}

/// A live client does not hold the service open: `shutdown` drains and
/// returns while another thread still owns a client clone, and that
/// clone's later submissions get `ShuttingDown`.
#[test]
fn shutdown_returns_while_a_client_clone_is_alive() {
    let (model, features) = fixture();
    let serial = model.forecast_features(&features[..8]).unwrap();
    let handle =
        ForecastService::start_with_model(Arc::clone(model), config(2, 64, Duration::from_secs(5)));
    let client = handle.client();
    // Eight requests, fewer than a batch under a long deadline: only the
    // shutdown drain answers them.
    let tickets: Vec<_> = (0..8).map(|i| client.submit(request(i, features[i])).unwrap()).collect();
    let gate = Arc::new(Barrier::new(2));
    let holder = std::thread::spawn({
        let (clone, gate) = (client.clone(), Arc::clone(&gate));
        move || {
            gate.wait();
            (clone.submit(request(0, features[0])).err(), clone.in_flight())
        }
    });
    let stats = handle.shutdown().unwrap();
    assert_eq!((stats.served, stats.batches), (8, 1));
    for (ticket, want) in tickets.into_iter().zip(&serial) {
        assert_eq!(ticket.wait().unwrap().forecast.hour.to_bits(), want.hour.to_bits());
    }
    gate.wait();
    assert_eq!(holder.join().unwrap(), (Some(ServeError::ShuttingDown), 0));
    let batch = [request(1, features[1])];
    assert!(matches!(client.submit_batch(&batch), Err(ServeError::ShuttingDown)));
    assert_eq!(client.in_flight(), 0);
}

/// Producers that drop half their tickets unredeemed still get the
/// serial bits on the other half, and every request is served.
#[test]
fn producers_dropping_tickets_still_get_serial_bits() {
    let (model, features) = fixture();
    let serial = model.forecast_features(features).unwrap();
    let handle = ForecastService::start_with_model(
        Arc::clone(model),
        config(2, 5, Duration::from_micros(100)),
    );

    const PRODUCERS: usize = 4;
    const ROUNDS: usize = 5;
    let serial = &serial;
    std::thread::scope(|scope| {
        for p in 0..PRODUCERS {
            let client = handle.client();
            scope.spawn(move || {
                for _ in 0..ROUNDS {
                    let tickets: Vec<_> = (p..features.len())
                        .step_by(PRODUCERS)
                        .map(|i| (i, client.submit(request(i, features[i])).unwrap()))
                        .collect();
                    for (k, (i, ticket)) in tickets.into_iter().enumerate() {
                        if k % 2 == 0 {
                            drop(ticket);
                            continue;
                        }
                        let got = ticket.wait().unwrap().forecast;
                        assert_eq!(got.hour.to_bits(), serial[i].hour.to_bits());
                        assert_eq!(got.day.to_bits(), serial[i].day.to_bits());
                        assert_eq!(got.magnitude.to_bits(), serial[i].magnitude.to_bits());
                        assert_eq!(got.duration_secs.to_bits(), serial[i].duration_secs.to_bits());
                    }
                }
            });
        }
    });
    let client = handle.client();
    let stats = handle.shutdown().unwrap();
    assert_eq!(stats.served, ROUNDS * features.len());
    assert_eq!(client.in_flight(), 0);
}

/// Sequence numbers are taken under the queue lock: each `submit_batch`
/// gets a contiguous run, one producer's runs increase, and the runs of
/// racing producers tile `0..total` exactly.
#[test]
fn batch_seqs_are_contiguous_and_admission_ordered() {
    let (model, features) = fixture();
    let handle = ForecastService::start_with_model(
        Arc::clone(model),
        config(2, 7, Duration::from_micros(100)),
    );

    const PRODUCERS: usize = 4;
    const ROUNDS: usize = 10;
    const BATCH: usize = 6;
    let runs: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let client = handle.client();
                scope.spawn(move || {
                    let batch: Vec<_> = (0..BATCH).map(|i| request(p, features[i])).collect();
                    let mut firsts = Vec::new();
                    for _ in 0..ROUNDS {
                        let tickets = client.submit_batch(&batch).unwrap();
                        let first = tickets[0].seq();
                        for (k, ticket) in tickets.into_iter().enumerate() {
                            assert_eq!(ticket.seq(), first + k as u64);
                            assert_eq!(ticket.wait().unwrap().seq, first + k as u64);
                        }
                        firsts.push(first);
                    }
                    firsts
                })
            })
            .collect();
        producers.into_iter().map(|p| p.join().unwrap()).collect()
    });
    for firsts in &runs {
        assert!(firsts.windows(2).all(|w| w[0] < w[1]), "runs out of admission order: {firsts:?}");
    }
    let mut firsts: Vec<u64> = runs.concat();
    firsts.sort_unstable();
    let tiling: Vec<u64> = (0..PRODUCERS * ROUNDS).map(|r| (r * BATCH) as u64).collect();
    assert_eq!(firsts, tiling);
    assert_eq!(handle.shutdown().unwrap().served, PRODUCERS * ROUNDS * BATCH);
}
