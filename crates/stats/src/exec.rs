//! Deterministic sharded parallel executor.
//!
//! The model-fitting hot paths (per-family ARIMA fits, NAR grid search,
//! per-target-AS spatial fits) are embarrassingly parallel: every unit of
//! work owns an independent seed and touches no shared state. This module
//! gives them a *deterministic* fan-out: inputs are split into contiguous
//! shards, each shard runs on its own scoped thread, and every result is
//! written back into the slot matching its input index. Reduction then
//! happens in canonical (index) order, so a parallel run is byte-identical
//! to a serial run of the same seed — the thread count changes wall-clock
//! time, never output.
//!
//! Built on [`std::thread::scope`] only; no external dependencies. Worker
//! panics propagate to the caller when the scope joins.
//!
//! # Example
//!
//! ```
//! use ddos_stats::exec::map_indexed;
//!
//! let inputs = vec![1u64, 2, 3, 4, 5];
//! let serial = map_indexed(&inputs, Some(1), |i, x| x * 10 + i as u64);
//! let parallel = map_indexed(&inputs, Some(4), |i, x| x * 10 + i as u64);
//! assert_eq!(serial, parallel);
//! assert_eq!(serial, vec![10, 21, 32, 43, 54]);
//! ```

/// Resolves a requested worker count: `None` means "use every available
/// core", `Some(n)` is taken literally (with `Some(0)` clamped up to 1,
/// the serial case).
pub fn resolve_parallelism(requested: Option<usize>) -> usize {
    match requested {
        Some(n) => n.max(1),
        None => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    }
}

/// Maps `f` over `items` with up to `parallelism` worker threads
/// (`None` = all available cores), returning results in input order.
///
/// Determinism contract: `f` is called exactly once per item with that
/// item's index, and the output vector's slot `i` always holds
/// `f(i, &items[i])` — regardless of worker count or scheduling. Callers
/// that reduce the returned vector left-to-right therefore observe the
/// exact serial semantics.
///
/// Items are split into contiguous shards of near-equal size, one scoped
/// thread per shard. With one worker (or zero/one items) no threads are
/// spawned at all.
///
/// # Panics
///
/// Re-raises any panic from `f` when the thread scope joins.
pub fn map_indexed<T, R, F>(items: &[T], parallelism: Option<usize>, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    map_indexed_with(items, parallelism, || (), |(), i, item| f(i, item))
}

/// [`map_indexed`] with per-shard mutable state: `init` runs once on each
/// worker thread (once total on the serial path) and the resulting state
/// is threaded through every call that shard makes, in shard order.
///
/// This is the scratch-arena hook: a shard's workspace buffers (weight
/// arenas, design matrices) are allocated once and reused across its
/// items instead of once per item. The determinism contract of
/// [`map_indexed`] carries over *provided* `f(state, i, item)` returns
/// the same value regardless of the incoming state — i.e. the state is
/// pure scratch whose contents are (re)initialized by `f` before use,
/// never data flowing between items. All in-repo scratch types
/// (`TrainScratch`, OLS scratch) satisfy this by construction, and the
/// grid-search determinism tests sweep worker counts to prove it: which
/// cells *share* an arena changes with the shard layout, so any leak
/// would break the bit-identity oracle.
///
/// # Panics
///
/// Re-raises any panic from `init` or `f` when the thread scope joins.
pub fn map_indexed_with<T, R, S, I, F>(
    items: &[T],
    parallelism: Option<usize>,
    init: I,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = resolve_parallelism(parallelism).min(n.max(1));
    if workers <= 1 || n <= 1 {
        let mut state = init();
        return items.iter().enumerate().map(|(i, item)| f(&mut state, i, item)).collect();
    }

    let shard_len = n.div_ceil(workers);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);

    std::thread::scope(|scope| {
        for (shard, (in_shard, out_shard)) in
            items.chunks(shard_len).zip(slots.chunks_mut(shard_len)).enumerate()
        {
            let f = &f;
            let init = &init;
            let base = shard * shard_len;
            scope.spawn(move || {
                let mut state = init();
                for (off, (item, slot)) in in_shard.iter().zip(out_shard.iter_mut()).enumerate() {
                    *slot = Some(f(&mut state, base + off, item));
                }
            });
        }
    });

    // The scope returned, so no shard panicked and every shard filled its
    // contiguous slot range: flattening keeps all `n` results in order.
    slots.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..97).collect();
        let f = |i: usize, x: &u64| (i as u64).wrapping_mul(31).wrapping_add(*x * 7);
        let serial = map_indexed(&items, Some(1), f);
        for workers in [2, 3, 4, 8, 97, 200] {
            assert_eq!(map_indexed(&items, Some(workers), f), serial, "workers={workers}");
        }
    }

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..50).collect();
        let out = map_indexed(&items, Some(4), |i, x| {
            assert_eq!(i, *x);
            i
        });
        assert_eq!(out, items);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(map_indexed(&empty, Some(4), |_, x| *x).is_empty());
        assert_eq!(map_indexed(&[9u32], Some(4), |_, x| *x + 1), vec![10]);
    }

    #[test]
    fn fallible_work_reduces_in_order() {
        let items: Vec<i32> = vec![1, -2, 3, -4];
        let out =
            map_indexed(
                &items,
                Some(2),
                |_, x| {
                    if *x > 0 {
                        Ok(*x)
                    } else {
                        Err(format!("bad {x}"))
                    }
                },
            );
        // First error in canonical order is item 1, independent of scheduling.
        let first_err = out.into_iter().find_map(Result::err);
        assert_eq!(first_err.as_deref(), Some("bad -2"));
    }

    #[test]
    fn stateful_map_matches_stateless_at_any_worker_count() {
        let items: Vec<u64> = (0..37).collect();
        let expected = map_indexed(&items, Some(1), |i, x| x * 3 + i as u64);
        for workers in [1, 2, 4, 9, 37] {
            // Scratch contract: the state is reset before use, so results
            // must not depend on which items shared a shard's state.
            let out = map_indexed_with(&items, Some(workers), Vec::<u64>::new, |scratch, i, x| {
                scratch.clear();
                scratch.push(x * 3);
                scratch[0] + i as u64
            });
            assert_eq!(out, expected, "workers={workers}");
        }
    }

    #[test]
    fn state_is_reused_within_a_shard() {
        let items: Vec<u32> = (0..10).collect();
        // Serial path: one state for all items, so the call counter keeps
        // climbing — proving the arena is genuinely shared, not rebuilt.
        let out = map_indexed_with(
            &items,
            Some(1),
            || 0usize,
            |calls, _, _| {
                *calls += 1;
                *calls
            },
        );
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn resolve_parallelism_contract() {
        assert_eq!(resolve_parallelism(Some(1)), 1);
        assert_eq!(resolve_parallelism(Some(0)), 1);
        assert_eq!(resolve_parallelism(Some(6)), 6);
        assert!(resolve_parallelism(None) >= 1);
    }

    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..8).collect();
        map_indexed(&items, Some(2), |_, x| {
            if *x == 5 {
                panic!("worker panic propagates");
            }
            *x
        });
    }
}
