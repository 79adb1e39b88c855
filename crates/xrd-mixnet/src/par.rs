//! The one fan-out helper behind every data-parallel phase of a round:
//! bulk sealing at the users' edge and the chains of an in-process
//! deployment, side by side ([`map_chunks`]), and, on batches big enough
//! to be worth a second core, the per-entry phases of a chain — PoK
//! screening, the decrypt-and-blind kernel, envelope opening
//! ([`map_entries`]).
//!
//! Work is handed out in **dynamic chunks**: workers pull the next
//! chunk index off a shared cursor until none is left, so a core that
//! is slow or briefly taken away (a stolen vCPU) simply pulls fewer
//! chunks and the phase degrades towards serial speed — a static
//! half-and-half split would instead wait on the slow half.  Results
//! come back in input order whatever the schedule was, so a phase's
//! output never depends on the worker count.
//!
//! Fan-outs **nest**, and what they share is a *core budget*.  Outside
//! any fan-out a thread's budget is `available_parallelism()`; a
//! [`map_chunks`] over `n` chunks runs `W = min(budget, n)` workers and
//! each of them works with a budget of `budget / W`.  So a phase called
//! from inside a chain's worker fans out only into cores the chain
//! level left free: six chains on two cores run their phases inline,
//! two big chains on eight cores get four cores each, and a single
//! chain keeps the whole machine.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// What a fan-out made from a thread may spend.
#[derive(Clone, Copy)]
struct Budget {
    /// How many workers a [`map_chunks`] from this thread may run.
    cores: usize,
    /// Set under [`with_workers`] and inherited by its workers:
    /// [`map_entries`] fans out whatever the batch size.
    forced: bool,
}

thread_local! {
    /// This thread's budget, set on a fan-out's workers and under
    /// [`with_workers`].  `None` outside both: every available core.
    static BUDGET: Cell<Option<Budget>> = const { Cell::new(None) };
}

/// Run `f` with `budget` as this thread's, then put back what was there
/// (also when `f` panics: the caller of a fan-out is one of its
/// workers).
fn with_budget<T>(budget: Budget, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<Budget>);
    impl Drop for Restore {
        fn drop(&mut self) {
            BUDGET.set(self.0);
        }
    }
    let _restore = Restore(BUDGET.replace(Some(budget)));
    f()
}

/// Entries (or submissions) per worker chunk of a chain's per-entry
/// phases.  One entry costs 15-60µs of public-key work depending on the
/// phase, so a chunk carries 0.5-2ms against a hand-out cost of one
/// atomic increment.  It is also the unit the phases batch over: one
/// shared table inversion per chunk in the hop kernel
/// (`GroupTable::batch_new`'s break-even), one batched Schnorr check per
/// chunk in PoK screening.
pub const ENTRY_CHUNK: usize = 32;

/// Batches below this many entries run their per-entry phases on the
/// calling thread ([`map_entries`]).
///
/// A phase over a few hundred entries lasts a few milliseconds: a
/// second core can save half of very little, and what it saves comes
/// and goes with that core.  On the two-vCPU reference box, which yields
/// 1.5 to 1.9 effective cores from one run to the next, fanning out the
/// thirty such phases of an in-process round (192 entries per chain)
/// spread `msgs_per_s` 453 1/s between the quartiles of eight runs,
/// against 101 with only sealing fanned out — wider than the benchmark
/// lets a change's runs spread — and over loopback TCP, where the
/// daemons fill both cores anyway, it changed nothing.  At a thousand
/// entries a phase is tens of milliseconds and worth halving.  On
/// smaller batches the unit that pays is a whole chain's round (tens of
/// milliseconds for one hand-out): the chains of an in-process
/// deployment run side by side, one level up.
/// (`docs/ARCHITECTURE.md`, *Threading inside a round*, has the runs.)
const FAN_OUT_MIN_ENTRIES: usize = 1024;

/// Run `f` with every fan-out made *from this thread* spending a budget
/// of exactly `workers` cores — instead of one per available core, and
/// whatever the batch size.  For tests that pin down worker-count
/// invariance; deployments never call this.
#[doc(hidden)]
pub fn with_workers<T>(workers: usize, f: impl FnOnce() -> T) -> T {
    let budget = Budget {
        cores: workers.max(1),
        forced: true,
    };
    with_budget(budget, f)
}

/// Map `f` over consecutive `chunk`-sized slices of `items` and
/// concatenate the results in input order.  Runs on the calling thread
/// plus scoped threads up to this thread's core budget (none at all
/// when there is a single chunk or a single core, and then `f` keeps
/// the whole budget for fan-outs of its own); `f` sees the same slices
/// either way.  A panic in `f` is the fan-out's.
pub fn map_chunks<T: Sync, U: Send>(
    items: &[T],
    chunk: usize,
    f: impl Fn(&[T]) -> Vec<U> + Sync,
) -> Vec<U> {
    assert!(chunk > 0, "chunk size must be positive");
    let n_chunks = items.len().div_ceil(chunk);
    let budget = BUDGET.get().unwrap_or_else(|| Budget {
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        forced: false,
    });
    let workers = budget.cores.min(n_chunks);
    if workers <= 1 {
        return items.chunks(chunk).flat_map(f).collect();
    }
    let share = Budget {
        cores: budget.cores / workers,
        ..budget
    };

    // Relaxed suffices: the cursor only hands out indices; the slices
    // are borrowed immutably and results travel back through `join`.
    let cursor = AtomicUsize::new(0);
    let work = || {
        with_budget(share, || {
            let mut done: Vec<(usize, Vec<U>)> = Vec::new();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n_chunks {
                    return done;
                }
                let start = i * chunk;
                let end = (start + chunk).min(items.len());
                done.push((i, f(&items[start..end])));
            }
        })
    };
    let mut parts = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut parts = work();
        for handle in handles {
            parts.extend(handle.join().expect("fan-out worker panicked"));
        }
        parts
    });
    parts.sort_unstable_by_key(|(i, _)| *i);
    parts.into_iter().flat_map(|(_, part)| part).collect()
}

/// [`map_chunks`] over [`ENTRY_CHUNK`]-sized chunks for the per-entry
/// phases of a chain round, which fan out only from
/// `FAN_OUT_MIN_ENTRIES` entries up; `f` sees the same chunks either
/// way.
pub fn map_entries<T: Sync, U: Send>(entries: &[T], f: impl Fn(&[T]) -> Vec<U> + Sync) -> Vec<U> {
    let forced = BUDGET.get().is_some_and(|budget| budget.forced);
    if entries.len() < FAN_OUT_MIN_ENTRIES && !forced {
        return entries.chunks(ENTRY_CHUNK).flat_map(f).collect();
    }
    map_chunks(entries, ENTRY_CHUNK, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn results_are_in_input_order_for_any_worker_count() {
        let items: Vec<u32> = (0..1000).collect();
        let expected: Vec<u32> = items.iter().map(|x| x * 3).collect();
        for workers in [1, 2, 4, 7] {
            for chunk in [1, 7, 64, 1000, 5000] {
                let got = with_workers(workers, || {
                    map_chunks(&items, chunk, |c| c.iter().map(|x| x * 3).collect())
                });
                assert_eq!(got, expected, "workers={workers} chunk={chunk}");
            }
        }
        assert!(map_chunks(&[] as &[u32], 8, |c| c.to_vec()).is_empty());
    }

    #[test]
    fn chunks_really_run_on_several_threads() {
        // Two chunks, two workers, and a barrier only two distinct
        // threads can pass: a serial execution would deadlock here.
        let barrier = Barrier::new(2);
        let got = with_workers(2, || {
            map_chunks(&[1u8, 2], 1, |c| {
                barrier.wait();
                c.to_vec()
            })
        });
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn small_batches_stay_on_the_calling_thread_unless_forced() {
        let caller = std::thread::current().id();
        let items: Vec<u32> = (0..(3 * ENTRY_CHUNK as u32 + 5)).collect();
        let got = map_entries(&items, |c| {
            assert_eq!(std::thread::current().id(), caller);
            assert!(c.len() <= ENTRY_CHUNK);
            c.to_vec()
        });
        assert_eq!(got, items);

        // Forced, the same batch does fan out: only two distinct
        // threads can pass the barrier its first two chunks wait on.
        let barrier = Barrier::new(2);
        let got = with_workers(2, || {
            map_entries(&items, |c| {
                if c[0] < 2 * ENTRY_CHUNK as u32 {
                    barrier.wait();
                }
                c.to_vec()
            })
        });
        assert_eq!(got, items);
    }

    #[test]
    fn forced_worker_count_is_scoped_to_the_call() {
        let cores = || BUDGET.get().map(|budget| budget.cores);
        with_workers(3, || assert_eq!(cores(), Some(3)));
        assert_eq!(cores(), None);
    }

    #[test]
    fn one_slow_chunk_does_not_hold_back_the_rest() {
        // Worker A blocks inside chunk 0 until chunk 7 (the last) has
        // been handed out — which only happens if the other worker keeps
        // pulling chunks meanwhile (a static split would leave chunks
        // 1-3 to A and never finish).
        let last_started = Barrier::new(2);
        let got = with_workers(2, || {
            map_chunks(&(0..8).collect::<Vec<u32>>(), 1, |c| {
                if c[0] == 0 || c[0] == 7 {
                    last_started.wait();
                }
                c.to_vec()
            })
        });
        assert_eq!(got, (0..8).collect::<Vec<u32>>());
    }

    #[test]
    fn nested_fan_outs_share_the_core_budget() {
        let cores = || BUDGET.get().map(|budget| budget.cores);

        // Budget 4 over 2 units: both units run at once (the outer
        // barrier), each with a budget of 2 — which an inner fan-out
        // really spends (a barrier of its own per unit, passable only by
        // two distinct threads).
        let outer = Barrier::new(2);
        let inner = [Barrier::new(2), Barrier::new(2)];
        let got = with_workers(4, || {
            map_chunks(&[0usize, 1], 1, |unit| {
                outer.wait();
                assert_eq!(cores(), Some(2));
                map_chunks(&[10 * unit[0], 10 * unit[0] + 1], 1, |c| {
                    inner[unit[0]].wait();
                    assert_eq!(cores(), Some(1));
                    c.to_vec()
                })
            })
        });
        assert_eq!(got, vec![0, 1, 10, 11]);

        // Budget 2 over 6 units: two workers with one core each, so a
        // unit's own fan-outs stay on its worker's thread.
        let units: Vec<u32> = (0..6).collect();
        let got = with_workers(2, || {
            map_chunks(&units, 1, |unit| {
                assert_eq!(cores(), Some(1));
                let worker = std::thread::current().id();
                map_entries(&[unit[0]; 3 * ENTRY_CHUNK], |c| {
                    assert_eq!(std::thread::current().id(), worker);
                    vec![c[0]]
                })
            })
        });
        assert_eq!(got, [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5]);

        // One unit takes no worker: what it fans out has the whole
        // budget (three chunks on three threads).
        let three = Barrier::new(3);
        let got = with_workers(3, || {
            map_chunks(&[7u8], 1, |_| {
                assert_eq!(cores(), Some(3));
                map_chunks(&[1u8, 2, 3], 1, |c| {
                    three.wait();
                    c.to_vec()
                })
            })
        });
        assert_eq!(got, vec![1, 2, 3]);
        assert_eq!(cores(), None);
    }

    #[test]
    fn a_panicking_unit_fails_the_fan_out() {
        // The first two units meet on two distinct threads, then the one
        // on the chosen thread panics: on a spawned worker the panic
        // reaches the caller through `join`, on the caller it unwinds
        // through the scope — and either way the caller's budget is what
        // it was.
        for panic_on_caller in [false, true] {
            let caller = std::thread::current().id();
            let met = Barrier::new(2);
            let outcome = std::panic::catch_unwind(|| {
                with_workers(2, || {
                    map_chunks(&[0u8, 1, 2, 3], 1, |c| {
                        if c[0] < 2 {
                            met.wait();
                            let on_caller = std::thread::current().id() == caller;
                            assert!(on_caller != panic_on_caller, "a unit fails");
                        }
                        c.to_vec()
                    })
                })
            });
            assert!(outcome.is_err(), "panic_on_caller={panic_on_caller}");
            assert!(BUDGET.get().is_none());
        }
    }
}
