//! Scoped-thread parallel executor with **deterministic static chunking**.
//!
//! The offline build environment precludes rayon, so the workspace ships
//! its own minimal fan-out primitive built on [`std::thread::scope`].
//! It is deliberately simple — no work stealing, no dynamic scheduling —
//! because the frequency-sweep workloads it serves
//! (`Macromodel::eval_batch` in `mfti-statespace`, passivity scans,
//! fit-error metrics) consist of uniform, independent per-item jobs.
//!
//! # Determinism guarantee
//!
//! [`map`] and [`map_with`] compute `out[i] = f(i, &items[i])` where `f`
//! sees **only** the item index and value — never the chunk layout, the
//! worker id, or any shared mutable state. Each worker writes a disjoint,
//! contiguous slice of the output (static chunk assignment, one chunk per
//! worker), so the result is **bit-identical for every thread count**,
//! including the serial `threads == 1` path. The test suite asserts this
//! at 1, 2 and `N` threads.
//!
//! # Thread-count control
//!
//! [`available_threads`] is the default worker count used by the sweep
//! paths: the `MFTI_THREADS` environment variable when it parses as a
//! positive integer, otherwise [`std::thread::available_parallelism`].
//! Callers that need explicit control (benchmarks, servers with their own
//! pools) use the `*_with` variants and pass a count directly.
//!
//! ```
//! let squares = mfti_numeric::parallel::map_with(4, &[1i64, 2, 3, 4, 5], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

use std::sync::OnceLock;

/// Hard ceiling on the worker count: beyond this, thread spawn overhead
/// dwarfs any per-chunk win for the dense-sweep workloads in this repo.
const MAX_THREADS: usize = 256;

/// Default worker count for parallel sweeps: the `MFTI_THREADS`
/// environment variable when set to a positive integer, otherwise
/// [`std::thread::available_parallelism`] (1 when even that is unknown).
/// The result is clamped to `1..=256`.
///
/// The variable is read on every call, so a process (or a test) that
/// changes it takes effect at the next call. The hardware count is
/// resolved once per process: `available_parallelism` reads the cgroup
/// files on Linux, which costs more than a small fit's sweep set-up.
pub fn available_threads() -> usize {
    static HARDWARE: OnceLock<usize> = OnceLock::new();
    let hardware = || {
        *HARDWARE.get_or_init(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
    };
    let n = match std::env::var("MFTI_THREADS") {
        Ok(v) => parse_thread_override(&v).unwrap_or_else(hardware),
        Err(_) => hardware(),
    };
    n.clamp(1, MAX_THREADS)
}

/// Parses an `MFTI_THREADS`-style override; `None` for anything that is
/// not a positive integer (the caller then falls back to the hardware
/// count).
fn parse_thread_override(v: &str) -> Option<usize> {
    v.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

/// Parallel `out[i] = f(i, &items[i])` with [`available_threads`] workers.
///
/// See [`map_with`] for the chunking and determinism contract.
pub fn map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    map_with(available_threads(), items, f)
}

/// Parallel `out[i] = f(i, &items[i])` over at most `threads` scoped
/// workers.
///
/// Items are split into `⌈len / workers⌉`-sized contiguous chunks, one
/// per worker, assigned statically in index order; each worker fills its
/// own disjoint output slice. Chunk 0 runs on the calling thread, which
/// would otherwise only wait for the scope, so `workers` chunks cost
/// `workers − 1` spawns. Because `f` never observes the chunk layout,
/// the output is bit-identical for every `threads` value. With
/// `threads <= 1` (or a single item) no thread is spawned at all.
///
/// # Panics
///
/// Propagates panics from `f` (the scope joins all workers first).
pub fn map_with<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let mut slots: Vec<(&T, Option<R>)> = items.iter().map(|x| (x, None)).collect();
    for_each_mut(threads, &mut slots, |i, (x, slot)| *slot = Some(f(i, x)));
    slots
        .into_iter()
        .map(|(_, r)| r.expect("every chunk slot filled")) // mfti-lint: allow(MFTI-D7) — for_each_mut visits every item; the scope joined every writer
        .collect()
}

/// Fallible variant of [`map_with`]: runs every item, then returns the
/// error of the **lowest-index** failing item (matching what a serial
/// fail-fast loop would report), independent of thread count.
///
/// # Errors
///
/// The error produced by the lowest-index item whose `f` failed.
pub fn try_map_with<T, R, E, F>(threads: usize, items: &[T], f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    map_with(threads, items, f).into_iter().collect()
}

/// Parallel in-place `f(i, &mut items[i])` over at most `threads`
/// scoped workers — the executor behind [`map_with`], with the same
/// static chunking (contiguous `⌈len / workers⌉` chunks, chunk 0 on the
/// calling thread). Items are typically disjoint `&mut` views into one
/// preallocated output — rows of a matrix being filled — so workers
/// write their results in place instead of returning per-item buffers
/// to be copied. Because `f` never observes the chunk layout, the
/// result is bit-identical for every `threads` value.
///
/// # Panics
///
/// Propagates panics from `f` (the scope joins all workers first).
pub fn for_each_mut<T, F>(threads: usize, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = items.len();
    let workers = threads.clamp(1, MAX_THREADS).min(n);
    let fill = |base: usize, chunk: &mut [T]| {
        for (k, x) in chunk.iter_mut().enumerate() {
            f(base + k, x);
        }
    };
    if workers <= 1 {
        fill(0, items);
        return;
    }
    let chunk = n.div_ceil(workers);
    std::thread::scope(|scope| {
        let mut chunks = items.chunks_mut(chunk);
        let head = chunks.next();
        for (ci, in_chunk) in chunks.enumerate() {
            let fill = &fill;
            scope.spawn(move || fill((ci + 1) * chunk, in_chunk));
        }
        if let Some(in_chunk) = head {
            fill(0, in_chunk);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_each_mut_fills_in_place_identically_for_every_thread_count() {
        let serial: Vec<f64> = (0..97).map(|i| (i as f64 * 0.3).sin()).collect();
        for threads in [1, 2, 3, 8, 200] {
            let mut out = vec![0.0f64; 97 * 3];
            let mut rows: Vec<&mut [f64]> = out.chunks_mut(3).collect();
            for_each_mut(threads, &mut rows, |i, row| {
                row.fill((i as f64 * 0.3).sin());
            });
            assert!(
                out.chunks(3)
                    .zip(&serial)
                    .all(|(row, want)| row.iter().all(|x| x.to_bits() == want.to_bits())),
                "threads = {threads}"
            );
        }
        for_each_mut(4, &mut Vec::<&mut [f64]>::new(), |_, _| unreachable!());
    }

    #[test]
    fn map_preserves_order_for_every_thread_count() {
        let items: Vec<usize> = (0..103).collect();
        let serial: Vec<usize> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| i * 1000 + x)
            .collect();
        for threads in [1, 2, 3, 7, 16, 200] {
            let par = map_with(threads, &items, |i, &x| i * 1000 + x);
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn float_results_are_bit_identical_across_thread_counts() {
        // The determinism contract is *bit* identity, not approximate
        // equality: compare the raw f64 bit patterns.
        let items: Vec<f64> = (0..257).map(|i| 1.0 + i as f64 * 0.7).collect();
        let work = |_: usize, &x: &f64| (x.sin() * x.sqrt()).ln_1p() / (x + 0.3);
        let one = map_with(1, &items, work);
        for threads in [2, 5, 64] {
            let many = map_with(threads, &items, work);
            assert!(
                one.iter()
                    .zip(&many)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn chunk_zero_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..103).collect();
        for threads in [1, 2, 3, 7, 16, 200] {
            let on_caller = map_with(threads, &items, |_, _| {
                std::thread::current().id() == caller
            });
            let chunk = items.len().div_ceil(threads.min(items.len()));
            let head = if threads == 1 { items.len() } else { chunk };
            assert!(on_caller[..head].iter().all(|&c| c), "threads = {threads}");
            assert!(on_caller[head..].iter().all(|&c| !c), "threads = {threads}");
        }
    }

    #[test]
    fn a_panic_in_the_callers_chunk_propagates() {
        let items: Vec<usize> = (0..16).collect();
        let result = std::panic::catch_unwind(|| {
            map_with(4, &items, |i, &x| {
                assert!(i != 0, "chunk 0 fails");
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(map_with(8, &empty, |_, &x| x).is_empty());
        assert_eq!(map_with(8, &[41u8], |_, &x| x + 1), vec![42]);
    }

    #[test]
    fn zero_threads_degrades_to_serial() {
        assert_eq!(map_with(0, &[1, 2, 3], |_, &x| x * 2), vec![2, 4, 6]);
    }

    #[test]
    fn try_map_reports_the_lowest_index_error() {
        let items: Vec<usize> = (0..64).collect();
        for threads in [1, 3, 8] {
            let got: Result<Vec<usize>, usize> =
                try_map_with(
                    threads,
                    &items,
                    |i, &x| {
                        if x % 10 == 7 {
                            Err(i)
                        } else {
                            Ok(x)
                        }
                    },
                );
            assert_eq!(got.unwrap_err(), 7, "threads = {threads}");
        }
    }

    #[test]
    fn thread_override_parsing() {
        assert_eq!(parse_thread_override("4"), Some(4));
        assert_eq!(parse_thread_override("  12\n"), Some(12));
        assert_eq!(parse_thread_override("0"), None);
        assert_eq!(parse_thread_override("-3"), None);
        assert_eq!(parse_thread_override("many"), None);
        assert_eq!(parse_thread_override(""), None);
    }

    #[test]
    fn available_threads_is_positive_and_bounded() {
        let n = available_threads();
        assert!((1..=MAX_THREADS).contains(&n));
    }
}
