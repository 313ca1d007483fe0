//! Thread-count invariance of the blocked SVD's parallel trailing
//! update — isolated in its own test binary because it cycles the
//! process-global `MFTI_THREADS` variable, which sibling tests in a
//! shared binary would race against (they read it through
//! `parallel::available_threads` while running concurrently).

use mfti_numeric::parallel::available_threads;
use mfti_numeric::{c64, CMatrix, Svd, SvdMethod};

fn pseudo_random_complex(m: usize, n: usize, mut seed: u64) -> CMatrix {
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        (seed as f64 / u64::MAX as f64) * 2.0 - 1.0
    };
    CMatrix::from_fn(m, n, |_, _| c64(next(), next()))
}

#[test]
fn trailing_update_is_thread_count_invariant() {
    // The panel trailing update fans out per column block over
    // `MFTI_THREADS` workers; every bit of the decomposition must be
    // independent of the worker count. The variable is read on every
    // call (only the hardware fallback is resolved once), so each value
    // set here is the count the next decomposition runs with.
    let a = pseudo_random_complex(160, 120, 0x7a11);
    let reference = {
        std::env::set_var("MFTI_THREADS", "1");
        assert_eq!(available_threads(), 1);
        Svd::compute_with(&a, SvdMethod::Blocked).unwrap()
    };
    for threads in ["2", "3", "5", "8"] {
        std::env::set_var("MFTI_THREADS", threads);
        assert_eq!(available_threads().to_string(), threads);
        let svd = Svd::compute_with(&a, SvdMethod::Blocked).unwrap();
        assert_eq!(
            reference.singular_values(),
            svd.singular_values(),
            "singular values differ at MFTI_THREADS={threads}"
        );
        let bits = |m: &CMatrix| -> Vec<(u64, u64)> {
            m.as_slice()
                .iter()
                .map(|z| (z.re.to_bits(), z.im.to_bits()))
                .collect()
        };
        assert_eq!(
            bits(reference.u()),
            bits(svd.u()),
            "U differs at MFTI_THREADS={threads}"
        );
        assert_eq!(
            bits(reference.v()),
            bits(svd.v()),
            "V differs at MFTI_THREADS={threads}"
        );
    }
    std::env::remove_var("MFTI_THREADS");
    let hardware = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    assert_eq!(available_threads(), hardware.clamp(1, 256));
}
