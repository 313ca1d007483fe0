//! Design-choice ablations (DESIGN.md §3, "Ablations (ours)").
//!
//! Sweeps the knobs that the paper leaves implicit — direction
//! generation, realization arithmetic, SVD backend and the recursive
//! admission order — on a fixed noisy PDN workload, reporting accuracy
//! and wall-clock cost for each choice.
//!
//! Run: `cargo run --release -p mfti-bench --bin ablations`

use std::time::Instant;

use mfti_bench::{print_table, secs, table1_samples};
use mfti_core::{
    metrics, realize_complex, DirectionKind, FitError, Fitter, LoewnerPencil, Mfti, OrderSelection,
    RecursiveMfti, SelectionOrder, TangentialData, Weights,
};
use mfti_numeric::{c64, CMatrix, Svd, SvdMethod};
use mfti_sampling::SampleSet;

/// One realization arithmetic of the t = 2 pencil: (order, ERR).
type Realization = fn(&SampleSet, DirectionKind, OrderSelection) -> Result<(usize, f64), FitError>;

/// The pipeline: Lemma 3.2 realification, then real projection.
fn real_pipeline(
    noisy: &SampleSet,
    dirs: DirectionKind,
    selection: OrderSelection,
) -> Result<(usize, f64), FitError> {
    let fit = Mfti::new()
        .weights(Weights::Uniform(2))
        .directions(dirs)
        .order_selection(selection)
        .fit(noisy)?;
    Ok((fit.order(), metrics::err_rms_of(fit.model(), noisy)?))
}

/// Lemma 3.4's complex projection, the step the realification
/// replaces: order from the complex shifted pencil's singular values,
/// then the `realize_complex` oracle.
fn complex_oracle(
    noisy: &SampleSet,
    dirs: DirectionKind,
    selection: OrderSelection,
) -> Result<(usize, f64), FitError> {
    let data = TangentialData::build(noisy, dirs, &Weights::Uniform(2))?;
    let pencil = LoewnerPencil::build(&data)?;
    let x0 = pencil.default_x0();
    let order = selection.detect(&pencil.shifted_pencil_singular_values(x0)?)?;
    let model = realize_complex(&pencil, x0, order)?;
    Ok((order, metrics::err_rms_of(&model, noisy)?))
}

fn main() {
    let (_, noisy) = table1_samples(1);
    let selection = OrderSelection::NoiseFloor { factor: 10.0 };

    // --- Direction kind x realization arithmetic -------------------------
    println!("MFTI t=2 on the Table-1 workload: directions x realization\n");
    let mut rows = Vec::new();
    for (dname, dirs) in [
        (
            "random orthonormal",
            DirectionKind::RandomOrthonormal { seed: 7 },
        ),
        ("cyclic identity", DirectionKind::CyclicIdentity),
    ] {
        for (pname, run) in [
            ("real (Lemma 3.2)", real_pipeline as Realization),
            ("complex (Lemma 3.4)", complex_oracle),
        ] {
            let t0 = Instant::now();
            match run(&noisy, dirs, selection) {
                Ok((order, err)) => rows.push(vec![
                    dname.to_string(),
                    pname.to_string(),
                    order.to_string(),
                    secs(t0.elapsed()),
                    format!("{err:.2e}"),
                ]),
                Err(e) => eprintln!("{dname}/{pname} failed: {e}"),
            }
        }
    }
    print_table(
        &["directions", "realization", "order", "time(s)", "ERR"],
        &rows,
    );

    // --- Recursive admission order ---------------------------------------
    println!("\nAlgorithm 2 admission order (t=2, batch 5):\n");
    let mut rows = Vec::new();
    for (name, order) in [
        ("worst-first (default)", SelectionOrder::WorstFirst),
        (
            "best-first (literal pseudo-code)",
            SelectionOrder::BestFirst,
        ),
    ] {
        let t0 = Instant::now();
        match RecursiveMfti::new()
            .weights(Weights::Uniform(2))
            .order_selection(selection)
            .batch_pairs(5)
            .threshold(1e-3)
            .selection_order(order)
            .fit(&noisy)
        {
            Ok(fit) => {
                let err = metrics::err_rms_of(fit.model(), &noisy).unwrap_or(f64::INFINITY);
                let used = fit.used_pairs().expect("recursive diagnostics");
                let rounds = fit.rounds().expect("recursive diagnostics");
                rows.push(vec![
                    name.to_string(),
                    format!("{}/{}", used.len(), noisy.len() / 2),
                    rounds.len().to_string(),
                    secs(t0.elapsed()),
                    format!("{err:.2e}"),
                ]);
            }
            Err(e) => eprintln!("{name} failed: {e}"),
        }
    }
    print_table(
        &["admission", "pairs used", "rounds", "time(s)", "ERR"],
        &rows,
    );

    // --- SVD backend agreement on the actual pencil ----------------------
    println!("\nSVD backends on a 120x120 complex probe (accuracy cross-check):\n");
    let probe = CMatrix::from_fn(120, 120, |i, j| {
        let x = ((i * 37 + j * 13) % 101) as f64 / 101.0 - 0.5;
        let y = ((i * 17 + j * 71) % 97) as f64 / 97.0 - 0.5;
        c64(x, y)
    });
    let t0 = Instant::now();
    let gk = Svd::compute_with(&probe, SvdMethod::GolubKahan).expect("gk svd");
    let t_gk = t0.elapsed();
    let t0 = Instant::now();
    let ja = Svd::compute_with(&probe, SvdMethod::Jacobi).expect("jacobi svd");
    let t_ja = t0.elapsed();
    let max_dev = gk
        .singular_values()
        .iter()
        .zip(ja.singular_values())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max)
        / gk.singular_values()[0];
    println!("golub-kahan: {}   jacobi: {}", secs(t_gk), secs(t_ja));
    println!("max relative singular-value disagreement: {max_dev:.2e}");
}
