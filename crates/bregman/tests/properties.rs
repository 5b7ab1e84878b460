//! Property-based tests for the Bregman divergence primitives.
//!
//! `proptest` is not available in the offline build environment, so each
//! property is checked over a deterministic battery of seeded random inputs
//! instead of shrinking strategies. The properties themselves are unchanged.

use bregman::{
    DecomposableBregman, DenseDataset, DivergenceKind, Exponential, GeneralizedI,
    GeodesicInterpolator, ItakuraSaito, SquaredEuclidean,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const CASES: usize = 64;

/// Strictly positive coordinates usable by every divergence.
fn positive_vec(rng: &mut ChaCha8Rng, len: usize) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(0.05..50.0)).collect()
}

/// Possibly-negative coordinates (SE / exponential only).
fn real_vec(rng: &mut ChaCha8Rng, len: usize) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(-20.0..20.0)).collect()
}

#[test]
fn divergences_are_non_negative_on_positive_orthant() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB1);
    for _ in 0..CASES {
        let x = positive_vec(&mut rng, 8);
        let y = positive_vec(&mut rng, 8);
        for kind in DivergenceKind::ALL {
            let d = kind.divergence(&x, &y);
            assert!(d >= -1e-9, "{kind}: divergence {d} < 0");
        }
    }
}

#[test]
fn divergence_is_zero_iff_equal() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB2);
    for _ in 0..CASES {
        let x = positive_vec(&mut rng, 6);
        for kind in DivergenceKind::ALL {
            let d = kind.divergence(&x, &x);
            assert!(d.abs() < 1e-9, "{kind}: D(x,x) = {d}");
        }
    }
}

#[test]
fn squared_euclidean_and_exponential_accept_negatives() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB3);
    for _ in 0..CASES {
        let x = real_vec(&mut rng, 8);
        let y = real_vec(&mut rng, 8);
        let se = SquaredEuclidean.divergence(&x, &y);
        let ed = Exponential.divergence(&x, &y);
        assert!(se >= 0.0);
        assert!(ed >= -1e-9);
        assert!(se.is_finite());
        assert!(ed.is_finite());
    }
}

#[test]
fn decomposability_sum_of_parts() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB4);
    for _ in 0..CASES {
        let x = positive_vec(&mut rng, 12);
        let y = positive_vec(&mut rng, 12);
        let split = rng.gen_range(1..11usize);
        // D(x, y) over the full vector equals the sum over any split — the
        // property the whole BrePartition framework rests on.
        for kind in [
            DivergenceKind::SquaredEuclidean,
            DivergenceKind::ItakuraSaito,
            DivergenceKind::Exponential,
        ] {
            let whole = kind.divergence(&x, &y);
            let parts = kind.divergence(&x[..split], &y[..split])
                + kind.divergence(&x[split..], &y[split..]);
            assert!(
                (whole - parts).abs() < 1e-7 * (1.0 + whole.abs()),
                "{kind}: whole={whole} parts={parts}"
            );
        }
    }
}

#[test]
fn scalar_divergence_is_convex_in_first_argument() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB5);
    for _ in 0..CASES {
        let a = rng.gen_range(0.1..20.0);
        let b = rng.gen_range(0.1..20.0);
        let y = rng.gen_range(0.1..20.0);
        let lambda = rng.gen_range(0.0..1.0);
        // φ-divergence d(·, y) is convex: d(λa+(1-λ)b, y) ≤ λ d(a,y) + (1-λ) d(b,y).
        let mid = lambda * a + (1.0 - lambda) * b;
        for kind in DivergenceKind::ALL {
            let lhs = kind.divergence(&[mid], &[y]);
            let rhs =
                lambda * kind.divergence(&[a], &[y]) + (1.0 - lambda) * kind.divergence(&[b], &[y]);
            assert!(lhs <= rhs + 1e-7 * (1.0 + rhs.abs()), "{kind}: {lhs} > {rhs}");
        }
    }
}

#[test]
fn dual_roundtrip_is_identity() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB6);
    for _ in 0..CASES {
        let x = positive_vec(&mut rng, 5);
        type Roundtrip<'a> = &'a dyn Fn(&[f64]) -> Vec<f64>;
        let divergences: [Roundtrip; 3] = [
            &|v| SquaredEuclidean.from_dual(&SquaredEuclidean.to_dual(v)),
            &|v| ItakuraSaito.from_dual(&ItakuraSaito.to_dual(v)),
            &|v| GeneralizedI.from_dual(&GeneralizedI.to_dual(v)),
        ];
        for roundtrip in divergences {
            let back = roundtrip(&x);
            for (orig, rec) in x.iter().zip(back.iter()) {
                assert!((orig - rec).abs() < 1e-6 * (1.0 + orig.abs()));
            }
        }
    }
}

#[test]
fn geodesic_endpoints_and_monotonicity() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB7);
    for _ in 0..CASES {
        let a = positive_vec(&mut rng, 4);
        let b = positive_vec(&mut rng, 4);
        let mut interp = GeodesicInterpolator::new(ItakuraSaito, &a, &b);
        let start = interp.at(0.0).to_vec();
        let end = interp.at(1.0).to_vec();
        for i in 0..4 {
            assert!((start[i] - a[i]).abs() < 1e-6 * (1.0 + a[i].abs()));
            assert!((end[i] - b[i]).abs() < 1e-6 * (1.0 + b[i].abs()));
        }
        // Divergence to the θ=1 endpoint decreases monotonically (Cayton's lemma).
        let mut prev = f64::INFINITY;
        for step in 0..=8 {
            let theta = step as f64 / 8.0;
            let d = interp.divergence_to(theta, &b);
            assert!(d <= prev + 1e-6 * (1.0 + prev.abs().min(1e12)));
            prev = d;
        }
    }
}

#[test]
fn query_components_bound_reconstruction() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB8);
    for _ in 0..CASES {
        let x = positive_vec(&mut rng, 10);
        let y = positive_vec(&mut rng, 10);
        // The Cauchy upper bound assembled from the transform components must
        // dominate the exact divergence (Theorem 1 of the paper).
        fn check<B: DecomposableBregman>(b: &B, x: &[f64], y: &[f64]) -> (f64, f64) {
            let (alpha_x, gamma_x) = b.point_components(x);
            let (alpha_y, beta_yy, delta_y) = b.query_components(y);
            let ub = alpha_x + alpha_y + beta_yy + (gamma_x * delta_y).sqrt();
            (b.divergence(x, y), ub)
        }
        for (exact, ub) in [
            check(&SquaredEuclidean, &x, &y),
            check(&ItakuraSaito, &x, &y),
            check(&Exponential, &x, &y),
        ] {
            assert!(exact <= ub + 1e-7 * (1.0 + ub.abs()), "exact={exact} ub={ub}");
        }
    }
}

#[test]
fn dataset_projection_preserves_rows() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB9);
    for _ in 0..CASES {
        let n = rng.gen_range(1..20usize);
        let rows: Vec<Vec<f64>> =
            (0..n).map(|_| (0..6).map(|_| rng.gen_range(0.1..10.0)).collect()).collect();
        let ds = DenseDataset::from_rows(&rows).unwrap();
        let proj = ds.project(&[5, 3, 1]).unwrap();
        assert_eq!(proj.len(), ds.len());
        for i in 0..ds.len() {
            let orig = ds.row(i);
            let p = proj.row(i);
            assert_eq!(p, &[orig[5], orig[3], orig[1]]);
        }
    }
}
