//! Elementary synthetic generators.

use bregman::DenseDataset;
use rand::distributions::Distribution;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Uniform data in `[lo, hi)` per coordinate.
pub fn uniform(n: usize, dim: usize, lo: f64, hi: f64, seed: u64) -> DenseDataset {
    assert!(hi > lo, "uniform range must be non-empty");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut data = Vec::with_capacity(n * dim);
    for _ in 0..n * dim {
        data.push(rng.gen_range(lo..hi));
    }
    DenseDataset::from_flat(dim, data).expect("uniform generator produced ragged data")
}

/// Gaussian data with the given per-coordinate mean and standard deviation.
///
/// Sampling uses the Box-Muller transform so the only external dependency is
/// the uniform RNG.
pub fn normal(n: usize, dim: usize, mean: f64, std_dev: f64, seed: u64) -> DenseDataset {
    assert!(std_dev >= 0.0, "standard deviation must be non-negative");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut data = Vec::with_capacity(n * dim);
    let gauss = BoxMuller;
    for _ in 0..n * dim {
        data.push(mean + std_dev * gauss.sample(&mut rng));
    }
    DenseDataset::from_flat(dim, data).expect("normal generator produced ragged data")
}

/// Gaussian data clipped (reflected) into the strictly positive orthant, for
/// divergences whose domain is `t > 0` (Itakura-Saito, generalized KL).
pub fn positive_normal(
    n: usize,
    dim: usize,
    mean: f64,
    std_dev: f64,
    floor: f64,
    seed: u64,
) -> DenseDataset {
    assert!(floor > 0.0, "floor must be strictly positive");
    let base = normal(n, dim, mean, std_dev, seed);
    let data: Vec<f64> = base.as_flat().iter().map(|&v| v.abs().max(floor)).collect();
    DenseDataset::from_flat(dim, data).expect("positive normal generator produced ragged data")
}

/// A mixture of `clusters` Gaussian clusters with centres drawn uniformly
/// from `[center_lo, center_hi)` and the given within-cluster spread; this is
/// the shape multimedia descriptor datasets (Audio/Deep/SIFT) tend to have
/// and is what makes ball-tree style indexes meaningful.
pub fn clustered(
    n: usize,
    dim: usize,
    clusters: usize,
    center_lo: f64,
    center_hi: f64,
    spread: f64,
    seed: u64,
) -> DenseDataset {
    assert!(clusters > 0, "need at least one cluster");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let centers: Vec<Vec<f64>> = (0..clusters)
        .map(|_| (0..dim).map(|_| rng.gen_range(center_lo..center_hi)).collect())
        .collect();
    let gauss = BoxMuller;
    let mut data = Vec::with_capacity(n * dim);
    for i in 0..n {
        let center = &centers[i % clusters];
        for &c in center.iter() {
            data.push(c + spread * gauss.sample(&mut rng));
        }
    }
    DenseDataset::from_flat(dim, data).expect("clustered generator produced ragged data")
}

/// Shift and clamp every coordinate so the dataset is strictly positive
/// (minimum value becomes `floor`); used to adapt generators to the
/// Itakura-Saito domain.
pub fn shift_positive(dataset: &DenseDataset, floor: f64) -> DenseDataset {
    assert!(floor > 0.0, "floor must be strictly positive");
    let min = dataset.as_flat().iter().cloned().fold(f64::INFINITY, f64::min);
    let shift = if min.is_finite() && min < floor { floor - min } else { 0.0 };
    let data: Vec<f64> = dataset.as_flat().iter().map(|&v| v + shift).collect();
    DenseDataset::from_flat(dataset.dim(), data).expect("shift preserved shape")
}

/// Box-Muller standard-normal sampler over any `Rng`.
#[derive(Debug, Default, Clone, Copy)]
pub struct BoxMuller;

impl BoxMuller {
    /// Draw one standard-normal sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Avoid u1 = 0 exactly (log(0) = -inf).
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

impl Distribution<f64> for BoxMuller {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        BoxMuller::sample(self, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_respects_bounds_and_shape() {
        let ds = uniform(100, 7, 2.0, 5.0, 1);
        assert_eq!(ds.len(), 100);
        assert_eq!(ds.dim(), 7);
        assert!(ds.as_flat().iter().all(|&v| (2.0..5.0).contains(&v)));
    }

    #[test]
    fn uniform_is_deterministic_per_seed() {
        let a = uniform(50, 3, 0.0, 1.0, 9);
        let b = uniform(50, 3, 0.0, 1.0, 9);
        let c = uniform(50, 3, 0.0, 1.0, 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn normal_has_roughly_correct_moments() {
        let ds = normal(4000, 4, 10.0, 2.0, 3);
        let flat = ds.as_flat();
        let mean: f64 = flat.iter().sum::<f64>() / flat.len() as f64;
        let var: f64 =
            flat.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / flat.len() as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn positive_normal_is_strictly_positive() {
        let ds = positive_normal(500, 6, 0.0, 3.0, 0.01, 4);
        assert!(ds.as_flat().iter().all(|&v| v >= 0.01));
    }

    #[test]
    fn clustered_data_forms_tight_groups() {
        let ds = clustered(200, 5, 4, 0.0, 100.0, 0.5, 5);
        assert_eq!(ds.len(), 200);
        // Points assigned to the same cluster (i and i+4) should be much
        // closer to each other than to other clusters on average.
        let same = bregman::SquaredEuclidean;
        use bregman::DecomposableBregman;
        let within = same.divergence(ds.row(0), ds.row(4));
        let across = same.divergence(ds.row(0), ds.row(1));
        assert!(within < across, "within {within} should be < across {across}");
    }

    #[test]
    fn shift_positive_moves_minimum_to_floor() {
        let ds = normal(300, 3, 0.0, 1.0, 6);
        let shifted = shift_positive(&ds, 0.5);
        let min = shifted.as_flat().iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((min - 0.5).abs() < 1e-9);
        // Already-positive data is untouched.
        let positive = uniform(10, 2, 5.0, 6.0, 7);
        let untouched = shift_positive(&positive, 0.5);
        assert_eq!(positive, untouched);
    }

    #[test]
    fn box_muller_is_centered() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let sampler = BoxMuller;
        let samples: Vec<f64> = (0..20000).map(|_| sampler.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
    }
}
