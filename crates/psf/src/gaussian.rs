//! The Gaussian point-spread function of the paper (eq. 2).
//!
//! ```text
//! μ(x, y) = 1/(2πδ²) · exp(−((x−X)² + (y−Y)²)/(2δ²))
//! ```
//!
//! `δ` (sigma) reflects the width of the distribution circle of the optical
//! system; `(X, Y)` is the star centre where intensity peaks. μ is the
//! *intensity contribution rate* the star exerts at pixel `(x, y)`.

/// A Gaussian PSF with standard deviation `sigma` (pixels).
///
/// The PSF is evaluated relative to a star centre passed per call, so one
/// `GaussianPsf` is shared by every star of a simulation (the paper's optic
/// parameters are fixed per simulator run).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianPsf {
    sigma: f32,
    /// Precomputed 1/(2πδ²).
    norm: f32,
    /// Precomputed 1/(2δ²).
    inv_two_sigma_sq: f32,
}

impl GaussianPsf {
    /// Creates a PSF with the given standard deviation in pixels.
    ///
    /// # Panics
    /// Panics unless `sigma` is finite and positive.
    pub fn new(sigma: f32) -> Self {
        assert!(
            sigma.is_finite() && sigma > 0.0,
            "PSF sigma must be positive and finite, got {sigma}"
        );
        let two_sigma_sq = 2.0 * sigma * sigma;
        GaussianPsf {
            sigma,
            norm: 1.0 / (std::f32::consts::PI * two_sigma_sq),
            inv_two_sigma_sq: 1.0 / two_sigma_sq,
        }
    }

    /// The standard deviation δ in pixels.
    #[inline]
    pub fn sigma(&self) -> f32 {
        self.sigma
    }

    /// The peak value `μ(X, Y) = 1/(2πδ²)`.
    #[inline]
    pub fn peak(&self) -> f32 {
        self.norm
    }

    /// Evaluates μ at squared distance `r²` from the star centre.
    #[inline]
    pub fn eval_r2(&self, r2: f32) -> f32 {
        self.norm * (-r2 * self.inv_two_sigma_sq).exp()
    }

    /// Evaluates μ at pixel `(x, y)` for a star centred at `(cx, cy)`
    /// (paper eq. 2 verbatim).
    #[inline]
    pub fn eval(&self, x: f32, y: f32, cx: f32, cy: f32) -> f32 {
        let dx = x - cx;
        let dy = y - cy;
        self.eval_r2(dx * dx + dy * dy)
    }

    /// Fraction of total PSF energy contained within a radius `r` of the
    /// centre (the Rayleigh CDF): `1 − exp(−r²/(2δ²))`.
    ///
    /// The paper restricts deposition to an ROI because "the intensity
    /// distribution of a star to a certain pixel reduces drastically when
    /// the distance ... expands"; this quantifies how much a given ROI
    /// radius captures.
    #[inline]
    pub fn encircled_energy(&self, r: f32) -> f32 {
        1.0 - (-(r * r) * self.inv_two_sigma_sq).exp()
    }

    /// The smallest ROI *margin* (half-side, in whole pixels) whose
    /// inscribed circle captures at least `fraction` of the PSF energy.
    ///
    /// Empirically the paper sets ROI radii "within a range from 2~20
    /// pixels"; this helper picks one from an energy target instead.
    pub fn margin_for_energy(&self, fraction: f32) -> usize {
        assert!(
            (0.0..1.0).contains(&fraction),
            "energy fraction must be in [0, 1), got {fraction}"
        );
        // r = δ·sqrt(−2·ln(1−fraction))
        let r = self.sigma * (-2.0 * (1.0 - fraction).ln()).sqrt();
        (r.ceil() as usize).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_matches_formula() {
        for sigma in [0.5f32, 1.0, 2.0, 5.0] {
            let psf = GaussianPsf::new(sigma);
            let expect = 1.0 / (2.0 * std::f32::consts::PI * sigma * sigma);
            assert!((psf.peak() - expect).abs() < 1e-9);
            assert_eq!(psf.eval(0.0, 0.0, 0.0, 0.0), psf.peak());
            assert_eq!(psf.sigma(), sigma);
        }
    }

    #[test]
    fn radially_symmetric() {
        let psf = GaussianPsf::new(2.0);
        let a = psf.eval(3.0, 4.0, 0.0, 0.0);
        let b = psf.eval(-4.0, 3.0, 0.0, 0.0);
        let c = psf.eval(5.0, 0.0, 0.0, 0.0);
        assert!((a - b).abs() < 1e-12);
        assert!((a - c).abs() < 1e-12);
    }

    #[test]
    fn translation_invariant() {
        let psf = GaussianPsf::new(1.5);
        let a = psf.eval(10.0, 20.0, 8.0, 19.0);
        let b = psf.eval(2.0, 1.0, 0.0, 0.0);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn monotone_decay_with_distance() {
        let psf = GaussianPsf::new(2.0);
        let mut prev = f32::INFINITY;
        for i in 0..100 {
            let v = psf.eval_r2((i as f32 * 0.5).powi(2));
            // Strictly decreasing until exp underflows to zero.
            if prev > 0.0 {
                assert!(v < prev);
            } else {
                assert_eq!(v, 0.0);
            }
            assert!(v >= 0.0);
            prev = v;
        }
    }

    #[test]
    fn integrates_to_one_numerically() {
        // Midpoint-rule integral over a wide grid ≈ 1 (PSF is normalized).
        let psf = GaussianPsf::new(2.0);
        let mut sum = 0.0f64;
        let half = 20;
        for y in -half..=half {
            for x in -half..=half {
                sum += psf.eval(x as f32, y as f32, 0.0, 0.0) as f64;
            }
        }
        assert!((sum - 1.0).abs() < 1e-3, "integral was {sum}");
    }

    #[test]
    fn encircled_energy_behaviour() {
        let psf = GaussianPsf::new(2.0);
        assert_eq!(psf.encircled_energy(0.0), 0.0);
        // 1σ circle of a 2-D Gaussian holds 1 − e^(−1/2) ≈ 39.3%.
        assert!((psf.encircled_energy(2.0) - 0.3935).abs() < 1e-3);
        // 3σ ≈ 98.9%.
        assert!(psf.encircled_energy(6.0) > 0.98);
        assert!(psf.encircled_energy(100.0) <= 1.0);
    }

    #[test]
    fn margin_for_energy_is_sufficient_and_tight() {
        let psf = GaussianPsf::new(2.0);
        for target in [0.5f32, 0.9, 0.99] {
            let m = psf.margin_for_energy(target);
            assert!(psf.encircled_energy(m as f32) >= target);
            if m > 1 {
                assert!(
                    psf.encircled_energy((m - 1) as f32) < target,
                    "margin {m} not tight for target {target}"
                );
            }
        }
    }

    #[test]
    fn paper_roi_range_covers_common_sigmas() {
        // Empirical ROI radius 2..20 px should capture ≥95% for σ in ~0.8..8.
        for sigma in [0.8f32, 2.0, 4.0, 8.0] {
            let m = GaussianPsf::new(sigma).margin_for_energy(0.95);
            assert!((1..=20).contains(&m), "σ={sigma} ⇒ margin {m}");
        }
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_sigma_rejected() {
        let _ = GaussianPsf::new(0.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn nan_sigma_rejected() {
        let _ = GaussianPsf::new(f32::NAN);
    }
}
