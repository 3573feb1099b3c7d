//! Pixel-integrated Gaussian PSF — an accuracy extension.
//!
//! The paper samples μ(x, y) at the pixel centre (point sampling). A real
//! CCD pixel integrates the PSF over its unit square; for small σ the
//! difference is significant (a σ=0.5 star deposits ~80% of its energy in
//! one pixel, which point sampling badly misestimates). Because a 2-D
//! Gaussian separates, the integral over pixel `[x−½, x+½] × [y−½, y+½]` is
//! a product of two 1-D erf differences.

use crate::erf::erf;
use crate::gaussian::GaussianPsf;

/// Pixel-integrated Gaussian PSF.
///
/// [`Self::eval`] returns the *exact* fraction of the star's total energy
/// deposited into the unit pixel centred at `(x, y)`, rather than the
/// paper's point sample. Implements the same evaluation interface shape as
/// [`GaussianPsf`] so simulators can switch between sampling models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntegratedGaussianPsf {
    sigma: f32,
    /// 1/(σ√2), hoisted out of the erf arguments.
    inv_sigma_sqrt2: f64,
}

impl IntegratedGaussianPsf {
    /// Creates a pixel-integrated PSF with standard deviation `sigma` pixels.
    ///
    /// # Panics
    /// Panics unless `sigma` is finite and positive.
    pub fn new(sigma: f32) -> Self {
        assert!(
            sigma.is_finite() && sigma > 0.0,
            "PSF sigma must be positive and finite, got {sigma}"
        );
        IntegratedGaussianPsf {
            sigma,
            inv_sigma_sqrt2: 1.0 / (sigma as f64 * std::f64::consts::SQRT_2),
        }
    }

    /// The standard deviation in pixels.
    #[inline]
    pub fn sigma(&self) -> f32 {
        self.sigma
    }

    /// Energy fraction deposited into the unit pixel centred at `(x, y)` by
    /// a star centred at `(cx, cy)`.
    #[inline]
    pub fn eval(&self, x: f32, y: f32, cx: f32, cy: f32) -> f32 {
        (self.axis_integral((x - cx) as f64) * self.axis_integral((y - cy) as f64)) as f32
    }

    /// 1-D integral of the normalized Gaussian over `[d−½, d+½]`.
    #[inline]
    fn axis_integral(&self, d: f64) -> f64 {
        0.5 * (erf((d + 0.5) * self.inv_sigma_sqrt2) - erf((d - 0.5) * self.inv_sigma_sqrt2))
    }
}

/// Either PSF evaluation model, chosen by simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PsfModel {
    /// The paper's point-sampled Gaussian (eq. 2).
    Point(GaussianPsf),
    /// Pixel-integrated Gaussian (extension).
    Integrated(IntegratedGaussianPsf),
    /// Motion-smeared Gaussian for slewing sensors (extension; the blurred
    /// star images of the paper's reference \[9\]).
    Smeared(crate::smear::SmearedGaussianPsf),
    /// Moffat profile with realistic heavy wings (extension).
    Moffat(crate::moffat::MoffatPsf),
}

impl PsfModel {
    /// Point-sampled model with the given sigma.
    pub fn point(sigma: f32) -> Self {
        PsfModel::Point(GaussianPsf::new(sigma))
    }

    /// Pixel-integrated model with the given sigma.
    pub fn integrated(sigma: f32) -> Self {
        PsfModel::Integrated(IntegratedGaussianPsf::new(sigma))
    }

    /// Motion-smeared model: streak of `length` pixels at `angle` radians.
    pub fn smeared(sigma: f32, length: f32, angle: f32) -> Self {
        PsfModel::Smeared(crate::smear::SmearedGaussianPsf::new(sigma, length, angle))
    }

    /// Moffat model matched to a Gaussian of the given sigma by FWHM.
    pub fn moffat(sigma: f32, beta: f32) -> Self {
        PsfModel::Moffat(crate::moffat::MoffatPsf::with_gaussian_fwhm(sigma, beta))
    }

    /// The (equivalent) Gaussian standard deviation in pixels.
    pub fn sigma(&self) -> f32 {
        match self {
            PsfModel::Point(p) => p.sigma(),
            PsfModel::Integrated(p) => p.sigma(),
            PsfModel::Smeared(p) => p.sigma(),
            // Invert the FWHM matching of `moffat()`.
            PsfModel::Moffat(p) => {
                p.alpha() * 2.0 * (2f32.powf(1.0 / p.beta()) - 1.0).sqrt() / 2.354_82
            }
        }
    }

    /// Evaluates the intensity contribution rate at pixel `(x, y)` for a
    /// star centred at `(cx, cy)`.
    #[inline]
    pub fn eval(&self, x: f32, y: f32, cx: f32, cy: f32) -> f32 {
        match self {
            PsfModel::Point(p) => p.eval(x, y, cx, cy),
            PsfModel::Integrated(p) => p.eval(x, y, cx, cy),
            PsfModel::Smeared(p) => p.eval(x, y, cx, cy),
            PsfModel::Moffat(p) => p.eval(x, y, cx, cy),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_energy_sums_to_one() {
        // Unlike point sampling, the integrated PSF sums to exactly 1 over
        // an unbounded grid — and very nearly 1 over ±6σ.
        for sigma in [0.5f32, 1.0, 2.0] {
            let psf = IntegratedGaussianPsf::new(sigma);
            let half = (6.0 * sigma).ceil() as i32;
            let mut sum = 0.0f64;
            for y in -half..=half {
                for x in -half..=half {
                    sum += psf.eval(x as f32, y as f32, 0.0, 0.0) as f64;
                }
            }
            assert!((sum - 1.0).abs() < 1e-5, "σ={sigma}: sum={sum}");
        }
    }

    #[test]
    fn sharp_psf_concentrates_in_centre_pixel() {
        let psf = IntegratedGaussianPsf::new(0.3);
        let centre = psf.eval(0.0, 0.0, 0.0, 0.0);
        // erf(0.5/(0.3√2))² ≈ 0.82 of the energy lands in the centre pixel.
        assert!(centre > 0.8, "σ=0.3 centre pixel got {centre}");
    }

    #[test]
    fn converges_to_point_sample_for_wide_psf() {
        // For σ ≫ 1 pixel the unit-square integral ≈ centre sample.
        let sigma = 10.0;
        let point = GaussianPsf::new(sigma);
        let integ = IntegratedGaussianPsf::new(sigma);
        for (x, y) in [(0.0f32, 0.0f32), (3.0, 4.0), (7.5, -2.0)] {
            let a = point.eval(x, y, 0.0, 0.0);
            let b = integ.eval(x, y, 0.0, 0.0);
            assert!(
                (a - b).abs() / a < 2e-3,
                "σ={sigma} at ({x},{y}): point={a} integrated={b}"
            );
        }
    }

    #[test]
    fn symmetry() {
        let psf = IntegratedGaussianPsf::new(1.5);
        let a = psf.eval(2.0, 3.0, 0.0, 0.0);
        assert!((a - psf.eval(-2.0, 3.0, 0.0, 0.0)).abs() < 1e-12);
        assert!((a - psf.eval(3.0, 2.0, 0.0, 0.0)).abs() < 1e-12);
        assert!((a - psf.eval(-3.0, -2.0, 0.0, 0.0)).abs() < 1e-12);
    }

    #[test]
    fn model_enum_dispatch() {
        let p = PsfModel::point(2.0);
        let i = PsfModel::integrated(2.0);
        assert_eq!(p.sigma(), 2.0);
        assert_eq!(i.sigma(), 2.0);
        // Both models agree loosely at σ=2.
        let a = p.eval(1.0, 1.0, 0.0, 0.0);
        let b = i.eval(1.0, 1.0, 0.0, 0.0);
        assert!((a - b).abs() / a < 0.05);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_bad_sigma() {
        let _ = IntegratedGaussianPsf::new(-1.0);
    }
}
