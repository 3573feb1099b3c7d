//! # psf — point-spread-function substrate
//!
//! The blur model of the paper: the Gaussian PSF (eq. 2), the square region
//! of interest that bounds each star's deposition (Fig. 1), the composed
//! intensity model φ = g·μ (eq. 3), and the 3-D lookup table the adaptive
//! simulator precomputes into texture memory (§III-C).
//!
//! Extensions beyond the paper, clearly marked in the module docs:
//! a pixel-integrated (erf-based) PSF variant and sub-pixel phase bins for
//! the lookup table.

#![warn(missing_docs)]

pub mod erf;
pub mod error;
pub mod gaussian;
pub mod integrated;
pub mod intensity;
pub mod lut;
pub mod moffat;
pub mod roi;
pub mod smear;

mod proptests;

pub use error::PsfError;
pub use gaussian::GaussianPsf;
pub use integrated::{IntegratedGaussianPsf, PsfModel};
pub use intensity::IntensityModel;
pub use lut::{LookupTable, LutParams};
pub use moffat::MoffatPsf;
pub use roi::{ClippedRoi, Roi};
pub use smear::SmearedGaussianPsf;
