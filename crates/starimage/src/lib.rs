//! # starimage — star image substrate
//!
//! Gray-value image buffers and everything the simulators' *Output* stage
//! needs: a plain [`ImageF32`] buffer, tone mapping to 8/16-bit gray,
//! self-contained BMP and PGM IO, image statistics/diffing for
//! cross-simulator validation, and star centroiding to close the
//! star-tracker loop.

#![warn(missing_docs)]

pub mod buffer;
pub mod calibrate;
pub mod centroid;
pub mod convert;
pub mod diff;
pub mod error;
pub mod io;
pub mod label;
pub mod noise;
pub mod photometry;
pub mod stats;

pub use buffer::ImageF32;
pub use calibrate::InstrumentSignature;
pub use centroid::{detect_stars, CentroidParams, Detection};
pub use convert::{to_gray16, to_gray8, GrayMap};
pub use diff::{compare, differing_pixels, images_close, ImageDiff};
pub use error::ImageError;
pub use label::{label_blobs, Blob};
pub use noise::{apply_noise, star_snr, NoiseModel};
pub use photometry::{magnitude_from_flux, measure, Aperture, Photometry};
pub use stats::{histogram, stats, ImageStats};
