//! Field-of-view retrieval: from a sky catalogue and an attitude to the
//! image-plane star list the simulators consume.
//!
//! The paper delegates this step to reference \[4\] ("The star obtaining
//! process will not be discussed in this paper"); we implement it as a
//! substrate so the star-tracker example can run end-to-end.

use std::f64::consts::{FRAC_PI_2, PI, TAU};
use std::ops::RangeInclusive;
use std::sync::OnceLock;

use crate::attitude::Attitude;
use crate::catalog::StarCatalog;
use crate::projection::Camera;
use crate::star::{SkyStar, Star};

/// A catalogue of stars on the celestial sphere.
///
/// Immutable once constructed, so the spatial index that [`SkyCatalog::view`]
/// builds on its first call can never go stale.
#[derive(Debug, Clone, Default)]
pub struct SkyCatalog {
    stars: Vec<SkyStar>,
    /// The FOV retrieval index, built lazily by the first `view`.
    zones: OnceLock<ZoneIndex>,
}

impl SkyCatalog {
    /// Empty sky catalogue.
    pub fn new() -> Self {
        SkyCatalog::default()
    }

    /// Catalogue from an existing list.
    pub fn from_stars(stars: Vec<SkyStar>) -> Self {
        SkyCatalog {
            stars,
            zones: OnceLock::new(),
        }
    }

    /// Number of stars.
    pub fn len(&self) -> usize {
        self.stars.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.stars.is_empty()
    }

    /// The stars.
    pub fn stars(&self) -> &[SkyStar] {
        &self.stars
    }

    /// Retrieves the stars visible to `camera` under `attitude`, projected
    /// onto the image plane, in catalogue order.
    ///
    /// `margin_px` extends the acceptance window beyond the image bounds so
    /// stars whose centre falls just outside but whose ROI still clips the
    /// image are retained (set it to the ROI margin).
    ///
    /// The first call builds the catalogue's zone index (DESIGN.md §17);
    /// every call then tests only the stars in the cells around the
    /// boresight.
    ///
    /// # Panics
    ///
    /// If the catalogue holds more than `u32::MAX` stars.
    pub fn view(&self, attitude: Attitude, camera: &Camera, margin_px: f32) -> StarCatalog {
        // Coarse cull: angular cone test against the image diagonal plus the
        // pixel margin, then exact projection.
        let margin_angle = (margin_px as f64 / camera.focal_px).atan();
        let cos_limit = (camera.diagonal_half_angle() + margin_angle).cos();
        let boresight = attitude.boresight();

        let zones = self.zones.get_or_init(|| ZoneIndex::build(&self.stars));
        let mut candidates = vec![0u64; self.stars.len().div_ceil(64)];
        zones.mark_cone(boresight, cos_limit, &mut candidates);

        let mut out = StarCatalog::new();
        for s in set_bits(&candidates).map(|i| &self.stars[i]) {
            let dir = s.direction();
            let cos = dir[0] * boresight[0] + dir[1] * boresight[1] + dir[2] * boresight[2];
            if cos < cos_limit {
                continue;
            }
            let body = attitude.to_body(dir);
            if let Some(p) = camera.project(body) {
                let in_window = p.x >= -margin_px
                    && p.y >= -margin_px
                    && p.x < camera.width as f32 + margin_px
                    && p.y < camera.height as f32 + margin_px;
                if in_window {
                    out.push(Star { pos: p, mag: s.mag });
                }
            }
        }
        out
    }
}

impl FromIterator<SkyStar> for SkyCatalog {
    fn from_iter<T: IntoIterator<Item = SkyStar>>(iter: T) -> Self {
        SkyCatalog::from_stars(iter.into_iter().collect())
    }
}

/// The indices of the set bits of `words`, ascending.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        std::iter::successors(Some(word), |bits| Some(bits & bits.wrapping_sub(1)))
            .take_while(|&bits| bits != 0)
            .map(move |bits| w * 64 + bits.trailing_zeros() as usize)
    })
}

/// Declination bands of the zone index, each `π / BANDS` (1°) high.
const BANDS: usize = 180;
/// Right-ascension cells per band, each `2π / BAND_CELLS` (1°) wide.
const BAND_CELLS: usize = 360;
const BAND_HEIGHT: f64 = PI / BANDS as f64;
const CELL_WIDTH: f64 = TAU / BAND_CELLS as f64;
/// Largest |RA| the grid places. Reducing it by the f64 value of 2π is
/// then off by under 2e-7 rad, far inside the one-cell padding.
const MAX_GRID_RA: f64 = 4_294_967_296.0;

/// Where the zone index files a star.
enum Slot {
    /// Cell `band * BAND_CELLS + ra_cell`.
    Cell(usize),
    /// A finite star the grid cannot place (|dec| > π/2 or a huge RA):
    /// a candidate of every view.
    Stray,
    /// A non-finite coordinate: `direction()` is NaN, which no view keeps.
    Never,
}

fn slot(s: &SkyStar) -> Slot {
    if !(s.ra.is_finite() && s.dec.is_finite()) {
        Slot::Never
    } else if s.dec.abs() > FRAC_PI_2 || s.ra.abs() > MAX_GRID_RA {
        Slot::Stray
    } else {
        // `rem_euclid` is the identity on [0, 2π), bit for bit and for
        // `-0.0` too, and catalogues keep RA there: skip the fmod.
        let ra = if (0.0..TAU).contains(&s.ra) {
            s.ra
        } else {
            s.ra.rem_euclid(TAU)
        };
        let ra_cell = ((ra / CELL_WIDTH) as usize).min(BAND_CELLS - 1);
        Slot::Cell(band_of(s.dec) * BAND_CELLS + ra_cell)
    }
}

/// The band holding declination `dec`; `as` saturates, so everything
/// below −π/2 lands in band 0.
fn band_of(dec: f64) -> usize {
    (((dec + FRAC_PI_2) / BAND_HEIGHT) as usize).min(BANDS - 1)
}

/// Star indices grouped by cell: declination bands cut into RA cells.
#[derive(Debug, Clone)]
struct ZoneIndex {
    /// Cell `c` lists `order[start[c]..start[c + 1]]`.
    start: Vec<u32>,
    /// Catalogue indices, grouped by cell and ascending within each.
    order: Vec<u32>,
    /// Indices of [`Slot::Stray`] stars.
    stray: Vec<u32>,
}

impl ZoneIndex {
    /// Counting sort of the catalogue into cells; no trigonometry.
    fn build(stars: &[SkyStar]) -> ZoneIndex {
        let n =
            u32::try_from(stars.len()).expect("the zone index addresses at most u32::MAX stars");
        let mut start = vec![0u32; BANDS * BAND_CELLS + 1];
        let mut stray = Vec::new();
        for (i, s) in (0..n).zip(stars) {
            match slot(s) {
                Slot::Cell(c) => start[c + 1] += 1,
                Slot::Stray => stray.push(i),
                Slot::Never => {}
            }
        }
        for c in 1..start.len() {
            start[c] += start[c - 1];
        }
        let mut next = start.clone();
        let mut order = vec![0u32; start[BANDS * BAND_CELLS] as usize];
        for (i, s) in (0..n).zip(stars) {
            if let Slot::Cell(c) = slot(s) {
                order[next[c] as usize] = i;
                next[c] += 1;
            }
        }
        ZoneIndex {
            start,
            order,
            stray,
        }
    }

    /// Sets in `marks`, a bitset over catalogue indices, every star in the
    /// [`cover`] of the cone test `direction() · boresight >= cos_limit`,
    /// and every stray.
    fn mark_cone(&self, boresight: [f64; 3], cos_limit: f64, marks: &mut [u64]) {
        let mut mark = |i: u32| marks[i as usize / 64] |= 1 << (i % 64);
        self.stray.iter().for_each(|&i| mark(i));
        let (bands, ra_cells) = cover(boresight, cos_limit);
        for band in bands {
            for k in ra_cells.clone() {
                let c = band * BAND_CELLS + k.rem_euclid(BAND_CELLS as isize) as usize;
                let cell = &self.order[self.start[c] as usize..self.start[c + 1] as usize];
                cell.iter().for_each(|&i| mark(i));
            }
        }
    }
}

/// Every RA cell of a band.
const WHOLE_BAND: RangeInclusive<isize> = 0..=BAND_CELLS as isize - 1;

/// The bands, and the RA cells of each (to be reduced modulo
/// `BAND_CELLS`), that hold every direction passing the cone test
/// `direction() · boresight >= cos_limit`: the cone's cells padded by one
/// cell on every side, whole bands once the padded cone reaches a pole,
/// and the whole sky when the cone is not finite.
fn cover(boresight: [f64; 3], cos_limit: f64) -> (RangeInclusive<usize>, RangeInclusive<isize>) {
    let norm = boresight.iter().map(|b| b * b).sum::<f64>().sqrt();
    let radius = (cos_limit / norm).clamp(-1.0, 1.0).acos();
    let dec0 = (boresight[2] / norm).clamp(-1.0, 1.0).asin();
    let ra0 = boresight[1].atan2(boresight[0]);
    if !(radius.is_finite() && dec0.is_finite() && ra0.is_finite()) {
        return (0..=BANDS - 1, WHOLE_BAND);
    }
    let bands =
        band_of(dec0 - radius).saturating_sub(1)..=(band_of(dec0 + radius) + 1).min(BANDS - 1);
    if radius + BAND_HEIGHT >= FRAC_PI_2 - dec0.abs() {
        return (bands, WHOLE_BAND);
    }
    // The widest RA offset on a cap that holds no pole.
    let half = (radius.sin() / dec0.cos()).asin();
    let lo = ((ra0 - half) / CELL_WIDTH).floor() as isize - 1;
    let hi = ((ra0 + half) / CELL_WIDTH).floor() as isize + 1;
    let ra_cells = if hi - lo >= BAND_CELLS as isize {
        WHOLE_BAND
    } else {
        lo..=hi
    };
    (bands, ra_cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn camera() -> Camera {
        Camera::from_fov(10.0f64.to_radians(), 1024, 1024).unwrap()
    }

    #[test]
    fn boresight_star_lands_at_centre() {
        let (ra, dec) = (1.0, 0.3);
        let sky = SkyCatalog::from_stars(vec![SkyStar::new(ra, dec, 3.0)]);
        let att = Attitude::pointing(ra, dec, 0.0);
        let cat = sky.view(att, &camera(), 0.0);
        assert_eq!(cat.len(), 1);
        let p = cat.stars()[0].pos;
        assert!((p.x - 512.0).abs() < 1e-2 && (p.y - 512.0).abs() < 1e-2);
    }

    #[test]
    fn stars_behind_are_culled() {
        let (ra, dec) = (1.0, 0.3);
        // A star diametrically opposite the boresight.
        let anti = SkyStar::new(ra + std::f64::consts::PI, -dec, 3.0);
        let sky = SkyCatalog::from_stars(vec![anti]);
        let att = Attitude::pointing(ra, dec, 0.0);
        assert!(sky.view(att, &camera(), 0.0).is_empty());
    }

    #[test]
    fn off_fov_star_is_culled_but_margin_keeps_edge_star() {
        let cam = camera();
        let att = Attitude::pointing(0.0, 0.0, 0.0);
        // A star ~half FOV + a few pixels off axis: just outside the image.
        let half_fov = cam.horizontal_fov() / 2.0;
        let just_out = SkyStar::new(0.0 + 1e-9, half_fov + 8.0 / cam.focal_px, 3.0);
        let sky = SkyCatalog::from_stars(vec![just_out]);
        assert!(sky.view(att, &cam, 0.0).is_empty());
        let with_margin = sky.view(att, &cam, 16.0);
        assert_eq!(with_margin.len(), 1, "margin window should keep the star");
    }

    #[test]
    fn dense_sky_visible_fraction_is_plausible() {
        // A ring of stars around the equator; pointing at the equator should
        // see roughly fov/2π of them.
        let n = 3600;
        let sky: SkyCatalog = (0..n)
            .map(|i| SkyStar::new(i as f64 / n as f64 * std::f64::consts::TAU, 0.0, 3.0))
            .collect();
        let cam = camera();
        let att = Attitude::pointing(1.0, 0.0, 0.0);
        let seen = sky.view(att, &cam, 0.0).len();
        let expect = (cam.horizontal_fov() / std::f64::consts::TAU * n as f64) as usize;
        assert!(
            (seen as i64 - expect as i64).unsigned_abs() as usize <= expect / 5 + 2,
            "saw {seen}, expected about {expect}"
        );
    }

    #[test]
    fn ra_cell_matches_the_rem_euclid_formula() {
        let below_tau = f64::from_bits(TAU.to_bits() - 1);
        for ra in [0.0, -0.0, below_tau, TAU, -1e-300, 1e8 * TAU] {
            let cell = ((ra.rem_euclid(TAU) / CELL_WIDTH) as usize).min(BAND_CELLS - 1);
            match slot(&SkyStar::new(ra, 0.25, 3.0)) {
                Slot::Cell(c) => assert_eq!(c, band_of(0.25) * BAND_CELLS + cell, "ra {ra:e}"),
                _ => panic!("ra {ra:e} must land in a cell"),
            }
        }
    }

    #[test]
    fn collection_basics() {
        assert!(SkyCatalog::new().is_empty());
        let sky = SkyCatalog::from_stars(vec![SkyStar::new(0.0, 0.0, 1.0)]);
        assert_eq!(sky.len(), 1);
        assert_eq!(sky.stars().len(), 1);
    }
}
