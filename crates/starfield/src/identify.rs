//! Lost-in-space star identification.
//!
//! A star tracker that boots with *no* attitude estimate must identify the
//! stars in its image before it can solve the attitude (the pipeline the
//! paper's §I motivates: star image → identification → attitude). The
//! classical approach matches *angular distances*, which are invariant
//! under the unknown rotation: a pair of observed stars separated by angle
//! θ can only be a catalogue pair with the same separation.
//!
//! [`PairCatalog`] precomputes all catalogue pairs below a separation cap
//! for a bright subset, sorted by angle for binary search;
//! [`PairCatalog::identify`] votes over the observed pairs and returns a
//! consistent assignment. Verification (e.g. TRIAD + reprojection, see
//! [`triad`](mod@crate::triad)) is the caller's second stage.

use crate::fov::SkyCatalog;
use crate::star::SkyStar;

type V3 = [f64; 3];

fn dot(a: V3, b: V3) -> f64 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

/// One catalogue pair: separation angle and the two star indices.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PairEntry {
    angle: f64,
    i: u32,
    j: u32,
}

/// A searchable catalogue of pairwise angular separations.
#[derive(Debug, Clone)]
pub struct PairCatalog {
    /// The bright subset the pairs index into.
    stars: Vec<SkyStar>,
    /// Unit directions of `stars` (precomputed).
    directions: Vec<V3>,
    /// All pairs with separation ≤ `max_angle`, sorted by angle.
    pairs: Vec<PairEntry>,
    max_angle: f64,
}

impl PairCatalog {
    /// Builds the pair catalogue from stars brighter than `mag_limit`,
    /// keeping pairs separated by at most `max_angle` radians (set it to
    /// the sensor's diagonal FOV).
    ///
    /// # Panics
    /// Panics unless `max_angle` is in `(0, π]`.
    pub fn build(sky: &SkyCatalog, mag_limit: f32, max_angle: f64) -> Self {
        assert!(
            max_angle > 0.0 && max_angle <= std::f64::consts::PI,
            "max angle must be in (0, π], got {max_angle}"
        );
        let stars: Vec<SkyStar> = sky
            .stars()
            .iter()
            .copied()
            .filter(|s| s.mag.value() < mag_limit)
            .collect();
        let directions: Vec<V3> = stars.iter().map(|s| s.direction()).collect();
        let cos_min = max_angle.cos();
        let mut pairs = Vec::new();
        for i in 0..stars.len() {
            for j in (i + 1)..stars.len() {
                let c = dot(directions[i], directions[j]);
                if c >= cos_min {
                    pairs.push(PairEntry {
                        angle: c.clamp(-1.0, 1.0).acos(),
                        i: i as u32,
                        j: j as u32,
                    });
                }
            }
        }
        pairs.sort_by(|a, b| a.angle.total_cmp(&b.angle));
        PairCatalog {
            stars,
            directions,
            pairs,
            max_angle,
        }
    }

    /// The bright subset the identification maps into.
    pub fn stars(&self) -> &[SkyStar] {
        &self.stars
    }

    /// Number of stored pairs.
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    /// Catalogue pairs whose separation lies within `tol` of `angle`.
    fn pairs_near(&self, angle: f64, tol: f64) -> &[PairEntry] {
        let lo = self.pairs.partition_point(|p| p.angle < angle - tol);
        let hi = self.pairs.partition_point(|p| p.angle <= angle + tol);
        &self.pairs[lo..hi]
    }

    /// Identifies observed stars given their unit directions in the body
    /// frame. Returns, per observation, the index into [`Self::stars`] of
    /// the winning catalogue star, or `None` when no assignment wins
    /// decisively.
    ///
    /// `tol` is the angular match tolerance in radians (centroid noise ×
    /// plate scale; a few×10⁻⁴ rad for a 1024-px 12° sensor).
    pub fn identify(&self, body_dirs: &[V3], tol: f64) -> Vec<Option<usize>> {
        let k = body_dirs.len();
        if k < 2 {
            return vec![None; k];
        }
        // votes[obs] : catalogue star index → count.
        let mut votes: Vec<std::collections::HashMap<u32, u32>> =
            vec![std::collections::HashMap::new(); k];
        for a in 0..k {
            for b in (a + 1)..k {
                let c = dot(body_dirs[a], body_dirs[b]);
                let angle = c.clamp(-1.0, 1.0).acos();
                if angle > self.max_angle {
                    continue;
                }
                for p in self.pairs_near(angle, tol) {
                    // Both orientations are plausible.
                    *votes[a].entry(p.i).or_insert(0) += 1;
                    *votes[b].entry(p.j).or_insert(0) += 1;
                    *votes[a].entry(p.j).or_insert(0) += 1;
                    *votes[b].entry(p.i).or_insert(0) += 1;
                }
            }
        }
        // Decisive winner: strictly more votes than any runner-up and at
        // least 2 (a single accidental pair match is not evidence).
        let winners: Vec<Option<usize>> = votes
            .iter()
            .map(|v| {
                let mut best: Option<(u32, u32)> = None;
                let mut runner_up = 0u32;
                for (&star, &count) in v {
                    match best {
                        None => best = Some((star, count)),
                        Some((_, bc)) if count > bc => {
                            runner_up = bc;
                            best = Some((star, count));
                        }
                        Some(_) => runner_up = runner_up.max(count),
                    }
                }
                match best {
                    Some((star, count)) if count >= 2 && count > runner_up => Some(star as usize),
                    _ => None,
                }
            })
            .collect();
        // Consistency: a catalogue star may win at most one observation;
        // duplicated winners are all rejected.
        let mut seen = std::collections::HashMap::new();
        for (obs, w) in winners.iter().enumerate() {
            if let Some(s) = w {
                seen.entry(*s).or_insert_with(Vec::new).push(obs);
            }
        }
        let mut out = winners;
        for (_, obs_list) in seen {
            if obs_list.len() > 1 {
                for o in obs_list {
                    out[o] = None;
                }
            }
        }
        out
    }

    /// Convenience: identified (body, inertial) pairs ready for
    /// [`crate::triad::triad`].
    pub fn observations(&self, body_dirs: &[V3], tol: f64) -> Vec<crate::triad::Observation> {
        self.identify(body_dirs, tol)
            .iter()
            .zip(body_dirs)
            .filter_map(|(id, &body)| {
                id.map(|s| crate::triad::Observation {
                    body,
                    inertial: self.directions[s],
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attitude::Attitude;
    use crate::generator::synthetic_sky;
    use crate::triad::{attitude_error, triad};

    fn setup() -> (SkyCatalog, PairCatalog) {
        // Seed chosen so each pointing used below has ≥6 bright catalogue
        // stars inside its 6° observation cone (the tests probe
        // identification, not the statistics of a sparse sky).
        let sky = synthetic_sky(4000, 0.0, 5.0, 224);
        let pc = PairCatalog::build(&sky, 4.0, 15.0f64.to_radians());
        (sky, pc)
    }

    /// Body directions of the `n` brightest catalogue stars within
    /// `cone` of the boresight under attitude `q`.
    fn observe(pc: &PairCatalog, q: Attitude, cone: f64, n: usize) -> (Vec<V3>, Vec<usize>) {
        let bore = q.boresight();
        let mut visible: Vec<(usize, f32)> = pc
            .stars()
            .iter()
            .enumerate()
            .filter(|(i, _)| dot(pc.directions[*i], bore) > cone.cos())
            .map(|(i, s)| (i, s.mag.value()))
            .collect();
        visible.sort_by(|a, b| a.1.total_cmp(&b.1));
        visible.truncate(n);
        let ids: Vec<usize> = visible.iter().map(|&(i, _)| i).collect();
        let dirs = ids.iter().map(|&i| q.to_body(pc.directions[i])).collect();
        (dirs, ids)
    }

    #[test]
    fn pair_catalog_geometry() {
        let (_, pc) = setup();
        assert!(pc.pair_count() > 0);
        // Pairs are sorted and within the cap.
        for w in pc.pairs.windows(2) {
            assert!(w[0].angle <= w[1].angle);
        }
        assert!(pc.pairs.last().unwrap().angle <= 15.0f64.to_radians());
    }

    #[test]
    fn identifies_noiseless_observations_exactly() {
        let (_, pc) = setup();
        let q = Attitude::pointing(1.0, 0.2, 0.5);
        let (dirs, truth) = observe(&pc, q, 6.0f64.to_radians(), 6);
        assert!(
            dirs.len() >= 4,
            "need stars in the cone, got {}",
            dirs.len()
        );
        let ids = pc.identify(&dirs, 1e-4);
        let mut correct = 0;
        for (got, want) in ids.iter().zip(&truth) {
            if let Some(g) = got {
                assert_eq!(g, want, "misidentification");
                correct += 1;
            }
        }
        assert!(
            correct * 10 >= truth.len() * 8,
            "only {correct}/{} identified",
            truth.len()
        );
    }

    #[test]
    fn identification_feeds_triad_lost_in_space() {
        // The full lost-in-space solve: no attitude prior anywhere.
        let (_, pc) = setup();
        let truth = Attitude::pointing(4.1, -0.6, 2.2);
        let (dirs, _) = observe(&pc, truth, 6.0f64.to_radians(), 7);
        let obs = pc.observations(&dirs, 1e-4);
        assert!(obs.len() >= 2, "need identified stars, got {}", obs.len());
        let est = triad(&obs).unwrap();
        assert!(
            attitude_error(est, truth) < 1e-6,
            "lost-in-space error {} rad",
            attitude_error(est, truth)
        );
    }

    #[test]
    fn noisy_observations_still_identify() {
        let (_, pc) = setup();
        let q = Attitude::pointing(2.5, 0.1, 0.0);
        let (mut dirs, truth) = observe(&pc, q, 6.0f64.to_radians(), 6);
        // ~20 arcsec of noise on each direction (renormalized: observed
        // directions are always unit vectors).
        for (k, d) in dirs.iter_mut().enumerate() {
            d[k % 3] += 1e-4;
            let n = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
            *d = [d[0] / n, d[1] / n, d[2] / n];
        }
        let ids = pc.identify(&dirs, 5e-4);
        let correct = ids
            .iter()
            .zip(&truth)
            .filter(|(got, want)| got.as_ref() == Some(want))
            .count();
        assert!(
            correct >= truth.len() / 2,
            "only {correct}/{} identified under noise",
            truth.len()
        );
        // No misidentification (None is acceptable; wrong is not).
        for (got, want) in ids.iter().zip(&truth) {
            if let Some(g) = got {
                assert_eq!(g, want);
            }
        }
    }

    #[test]
    fn too_few_observations_return_none() {
        let (_, pc) = setup();
        assert!(pc.identify(&[], 1e-4).is_empty());
        let one = pc.identify(&[[0.0, 0.0, 1.0]], 1e-4);
        assert_eq!(one, vec![None]);
    }

    #[test]
    fn random_directions_do_not_misidentify() {
        // Directions that correspond to no catalogue configuration should
        // mostly come back None (votes scatter).
        let (_, pc) = setup();
        let dirs: Vec<V3> = (0..5)
            .map(|k| {
                let t = k as f64 * 0.003;
                let v = [t.sin() * 0.01, (t * 1.7).cos() * 0.012, 1.0];
                let n = (v[0] * v[0] + v[1] * v[1] + 1.0f64).sqrt();
                [v[0] / n, v[1] / n, v[2] / n]
            })
            .collect();
        let ids = pc.identify(&dirs, 1e-6); // very tight tolerance
        let assigned = ids.iter().filter(|x| x.is_some()).count();
        assert!(
            assigned <= 1,
            "bogus field should not identify, got {assigned} assignments"
        );
    }

    #[test]
    #[should_panic(expected = "max angle")]
    fn bad_max_angle_rejected() {
        let sky = SkyCatalog::new();
        let _ = PairCatalog::build(&sky, 5.0, 0.0);
    }
}
