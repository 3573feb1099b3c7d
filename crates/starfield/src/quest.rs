//! Optimal attitude estimation — Davenport's q-method (the estimator
//! behind QUEST).
//!
//! [`crate::triad()`] is exact for two observations but ignores the rest;
//! with many noisy centroids the optimal (Wahba-problem) attitude is the
//! eigenvector of Davenport's 4×4 `K` matrix for its largest eigenvalue:
//!
//! ```text
//! B = Σ wᵢ · bᵢ rᵢᵀ,   z = Σ wᵢ (bᵢ × rᵢ)
//! K = [ B + Bᵀ − tr(B)·I   z ]
//!     [ zᵀ                tr(B) ]
//! ```
//!
//! where `bᵢ` are body-frame and `rᵢ` inertial-frame unit vectors. We find
//! the dominant eigenvector by shifted power iteration (`K + ΣwᵢI` makes
//! the top eigenvalue strictly dominant for any realistic observation
//! set), which avoids pulling in an eigenvalue library.

use crate::attitude::Attitude;
use crate::error::FieldError;
use crate::triad::Observation;

type V3 = [f64; 3];

fn cross(a: V3, b: V3) -> V3 {
    [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]
}

/// Estimates the attitude from ≥ 2 weighted observations by the q-method.
///
/// `weights` may be empty (uniform weights) or must match
/// `observations.len()`; use inverse-variance weights when centroid
/// quality differs between stars.
pub fn quest(observations: &[Observation], weights: &[f64]) -> Result<Attitude, FieldError> {
    if observations.len() < 2 {
        return Err(FieldError::InvalidParameter(format!(
            "q-method needs at least 2 observations, got {}",
            observations.len()
        )));
    }
    if !weights.is_empty() && weights.len() != observations.len() {
        return Err(FieldError::InvalidParameter(format!(
            "{} weights for {} observations",
            weights.len(),
            observations.len()
        )));
    }
    if weights.iter().any(|&w| !(w.is_finite() && w > 0.0)) {
        return Err(FieldError::InvalidParameter(
            "weights must be positive and finite".into(),
        ));
    }

    // The problem is well-posed only when the body directions span at
    // least two distinct lines; a single (possibly repeated) direction
    // leaves the rotation about it unconstrained, and the power iteration
    // would silently return an arbitrary minimizer.
    let spans_two = observations.iter().skip(1).any(|o| {
        let c = cross(observations[0].body, o.body);
        (c[0] * c[0] + c[1] * c[1] + c[2] * c[2]).sqrt() > 1e-9
    });
    if !spans_two {
        return Err(FieldError::InvalidParameter(
            "q-method observations are collinear".into(),
        ));
    }

    // Attitude profile matrix B and the z vector.
    let mut b = [[0.0f64; 3]; 3];
    let mut z = [0.0f64; 3];
    let mut w_total = 0.0f64;
    for (k, obs) in observations.iter().enumerate() {
        let w = if weights.is_empty() { 1.0 } else { weights[k] };
        w_total += w;
        for (r, row) in b.iter_mut().enumerate() {
            for (c, cell) in row.iter_mut().enumerate() {
                *cell += w * obs.body[r] * obs.inertial[c];
            }
        }
        let cr = cross(obs.body, obs.inertial);
        for (zi, ci) in z.iter_mut().zip(cr) {
            *zi += w * ci;
        }
    }
    let tr_b = b[0][0] + b[1][1] + b[2][2];

    // Davenport K (4×4 symmetric), quaternion ordered (x, y, z, w).
    let mut k = [[0.0f64; 4]; 4];
    for r in 0..3 {
        for c in 0..3 {
            k[r][c] = b[r][c] + b[c][r];
        }
        k[r][r] -= tr_b;
        k[r][3] = z[r];
        k[3][r] = z[r];
    }
    k[3][3] = tr_b;

    // Shifted power iteration: eigenvalues of K lie in [−w_total, w_total];
    // adding (w_total + 1)·I makes the largest strictly dominant and all
    // eigenvalues positive.
    let shift = w_total + 1.0;
    for (r, row) in k.iter_mut().enumerate() {
        row[r] += shift;
    }
    let matvec = |v: &[f64; 4]| {
        let mut out = [0.0f64; 4];
        for r in 0..4 {
            for c in 0..4 {
                out[r] += k[r][c] * v[c];
            }
        }
        out
    };
    let mut v = [0.5f64, 0.5, 0.5, 0.5];
    let mut converged = false;
    for _ in 0..20_000 {
        let mut next = matvec(&v);
        let n = next.iter().map(|x| x * x).sum::<f64>().sqrt();
        if n < 1e-30 {
            return Err(FieldError::InvalidParameter(
                "q-method degenerate observation set".into(),
            ));
        }
        for x in &mut next {
            *x /= n;
        }
        v = next;
        // Converged when v is an eigenvector: ‖Kv − (vᵀKv)·v‖ ≈ 0. (A
        // successive-iterate test would stop early when convergence is
        // merely slow, e.g. for two-observation sets with a small gap.)
        let kv = matvec(&v);
        let lambda: f64 = v.iter().zip(&kv).map(|(a, b)| a * b).sum();
        let resid: f64 = kv
            .iter()
            .zip(&v)
            .map(|(a, b)| (a - lambda * b).powi(2))
            .sum::<f64>()
            .sqrt();
        if resid < 1e-12 * lambda.abs().max(1.0) {
            converged = true;
            break;
        }
    }
    if !converged {
        // Never return an unconverged eigenvector as if it were the
        // attitude — a stalled iteration (degenerate gap, pathological
        // start) must surface as an error.
        return Err(FieldError::InvalidParameter(
            "q-method power iteration did not converge".into(),
        ));
    }

    // Davenport's attitude matrix is A(q) = R(q)ᵀ in this crate's Hamilton
    // active convention (the −2q₄[q_v×] cross term), i.e. b = conj(q)·r·q.
    // `Attitude::to_body` also rotates by the conjugate, so the eigenvector
    // *is* the stored attitude — no extra conjugation.
    let q = Attitude {
        w: v[3],
        x: v[0],
        y: v[1],
        z: v[2],
    };
    Ok(q.normalized())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::star::SkyStar;
    use crate::triad::{attitude_error, triad};

    fn observe(q: Attitude, dirs: &[V3]) -> Vec<Observation> {
        dirs.iter()
            .map(|&d| Observation {
                body: q.to_body(d),
                inertial: d,
            })
            .collect()
    }

    fn star_dirs(n: usize) -> Vec<V3> {
        (0..n)
            .map(|k| SkyStar::new(0.3 + 0.17 * k as f64, 0.4 - 0.09 * k as f64, 3.0).direction())
            .collect()
    }

    #[test]
    fn recovers_attitudes_exactly_from_clean_observations() {
        let dirs = star_dirs(6);
        for (ra, dec, roll) in [(0.0, 0.0, 0.0), (1.3, 0.4, 2.0), (4.0, -1.0, 5.5)] {
            let truth = Attitude::pointing(ra, dec, roll);
            let est = quest(&observe(truth, &dirs), &[]).unwrap();
            let err = attitude_error(est, truth);
            assert!(err < 1e-6, "({ra},{dec},{roll}): error {err}");
        }
    }

    #[test]
    fn matches_triad_on_two_observations() {
        let dirs = star_dirs(2);
        let truth = Attitude::pointing(2.0, -0.3, 1.1);
        let obs = observe(truth, &dirs);
        let q_est = quest(&obs, &[]).unwrap();
        let t_est = triad(&obs).unwrap();
        assert!(attitude_error(q_est, t_est) < 1e-6);
    }

    #[test]
    fn beats_triad_under_noise_with_many_stars() {
        // Deterministic pseudo-noise on 10 observations: the optimal
        // estimator should average it down; TRIAD (best pair only) cannot.
        let dirs = star_dirs(10);
        let truth = Attitude::pointing(0.9, 0.2, 0.7);
        let mut obs = observe(truth, &dirs);
        for (k, o) in obs.iter_mut().enumerate() {
            // Equal-magnitude noise, varying axis and sign, so no pair is
            // accidentally noise-free (TRIAD would pick it and win on luck).
            let e = 2e-4 * if k % 2 == 0 { 1.0 } else { -1.0 };
            o.body[k % 3] += e;
            let n = (o.body[0].powi(2) + o.body[1].powi(2) + o.body[2].powi(2)).sqrt();
            for x in &mut o.body {
                *x /= n;
            }
        }
        let q_err = attitude_error(quest(&obs, &[]).unwrap(), truth);
        let t_err = attitude_error(triad(&obs).unwrap(), truth);
        assert!(
            q_err < t_err,
            "q-method {q_err:.2e} should beat TRIAD {t_err:.2e} under noise"
        );
        assert!(q_err < 3e-4, "q-method error {q_err:.2e}");
    }

    #[test]
    fn weights_downweight_bad_observations() {
        let dirs = star_dirs(5);
        let truth = Attitude::pointing(1.5, 0.1, 0.3);
        let mut obs = observe(truth, &dirs);
        // Corrupt one observation badly.
        obs[2].body[0] += 0.01;
        let n = (obs[2].body[0].powi(2) + obs[2].body[1].powi(2) + obs[2].body[2].powi(2)).sqrt();
        for x in &mut obs[2].body {
            *x /= n;
        }
        let uniform = attitude_error(quest(&obs, &[]).unwrap(), truth);
        let weighted = attitude_error(quest(&obs, &[1.0, 1.0, 1e-6, 1.0, 1.0]).unwrap(), truth);
        assert!(
            weighted < uniform / 10.0,
            "downweighting the outlier: {weighted:.2e} vs {uniform:.2e}"
        );
    }

    #[test]
    fn rejects_degenerate_input() {
        assert!(quest(&[], &[]).is_err());
        let one = Observation {
            body: [0.0, 0.0, 1.0],
            inertial: [0.0, 0.0, 1.0],
        };
        assert!(quest(&[one], &[]).is_err());
        let two = vec![one, one];
        assert!(quest(&two, &[1.0]).is_err(), "weight count mismatch");
        assert!(quest(&two, &[1.0, -1.0]).is_err(), "negative weight");
        // A duplicated observation leaves the attitude underdetermined.
        assert!(quest(&two, &[]).is_err(), "collinear set must be rejected");
    }
}
