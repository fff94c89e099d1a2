//! Identity-disclosure risk: can an intruder who knows a subject's
//! quasi-identifiers locate that subject's record in the release?
//!
//! [`record_linkage_risk`] performs distance-based record linkage, the
//! standard empirical re-identification attack in the SDC literature
//! (Winkler et al. 2002): link each original record to its nearest
//! anonymized record; with ties (as k-anonymity produces by design) a
//! correct link among `s` equidistant candidates counts `1/s`. For a
//! k-anonymous release the risk is at most `1/k`.

use crate::distance::sq_dist;
use crate::matrix::Matrix;

/// Distance-based record-linkage re-identification risk.
///
/// `original` and `anonymized` are flat [`Matrix`] embeddings over the
/// *same* normalized quasi-identifier space, with record `j` of each
/// referring to the same subject. Returns the expected fraction of correct
/// links in `[0, 1]`.
///
/// # Panics
/// Panics if the matrices have different row counts or are empty.
pub fn record_linkage_risk(original: &Matrix, anonymized: &Matrix) -> f64 {
    assert_eq!(
        original.n_rows(),
        anonymized.n_rows(),
        "tables must pair records one-to-one"
    );
    assert!(
        !original.is_empty(),
        "record linkage requires at least one record"
    );
    let n = original.n_rows();
    let mut expected_links = 0.0;
    for j in 0..n {
        let orig = original.row(j);
        // Find the minimum distance and the tie set achieving it.
        let mut best = f64::INFINITY;
        let mut ties = 0usize;
        let mut hit = false;
        for i in 0..n {
            let d = sq_dist(orig, anonymized.row(i));
            if d < best - 1e-12 {
                best = d;
                ties = 1;
                hit = i == j;
            } else if (d - best).abs() <= 1e-12 {
                ties += 1;
                if i == j {
                    hit = true;
                }
            }
        }
        if hit {
            expected_links += 1.0 / ties as f64;
        }
    }
    expected_links / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmasked_release_has_full_linkage_risk() {
        let rows = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]);
        assert!((record_linkage_risk(&rows, &rows) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn k_anonymous_release_caps_risk_at_one_over_k() {
        // Two clusters of k=2: anonymized QIs are cluster centroids.
        let orig = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![10.0], vec![11.0]]);
        let anon = Matrix::from_rows(&[vec![0.5], vec![0.5], vec![10.5], vec![10.5]]);
        let risk = record_linkage_risk(&orig, &anon);
        assert!(
            (risk - 0.5).abs() < 1e-12,
            "risk {risk} should be exactly 1/k = 0.5"
        );
    }

    #[test]
    fn wrong_links_score_zero() {
        // Every original record is nearest to the *other* record's mask.
        let orig = Matrix::from_rows(&[vec![0.0], vec![10.0]]);
        let anon = Matrix::from_rows(&[vec![9.0], vec![1.0]]);
        assert_eq!(record_linkage_risk(&orig, &anon), 0.0);
    }

    #[test]
    #[should_panic(expected = "one-to-one")]
    fn mismatched_lengths_panic() {
        record_linkage_risk(&Matrix::from_rows(&[vec![0.0]]), &Matrix::from_rows(&[]));
    }
}
