//! A dense reference for tests: a cluster as one count per bin of the
//! domain, and its `D_i = N·C_i − |C|·G_i` walked bin by bin in `i128`, as
//! every EMD was computed before clusters were held as runs.

use super::{OrderedEmd, Ratio};

/// Per-bin counts of the cluster of `records`.
pub fn counts(emd: &OrderedEmd, records: &[usize]) -> Vec<u32> {
    let mut counts = vec![0; emd.m()];
    for &r in records {
        counts[emd.bin_of(r)] += 1;
    }
    counts
}

/// Every `D_i` of the cluster with per-bin `counts`.
pub fn diffs(emd: &OrderedEmd, counts: &[u32]) -> Vec<i128> {
    let n = emd.n() as i128;
    let size: i128 = counts.iter().map(|&c| i128::from(c)).sum();
    let (mut c, mut g) = (0i128, 0i128);
    let pairs = counts.iter().zip(emd.global_counts());
    pairs
        .map(|(&ci, &gi)| {
            (c, g) = (c + i128::from(ci), g + i128::from(gi));
            n * c - size * g
        })
        .collect()
}

/// The exact EMD of the cluster with per-bin `counts`: `Σ|D_i|` over
/// `(m − 1)·|C|·N`.
pub fn exact_emd(emd: &OrderedEmd, counts: &[u32]) -> Ratio {
    let size: u128 = counts.iter().map(|&c| u128::from(c)).sum();
    let sum = diffs(emd, counts).iter().map(|d| d.unsigned_abs()).sum();
    Ratio::new(sum, (emd.m() as u128 - 1) * size * emd.n() as u128)
}
