//! Differential tests of [`ExactEmd`]: its EMD is the ordered EMD in exact
//! integers, each pair's swap delta equals the sum of the swapped cluster
//! built afresh, and applied swaps and growth keep the state equal to a
//! fresh one — across domains of 1 to 2,000 bins with heavy global ties,
//! clusters of 1 to 50 records, incoming bins on a member's bin and at the
//! end bins, and counts too large for `i64`. `emd.rs`'s unit tests check
//! the states themselves against a dense per-bin reference.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tclose_metrics::emd::{ExactEmd, OrderedEmd, Ratio, SparseHistogram};

const DOMAINS: [usize; 6] = [1, 2, 3, 17, 400, 2000];

/// A column over exactly `m` distinct values. Every bin is used; a third
/// of the bins share one large count and the rest are drawn, so many
/// global cumulative counts tie.
fn column(rng: &mut StdRng, m: usize) -> Vec<f64> {
    let mut col = Vec::new();
    for bin in 0..m {
        let count = if bin % 3 == 0 { 6 } else { rng.gen_range(1..4) };
        col.extend(std::iter::repeat_n(bin as f64 * 0.5, count));
    }
    col
}

fn cluster(rng: &mut StdRng, emd: &OrderedEmd, size: usize) -> Vec<usize> {
    let mut members = Vec::new();
    while members.len() < size.min(emd.n()) {
        let r = rng.gen_range(0..emd.n());
        if !members.contains(&r) {
            members.push(r);
        }
    }
    members
}

/// The state's EMD is [`OrderedEmd::exact_emd`]'s, the reported f64 is
/// it rounded, and that lies within `3·(m + 1)²·2⁻⁵³` of it, relative to
/// `K = (m − 1)·|C|·N`: `|emd·K − S| ≤ 3·(m + 1)²·|C|·N·2⁻⁵³`, with the
/// product's own rounding (a few units of `S·2⁻⁵²`) allowed for.
fn assert_within_bound(emd: &OrderedEmd, state: &ExactEmd, hist: &SparseHistogram) {
    assert_eq!(state.emd(), emd.exact_emd(hist));
    assert_eq!(emd.emd(hist).to_bits(), state.emd().to_f64().to_bits());
    let m = emd.m() as f64;
    let scale = hist.size() as f64 * emd.n() as f64;
    let scaled = emd.emd(hist) * scale * (m - 1.0).max(1.0);
    let (sum, bound) = (
        state.sum() as f64,
        3.0 * (m + 1.0).powi(2) * scale / 2f64.powi(53),
    );
    assert!(
        (scaled - sum).abs() <= bound + sum * 2f64.powi(-50),
        "m={} |C|={}: f64 {scaled} vs exact {sum} (bound {bound})",
        emd.m(),
        hist.size()
    );
}

#[test]
fn sum_is_the_emd_within_the_rounding_bound() {
    for m in DOMAINS {
        let mut rng = StdRng::seed_from_u64(m as u64);
        let emd = OrderedEmd::new(&column(&mut rng, m));
        assert_eq!(emd.m(), m);
        for size in [1, 2, 5, 9, 50] {
            let hist = SparseHistogram::of_records(&emd, &cluster(&mut rng, &emd, size));
            let state = ExactEmd::new(&emd, hist.clone());
            assert_within_bound(&emd, &state, &hist);
        }
    }
    // The whole data set is its own distribution: S = 0 exactly.
    let emd = OrderedEmd::new(&[1.0, 1.0, 2.0, 5.0]);
    let all = SparseHistogram::of_records(&emd, &[0, 1, 2, 3]);
    assert_eq!(ExactEmd::new(&emd, all).emd(), Ratio::ZERO);
}

/// The sum of the cluster of `hist` with one record of `out` swapped for
/// one of `in_bin`, from a state built afresh.
fn swapped_sum(emd: &OrderedEmd, hist: &SparseHistogram, out: usize, in_bin: usize) -> i128 {
    let mut swapped = hist.clone();
    swapped.remove(out);
    swapped.add(in_bin);
    ExactEmd::new(emd, swapped).sum()
}

/// The distinct bins of `members`, ascending: the cluster's pairs.
fn pair_bins(emd: &OrderedEmd, members: &[usize]) -> Vec<usize> {
    let mut bins: Vec<usize> = members.iter().map(|&r| emd.bin_of(r)).collect();
    bins.sort_unstable();
    bins.dedup();
    bins
}

#[test]
fn swap_deltas_equal_the_swapped_clusters_sums() {
    for m in DOMAINS {
        let mut rng = StdRng::seed_from_u64(100 + m as u64);
        let emd = OrderedEmd::new(&column(&mut rng, m));
        for size in [2, 5, 8, 20] {
            let members = cluster(&mut rng, &emd, size);
            let hist = SparseHistogram::of_records(&emd, &members);
            let state = ExactEmd::new(&emd, hist.clone());
            let bins = pair_bins(&emd, &members);
            let mut deltas = Vec::new();
            for _ in 0..12 {
                // The incoming bin is drawn, or an end bin, or a member's.
                let in_bin = match rng.gen_range(0..4) {
                    0 => 0,
                    1 => m - 1,
                    2 => emd.bin_of(members[rng.gen_range(0..members.len())]),
                    _ => rng.gen_range(0..m),
                };
                state.swap_deltas(&emd, in_bin, &mut deltas);
                assert_eq!(deltas.len(), bins.len());
                for (p, &out) in bins.iter().enumerate() {
                    assert_eq!(state.pair_of(out), p);
                    assert_eq!(
                        state.sum() + deltas[p],
                        swapped_sum(&emd, &hist, out, in_bin),
                        "m={m} pair {p}: out bin {out} in bin {in_bin}"
                    );
                }
            }
        }
    }
}

#[test]
fn applied_swaps_keep_the_state_equal_to_a_fresh_one() {
    for m in DOMAINS {
        let mut rng = StdRng::seed_from_u64(200 + m as u64);
        let emd = OrderedEmd::new(&column(&mut rng, m));
        for size in [1, 3, 30] {
            let mut members = cluster(&mut rng, &emd, size.min(emd.n() - 1));
            let hist = SparseHistogram::of_records(&emd, &members);
            let mut state = ExactEmd::new(&emd, hist);
            let mut deltas = Vec::new();
            for _ in 0..40 {
                let i = rng.gen_range(0..members.len());
                let inn = loop {
                    let r = rng.gen_range(0..emd.n());
                    if !members.contains(&r) {
                        break r;
                    }
                };
                let (out_bin, in_bin) = (emd.bin_of(members[i]), emd.bin_of(inn));
                state.swap_deltas(&emd, in_bin, &mut deltas);
                let predicted = state.sum() + deltas[state.pair_of(out_bin)];
                state.swap(&emd, out_bin, in_bin);
                members[i] = inn;
                let hist = SparseHistogram::of_records(&emd, &members);
                let fresh = ExactEmd::new(&emd, hist.clone());
                assert_eq!(state.sum(), predicted);
                assert_eq!(state, fresh);
                assert_within_bound(&emd, &state, &hist);
            }
        }
    }
}

#[test]
fn counts_too_large_for_i64_are_held_in_i128() {
    // 40,000 bins of u32::MAX records each: (m − 1)·|C|·N passes 2⁶⁴, and
    // so do the run terms, summed in u128. Swap deltas, applied swaps and
    // growth still match fresh states, and the EMD matches `exact_emd`.
    let m = 40_000;
    let values: Vec<f64> = (0..m).map(|v| v as f64).collect();
    let global = OrderedEmd::try_from_global(values, vec![u32::MAX; m]).unwrap();
    let mut rng = StdRng::seed_from_u64(300);
    let column: Vec<f64> = (0..64).map(|_| rng.gen_range(0..m) as f64).collect();
    let emd = global.rebind(&column).unwrap();
    let mut members: Vec<usize> = (0..20).collect();
    let mut state = ExactEmd::new(&emd, SparseHistogram::of_records(&emd, &members));
    let mut deltas = Vec::new();
    for inn in 20..40 {
        let hist = SparseHistogram::of_records(&emd, &members);
        assert_eq!(state, ExactEmd::new(&emd, hist.clone()));
        assert_eq!(state.emd(), emd.exact_emd(&hist));
        state.swap_deltas(&emd, emd.bin_of(inn), &mut deltas);
        for (p, &out) in pair_bins(&emd, &members).iter().enumerate() {
            let mut swapped = hist.clone();
            swapped.remove(out);
            swapped.add(emd.bin_of(inn));
            assert_eq!(state.emd_after(deltas[p]), emd.exact_emd(&swapped));
        }
        let mut grown = hist.clone();
        grown.add(emd.bin_of(inn));
        assert_eq!(
            state.grown(&emd, emd.bin_of(inn)),
            ExactEmd::new(&emd, grown)
        );
        let i = inn % members.len();
        state.swap(&emd, emd.bin_of(members[i]), emd.bin_of(inn));
        members[i] = inn;
    }
}
