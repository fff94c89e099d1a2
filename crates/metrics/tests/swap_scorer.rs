//! Differential tests of [`OrderedEmd`]'s one-pair evaluator, the
//! reported EMD of a swapped cluster: `emd_after_swap` must be
//! **bit-identical** to a fresh [`OrderedEmd::emd`] of the swapped
//! histogram, the exact ratio rounded, also after the cluster grows — across domain sizes m ∈ {1, 2, 3, 17, 1017}, outgoing
//! bins equal to the incoming one, duplicate outgoing bins and the end
//! bins 0 and m − 1.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tclose_metrics::emd::{OrderedEmd, SparseHistogram};

const DOMAINS: [usize; 5] = [1, 2, 3, 17, 1017];

/// A column over exactly `m` distinct values whose bin is the value's rank:
/// records `0..2m` take bin `i mod m` (so every bin is used and each has a
/// duplicate), the rest are drawn at random.
fn column(rng: &mut StdRng, m: usize) -> Vec<f64> {
    let n = 2 * m + 40;
    (0..n)
        .map(|i| {
            let bin = if i < 2 * m {
                i % m
            } else {
                rng.gen_range(0..m)
            };
            bin as f64 * 2.5 - 7.0
        })
        .collect()
}

/// `size` distinct records, always including the two records of bin 0 and
/// one record of bin m − 1 when there is room.
fn cluster(rng: &mut StdRng, emd: &OrderedEmd, size: usize) -> Vec<usize> {
    let (n, m) = (emd.n(), emd.m());
    let mut members = Vec::new();
    for r in [0, m, m - 1] {
        if members.len() < size && !members.contains(&r) {
            members.push(r);
        }
    }
    while members.len() < size {
        let r = rng.gen_range(0..n);
        if !members.contains(&r) {
            members.push(r);
        }
    }
    members
}

/// Incoming records: random ones plus one from each end bin and one that
/// shares a member's bin.
fn incoming(rng: &mut StdRng, emd: &OrderedEmd, members: &[usize]) -> Vec<usize> {
    let m = emd.m();
    let mut inn = vec![0, m - 1, members[members.len() / 2]];
    inn.extend((0..6).map(|_| rng.gen_range(0..emd.n())));
    inn
}

/// Checks `emd_after_swap` of every member of `hist` against `inn` with
/// the EMD of the histogram that swap leaves.
fn check_swaps(emd: &OrderedEmd, hist: &SparseHistogram, members: &[usize], inn: usize) {
    for &out in members {
        let mut swapped = hist.clone();
        swapped.remove(emd.bin_of(out));
        swapped.add(emd.bin_of(inn));
        assert_eq!(
            emd.emd_after_swap(hist, out, inn).to_bits(),
            emd.emd(&swapped).to_bits(),
            "m={}: out bin {} in bin {}",
            emd.m(),
            emd.bin_of(out),
            emd.bin_of(inn)
        );
    }
}

#[test]
fn emd_after_swap_matches_the_swapped_histogram() {
    for m in DOMAINS {
        let mut rng = StdRng::seed_from_u64(99 + m as u64);
        let emd = OrderedEmd::new(&column(&mut rng, m));
        let members = cluster(&mut rng, &emd, 9);
        let hist = SparseHistogram::of_records(&emd, &members);
        for inn in incoming(&mut rng, &emd, &members) {
            check_swaps(&emd, &hist, &members, inn);
        }
    }
}

#[test]
fn growing_by_add_matches_a_fresh_emd() {
    for m in DOMAINS {
        let mut rng = StdRng::seed_from_u64(7 * m as u64);
        let emd = OrderedEmd::new(&column(&mut rng, m));
        let mut members = cluster(&mut rng, &emd, 3);
        let mut hist = SparseHistogram::of_records(&emd, &members);
        for _ in 0..12 {
            let inn = rng.gen_range(0..emd.n());
            hist.add(emd.bin_of(inn));
            members.push(inn);
            assert_eq!(hist, SparseHistogram::of_records(&emd, &members));
            check_swaps(&emd, &hist, &members, rng.gen_range(0..emd.n()));
        }
    }
}
