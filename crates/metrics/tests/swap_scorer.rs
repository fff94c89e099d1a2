//! Differential tests of [`SwapScorer`]: every lane of a multi-lane swap
//! walk, the prefix it keeps across accepted swaps, and its add path must
//! be **bit-identical** to [`OrderedEmd`]'s one-pair evaluators — across
//! domain sizes m ∈ {1, 2, 3, 17, 1017}, outgoing bins equal to the
//! incoming one, duplicate outgoing bins, the end bins 0 and m − 1, and
//! clusters of more than [`SWAP_LANES`] members.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tclose_metrics::emd::{ClusterHistogram, OrderedEmd, SwapScorer, SWAP_LANES};

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

/// Scores every member against `inn` in walks of [`SWAP_LANES`] and checks
/// each lane against `emd_after_swap`, and the unused lanes against the
/// unswapped EMD.
fn check_lanes(emd: &OrderedEmd, scorer: &mut SwapScorer<'_>, members: &[usize], inn: usize) {
    let hist = &scorer.histogram().clone();
    for chunk in members.chunks(SWAP_LANES) {
        let bins: Vec<usize> = chunk.iter().map(|&r| emd.bin_of(r)).collect();
        let lanes = scorer.score_lanes(&bins, emd.bin_of(inn));
        for (l, &out) in chunk.iter().enumerate() {
            let expected = emd.emd_after_swap(hist, out, inn);
            assert_eq!(
                lanes[l].to_bits(),
                expected.to_bits(),
                "m={} lane {l}: out bin {} in bin {}: {} vs {expected}",
                emd.m(),
                bins[l],
                emd.bin_of(inn),
                lanes[l]
            );
        }
        for &unused in &lanes[chunk.len()..] {
            assert_eq!(unused.to_bits(), scorer.emd().to_bits());
        }
    }
}

#[test]
fn every_lane_matches_emd_after_swap_bit_for_bit() {
    for m in DOMAINS {
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(seed * 1_000 + m as u64);
            let emd = OrderedEmd::new(&column(&mut rng, m));
            assert_eq!(emd.m(), m);
            for size in [1, 2, 5, 8, 9, 17, 20] {
                let members = cluster(&mut rng, &emd, size);
                let hist = ClusterHistogram::of_records(&emd, &members);
                let mut scorer = SwapScorer::new(&emd, hist.clone());
                assert_eq!(scorer.emd().to_bits(), emd.emd(&hist).to_bits());
                for inn in incoming(&mut rng, &emd, &members) {
                    check_lanes(&emd, &mut scorer, &members, inn);
                }
            }
        }
    }
}

#[test]
fn duplicate_and_same_bin_lanes_match_emd_after_swap() {
    let mut rng = StdRng::seed_from_u64(17);
    let emd = OrderedEmd::new(&column(&mut rng, 17));
    // records 3 and 20 share bin 3; records 17 and 33 share the end bins
    // 0 and 16 with members 0 and 16
    let members = [3, 20, 0, 16];
    let mut scorer = SwapScorer::new(&emd, ClusterHistogram::of_records(&emd, &members));
    for inn in [17, 33, 5, 21] {
        check_lanes(&emd, &mut scorer, &members, inn);
    }
    // every lane a same-bin pair: no walk, the unswapped EMD everywhere
    let lanes = scorer.score_lanes(&[3, 3], 3);
    let unswapped = scorer.emd();
    assert!(lanes.iter().all(|x| x.to_bits() == unswapped.to_bits()));
}

#[test]
fn prefix_after_swaps_matches_a_fresh_emd() {
    for m in DOMAINS {
        let mut rng = StdRng::seed_from_u64(m as u64);
        let emd = OrderedEmd::new(&column(&mut rng, m));
        for size in [2, 9, 20] {
            let mut members = cluster(&mut rng, &emd, size);
            let mut scorer = SwapScorer::new(&emd, ClusterHistogram::of_records(&emd, &members));
            for _ in 0..40 {
                let i = rng.gen_range(0..members.len());
                let inn = loop {
                    let r = rng.gen_range(0..emd.n());
                    if !members.contains(&r) {
                        break r;
                    }
                };
                let preview = emd.emd_after_swap(scorer.histogram(), members[i], inn);
                scorer.swap(emd.bin_of(members[i]), emd.bin_of(inn));
                members[i] = inn;
                let fresh = ClusterHistogram::of_records(&emd, &members);
                assert_eq!(scorer.histogram(), &fresh);
                assert_eq!(scorer.emd().to_bits(), emd.emd(&fresh).to_bits());
                assert_eq!(scorer.emd().to_bits(), preview.to_bits());
                // lanes start from the re-summed prefix
                let probe = rng.gen_range(0..emd.n());
                check_lanes(&emd, &mut scorer, &members, probe);
            }
        }
    }
}

#[test]
fn emd_after_swap_matches_the_swapped_histogram() {
    for m in DOMAINS {
        let mut rng = StdRng::seed_from_u64(99 + m as u64);
        let emd = OrderedEmd::new(&column(&mut rng, m));
        let members = cluster(&mut rng, &emd, 9);
        let hist = ClusterHistogram::of_records(&emd, &members);
        for inn in incoming(&mut rng, &emd, &members) {
            for &out in &members {
                let mut swapped = hist.clone();
                swapped.remove(emd.bin_of(out));
                swapped.add(emd.bin_of(inn));
                assert_eq!(
                    emd.emd_after_swap(&hist, out, inn).to_bits(),
                    emd.emd(&swapped).to_bits()
                );
            }
        }
    }
}

#[test]
fn growing_by_add_matches_a_fresh_emd() {
    for m in DOMAINS {
        let mut rng = StdRng::seed_from_u64(7 * m as u64);
        let emd = OrderedEmd::new(&column(&mut rng, m));
        let mut members = cluster(&mut rng, &emd, 3);
        let mut scorer = SwapScorer::new(&emd, ClusterHistogram::of_records(&emd, &members));
        for _ in 0..12 {
            let inn = rng.gen_range(0..emd.n());
            let mut grown = scorer.histogram().clone();
            grown.add(emd.bin_of(inn));
            let expected = emd.emd(&grown);
            assert_eq!(
                scorer.emd_after_add(emd.bin_of(inn)).to_bits(),
                expected.to_bits()
            );
            scorer.add(emd.bin_of(inn));
            members.push(inn);
            assert_eq!(scorer.emd().to_bits(), expected.to_bits());
            check_lanes(&emd, &mut scorer, &members, rng.gen_range(0..emd.n()));
        }
    }
}

#[test]
#[should_panic(expected = "underflow")]
fn scoring_an_empty_outgoing_bin_panics() {
    let emd = OrderedEmd::new(&[1.0, 2.0, 3.0]);
    let mut scorer = SwapScorer::new(&emd, ClusterHistogram::of_records(&emd, &[0]));
    scorer.score_lanes(&[1], 2);
}
