//! An exact rational reference for tests, built from histograms alone:
//! per attribute `S = Σ_i |N·C_i − |C|·G_i|` over the cumulative counts
//! and `K = (m − 1)·|C|·N`, compared as continued fractions so that no
//! product is ever formed.

use crate::confidential::Confidential;
use std::cmp::Ordering;
use tclose_metrics::emd::OrderedEmd;

/// The non-negative rational `num / den`, `den > 0`.
#[derive(Debug, Clone, Copy)]
pub struct Frac {
    num: u128,
    den: u128,
}

/// `x` against `y`: whole parts first, then the reciprocals of the
/// remainders in reverse.
pub fn cmp(x: Frac, y: Frac) -> Ordering {
    let (qx, rx) = (x.num / x.den, x.num % x.den);
    let (qy, ry) = (y.num / y.den, y.num % y.den);
    match (qx.cmp(&qy), rx, ry) {
        (Ordering::Equal, 0, 0) => Ordering::Equal,
        (Ordering::Equal, 0, _) => Ordering::Less,
        (Ordering::Equal, _, 0) => Ordering::Greater,
        (Ordering::Equal, _, _) => cmp(
            Frac {
                num: y.den,
                den: ry,
            },
            Frac {
                num: x.den,
                den: rx,
            },
        ),
        (order, _, _) => order,
    }
}

/// The largest per-attribute EMD of the cluster of `records`, each from
/// a histogram counted here.
pub fn emd(conf: &Confidential, records: &[usize]) -> Frac {
    let mut max = Frac { num: 0, den: 1 };
    for e in conf.emds() {
        let mut counts = vec![0u128; e.m()];
        for &r in records {
            counts[e.bin_of(r)] += 1;
        }
        let (n, size) = (e.n() as u128, records.len() as u128);
        let (mut c, mut g, mut sum) = (0u128, 0u128, 0u128);
        for (&ci, &gi) in counts.iter().zip(e.global_counts()) {
            (c, g) = (c + ci, g + u128::from(gi));
            sum += (n * c).abs_diff(size * g);
        }
        let den = (e.m() as u128 - 1) * size * n;
        if den > 0 && cmp(Frac { num: sum, den }, max).is_gt() {
            max = Frac { num: sum, den };
        }
    }
    max
}

/// `x` against a positive `t`, taken as `v / 2^e` by doubling it until it
/// is whole.
pub fn cmp_t(x: Frac, t: f64) -> Ordering {
    let (mut v, mut e) = (t, 0);
    while v.fract() != 0.0 {
        (v, e) = (2.0 * v, e + 1);
    }
    assert!(
        t > 0.0 && e < 128,
        "t = {t} is out of the reference's range"
    );
    cmp(
        x,
        Frac {
            num: v as u128,
            den: 1 << e,
        },
    )
}

/// The first member whose swap for `inn` gives the strictly smallest EMD
/// below the cluster's.
pub fn best_swap(conf: &Confidential, members: &[usize], inn: usize) -> Option<usize> {
    let mut best = (None, emd(conf, members));
    for i in 0..members.len() {
        let mut swapped = members.to_vec();
        swapped[i] = inn;
        let e = emd(conf, &swapped);
        if cmp(e, best.1).is_lt() {
            best = (Some(i), e);
        }
    }
    best.0
}

/// SplitMix64: seeded draws for the differential tests.
pub struct Draws(pub u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (up to a bias far below what the tests see).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `n` records over one domain of `m` bins per entry of `domains`.
/// Domains under six bins are uniform, which makes exact ties between
/// different swaps common. In larger ones every bin is used and the
/// other records fall on five atom bins half of the time, so the
/// global counts carry heavy ties.
pub fn tied_model(rng: &mut Draws, domains: &[usize], n: usize) -> Confidential {
    let emds = domains
        .iter()
        .map(|&m| {
            let atoms: Vec<usize> = (0..5).map(|_| rng.below(m)).collect();
            let column: Vec<f64> = (0..n)
                .map(|r| {
                    let bin = match r {
                        r if r < m || m < 6 => r % m,
                        _ if rng.unit() < 0.5 => atoms[rng.below(atoms.len())],
                        _ => rng.below(m),
                    };
                    bin as f64 * 3.0
                })
                .collect();
            OrderedEmd::new(&column)
        })
        .collect();
    Confidential::from_emds(emds).unwrap()
}
