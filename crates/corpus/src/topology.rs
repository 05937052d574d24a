//! The three corpus topology families.
//!
//! Each builder consumes one seeded [`Rng`] stream and returns a valid
//! complementary CMOS circuit, or `None` when the sampled parameters
//! happen to be degenerate (the caller re-rolls). The families mirror
//! the paper's evaluation mix:
//!
//! * [`Topology::SeriesParallel`] — random series-parallel formulas,
//!   the bread and butter of static CMOS (Table 3's xor/mux/aoi cells).
//! * [`Topology::Bridge`] — the non-series-parallel Wheatstone bridge
//!   of Zhang & Asada (Table 3 circuit 2), with shuffled arm gates and
//!   a random tail of follow-on stages for population diversity.
//! * [`Topology::TwoLevel`] — flat AOI/OAI sum-of-products and pure
//!   NAND/NOR chains (Table 3 circuit 3's family), the reliable source
//!   of deep and-stacks for the `deep` feature keys.

use clip_netlist::{Circuit, DeviceKind, Expr};
use clip_rng::Rng;

/// A corpus topology family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// Random series-parallel inverting gate.
    SeriesParallel,
    /// Wheatstone bridge core with randomized arms and tail stages.
    Bridge,
    /// Flat two-level AOI/OAI logic or a pure NAND/NOR chain.
    TwoLevel,
}

impl Topology {
    /// Stable name used in cell names and checkpoint records.
    pub fn name(self) -> &'static str {
        match self {
            Topology::SeriesParallel => "sp",
            Topology::Bridge => "bridge",
            Topology::TwoLevel => "twolevel",
        }
    }
}

/// Draws one circuit of `topology` from `rng`.
///
/// `pairs` is the inclusive target range: the pair-count goal for the
/// formula families, the tail-stage budget for the bridge (whose core
/// is always 6 pairs).
pub fn build(topology: Topology, rng: &mut Rng, pairs: (usize, usize)) -> Option<Circuit> {
    match topology {
        Topology::SeriesParallel => series_parallel(rng, pairs),
        Topology::Bridge => bridge(rng, pairs),
        Topology::TwoLevel => two_level(rng, pairs),
    }
}

/// Variable pool for formula leaves: at most ten distinct inputs.
fn var(k: usize) -> Expr {
    Expr::Var(((b'a' + (k % 10) as u8) as char).to_string())
}

fn series_parallel(rng: &mut Rng, (lo, hi): (usize, usize)) -> Option<Circuit> {
    let target = rng.gen_range(lo.max(2)..=hi.max(lo.max(2)));
    // Delegate to the netlist crate's seeded formula sampler; it owns
    // the recursive series-parallel shape distribution.
    Some(clip_netlist::random::random_gate(rng.next_u64(), target))
}

fn two_level(rng: &mut Rng, (lo, hi): (usize, usize)) -> Option<Circuit> {
    let target = rng.gen_range(lo.max(2)..=hi.max(lo.max(2)));
    let pool = target.clamp(3, 10);
    let leaf = |rng: &mut Rng| var(rng.gen_range(0..pool));

    let expr = if target <= 8 && rng.gen_bool(0.35) {
        // A pure NAND/NOR chain: `target` distinct leaves in one stack.
        let leaves: Vec<Expr> = (0..target).map(var).collect();
        if rng.gen_bool(0.5) {
            Expr::Not(Box::new(Expr::And(leaves)))
        } else {
            Expr::Not(Box::new(Expr::Or(leaves)))
        }
    } else {
        // AOI/OAI: split the budget into 2-4 terms; leaves marked
        // inverted cost an extra pair (their inverter).
        let inverted = if target > 4 && rng.gen_bool(0.4) {
            rng.gen_range(0..=(target / 6).min(2))
        } else {
            0
        };
        let mut budget = target - inverted;
        let terms_n = rng.gen_range(2..=4usize.min(budget));
        let mut terms = Vec::with_capacity(terms_n);
        let mut invert_left = inverted;
        for t in 0..terms_n {
            let left = terms_n - 1 - t;
            let width = if left == 0 {
                budget
            } else {
                rng.gen_range(1..=budget - left)
            };
            budget -= width;
            let mut leaves: Vec<Expr> = (0..width).map(|_| leaf(rng)).collect();
            while invert_left > 0 && rng.gen_bool(0.5) {
                let k = rng.gen_range(0..leaves.len());
                leaves[k] = Expr::Not(Box::new(leaves[k].clone()));
                invert_left -= 1;
            }
            terms.push(if width == 1 {
                leaves.pop().expect("width >= 1")
            } else if rng.gen_bool(0.5) {
                Expr::And(leaves)
            } else {
                Expr::Or(leaves)
            });
        }
        // Any inversions the coin flips skipped land on the first term.
        for _ in 0..invert_left {
            terms[0] = Expr::Not(Box::new(terms[0].clone()));
        }
        if rng.gen_bool(0.5) {
            Expr::Not(Box::new(Expr::Or(terms)))
        } else {
            Expr::Not(Box::new(Expr::And(terms)))
        }
    };
    expr.compile("twolevel", "z").ok()
}

fn bridge(rng: &mut Rng, (lo, hi): (usize, usize)) -> Option<Circuit> {
    let stages = rng.gen_range(lo..=hi.max(lo));

    let mut b = Circuit::builder("bridge");
    let mut arms: Vec<&str> = vec!["a", "b", "c", "d", "e"];
    rng.shuffle(&mut arms);
    let gates: Vec<_> = arms.iter().map(|n| b.net(n)).collect();
    let (ga, gb, gc, gd, ge) = (gates[0], gates[1], gates[2], gates[3], gates[4]);
    let z = b.net("z");
    let zb = b.net("zb");
    let (vdd, gnd) = (b.vdd(), b.gnd());

    // N bridge between z and GND: conduction = a·c + b·d + a·e·d + b·e·c
    // (in the shuffled arm assignment).
    let n1 = b.net("n1");
    let n2 = b.net("n2");
    b.device(DeviceKind::N, ga, z, n1);
    b.device(DeviceKind::N, gb, z, n2);
    b.device(DeviceKind::N, ge, n1, n2);
    b.device(DeviceKind::N, gc, n1, gnd);
    b.device(DeviceKind::N, gd, n2, gnd);

    // P dual bridge between VDD and z (arms a,c swap with b,d).
    let m1 = b.net("m1");
    let m2 = b.net("m2");
    b.device(DeviceKind::P, ga, vdd, m1);
    b.device(DeviceKind::P, gc, vdd, m2);
    b.device(DeviceKind::P, ge, m1, m2);
    b.device(DeviceKind::P, gb, m1, z);
    b.device(DeviceKind::P, gd, m2, z);

    // Output inverter closes the complex gate.
    b.device(DeviceKind::P, z, vdd, zb);
    b.device(DeviceKind::N, z, gnd, zb);

    // Tail stages diversify the population (and its feature buckets):
    // each one hangs an inverter, NAND2, or NOR2 off the last output.
    let mut last = zb;
    for t in 0..stages {
        let next = b.net(&format!("t{t}"));
        match rng.gen_range(0..3u8) {
            0 => {
                b.device(DeviceKind::P, last, vdd, next);
                b.device(DeviceKind::N, last, gnd, next);
            }
            1 => {
                let other = gates[rng.gen_range(0..gates.len())];
                let mid = b.net(&format!("t{t}m"));
                b.device(DeviceKind::N, last, next, mid);
                b.device(DeviceKind::N, other, mid, gnd);
                b.device(DeviceKind::P, last, vdd, next);
                b.device(DeviceKind::P, other, vdd, next);
            }
            _ => {
                let other = gates[rng.gen_range(0..gates.len())];
                let mid = b.net(&format!("t{t}m"));
                b.device(DeviceKind::P, last, vdd, mid);
                b.device(DeviceKind::P, other, mid, next);
                b.device(DeviceKind::N, last, next, gnd);
                b.device(DeviceKind::N, other, next, gnd);
            }
        }
        last = next;
    }

    for &g in &gates {
        b.input(g);
    }
    b.output(last);
    let circuit = b.build();
    circuit.validate().ok()?;
    Some(circuit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_yields_valid_paired_circuits() {
        for seed in 0..30u64 {
            let mut rng = Rng::seed_from_u64(seed);
            for (topology, pairs) in [
                (Topology::SeriesParallel, (2, 12)),
                (Topology::Bridge, (0, 2)),
                (Topology::TwoLevel, (3, 16)),
            ] {
                let c = build(topology, &mut rng, pairs)
                    .unwrap_or_else(|| panic!("{topology:?} seed {seed} failed"));
                assert!(c.validate().is_ok(), "{topology:?} seed {seed}");
                let paired = c
                    .into_paired()
                    .unwrap_or_else(|e| panic!("{topology:?} seed {seed}: {e}"));
                assert!(paired.len() >= 2, "{topology:?} seed {seed}");
            }
        }
    }

    #[test]
    fn bridge_population_is_diverse() {
        let mut rng = Rng::seed_from_u64(7);
        let decks: std::collections::BTreeSet<String> = (0..40)
            .filter_map(|_| build(Topology::Bridge, &mut rng, (0, 2)))
            .map(|c| clip_netlist::spice::write(&c))
            .collect();
        assert!(decks.len() >= 20, "only {} distinct bridges", decks.len());
    }
}
