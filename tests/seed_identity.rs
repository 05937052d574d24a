//! The greedy warm start returns the same seed as the straightforward
//! search it replaced.
//!
//! `greedy_placement` scores orders without building them, reads the
//! share relation from a dense table, and stops once its incumbent sits on
//! the width lower bound. None of that may change a seed: every warm start,
//! and so every search tree and placement downstream, depends on it. This
//! file keeps the plain search as reference code — a full placement built
//! for every order, every order of a small unit set visited, the hill
//! climb always run — and requires both `greedy_placement` and the
//! baseline's `greedy_placement_with(.., false)` to equal it on the
//! built-in library and on the corpus prefix the benchmark solves.

use clip::core::bounds;
use clip::core::cluster;
use clip::core::exhaustive::placement_from_order;
use clip::core::generator::{evaluate_order, greedy_placement, greedy_placement_with};
use clip::core::hier::partition_by_gates;
use clip::core::orient::Orient;
use clip::core::share::ShareArray;
use clip::core::solution::Placement;
use clip::core::unit::{Unit, UnitSet};
use clip::corpus::{CorpusSpec, Mode};
use clip::netlist::library;

/// Reference: for a fixed unit order, the orientation DP (ties keep the
/// last previous orientation reaching the maximum, the trace-back starts
/// from the last maximum) and the min-max split DP (a cut only replaces a
/// strictly worse one), then the placement.
fn reference_evaluate_order(
    units: &UnitSet,
    share: &ShareArray,
    order: &[usize],
    rows: usize,
) -> (usize, Placement) {
    let n = order.len();
    assert!(rows >= 1 && rows <= n, "invalid row count for evaluation");

    let orient_sets: Vec<Vec<Orient>> = order.iter().map(|&u| units.units()[u].orients()).collect();
    let mut dp: Vec<Vec<(usize, usize)>> = Vec::with_capacity(n);
    dp.push(vec![(0, 0); orient_sets[0].len()]);
    for k in 1..n {
        let mut row_dp = Vec::with_capacity(orient_sets[k].len());
        for &oj in orient_sets[k].iter() {
            let mut cell = (0usize, 0usize);
            for (pi, &oi) in orient_sets[k - 1].iter().enumerate() {
                let m = dp[k - 1][pi].0 + usize::from(share.shares(order[k - 1], oi, order[k], oj));
                if m >= cell.0 {
                    cell = (m, pi);
                }
            }
            row_dp.push(cell);
        }
        dp.push(row_dp);
    }
    let mut oi = dp[n - 1]
        .iter()
        .enumerate()
        .max_by_key(|&(_, &(m, _))| m)
        .map(|(i, _)| i)
        .expect("non-empty orientation set");
    let mut orients = vec![Orient::O1; n];
    for k in (0..n).rev() {
        orients[k] = orient_sets[k][oi];
        oi = dp[k][oi].1;
    }

    let merge: Vec<bool> = (0..n.saturating_sub(1))
        .map(|k| share.shares(order[k], orients[k], order[k + 1], orients[k + 1]))
        .collect();
    let widths: Vec<usize> = order.iter().map(|&u| units.units()[u].width).collect();
    let seg = |l: usize, h: usize| -> usize {
        let base: usize = widths[l..=h].iter().sum();
        let gaps = (l..h).filter(|&k| !merge[k]).count();
        base + gaps
    };
    let inf = usize::MAX / 2;
    let mut f = vec![vec![inf; rows + 1]; n + 1];
    f[0][0] = 0;
    let mut cut_back = vec![vec![0usize; rows + 1]; n + 1];
    for k in 1..=n {
        for r in 1..=rows.min(k) {
            for l in r - 1..k {
                if f[l][r - 1] == inf {
                    continue;
                }
                let w = f[l][r - 1].max(seg(l, k - 1));
                if w < f[k][r] {
                    f[k][r] = w;
                    cut_back[k][r] = l;
                }
            }
        }
    }
    let mut cuts = Vec::with_capacity(rows - 1);
    let mut k = n;
    for r in (1..=rows).rev() {
        let l = cut_back[k][r];
        if r > 1 {
            cuts.push(l);
        }
        k = l;
    }
    cuts.reverse();

    placement_from_order(units, share, order, &orients, &cuts)
}

/// Reference: multi-start nearest-neighbour orders, every order of a set
/// of at most eight units when `exhaustive_small`, then four passes of
/// pairwise-swap hill climbing; an order replaces the incumbent only when
/// strictly narrower.
fn reference_greedy(
    units: &UnitSet,
    share: &ShareArray,
    rows: usize,
    exhaustive_small: bool,
) -> Option<Placement> {
    let n = units.len();
    if rows == 0 || rows > n {
        return None;
    }
    let consider = |order: &[usize], best: &mut Option<(usize, Placement)>| {
        let (width, placement) = reference_evaluate_order(units, share, order, rows);
        if best.as_ref().is_none_or(|&(w, _)| width < w) {
            *best = Some((width, placement));
        }
    };

    let mut best: Option<(usize, Placement)> = None;
    for start in 0..n {
        let mut remaining: Vec<usize> = (0..n).filter(|&u| u != start).collect();
        let mut order = vec![start];
        let mut last_orients = units.units()[start].orients();
        while !remaining.is_empty() {
            let last = *order.last().expect("order non-empty");
            let pick = remaining.iter().position(|&cand| {
                last_orients.iter().any(|&oi| {
                    units.units()[cand]
                        .orients()
                        .iter()
                        .any(|&oj| share.shares(last, oi, cand, oj))
                })
            });
            let unit = remaining.remove(pick.unwrap_or(0));
            last_orients = units.units()[unit].orients();
            order.push(unit);
        }
        consider(&order, &mut best);
    }

    if exhaustive_small && n <= 8 {
        fn permute(order: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
            if k == order.len() {
                f(order);
                return;
            }
            for i in k..order.len() {
                order.swap(k, i);
                permute(order, k + 1, f);
                order.swap(k, i);
            }
        }
        let mut order: Vec<usize> = (0..n).collect();
        permute(&mut order, 0, &mut |p| consider(p, &mut best));
    }

    let mut order: Vec<usize> = {
        let (_, p) = best.as_ref()?;
        p.rows.iter().flatten().map(|pu| pu.unit).collect()
    };
    let mut improved = true;
    let mut passes = 0;
    while improved && passes < 4 {
        improved = false;
        passes += 1;
        for i in 0..n {
            for j in i + 1..n {
                order.swap(i, j);
                let before = best.as_ref().map(|&(w, _)| w);
                consider(&order, &mut best);
                if best.as_ref().map(|&(w, _)| w) == before {
                    order.swap(i, j);
                } else {
                    improved = true;
                }
            }
        }
    }
    best.map(|(_, p)| p)
}

/// Requires both greedy entry points, and `evaluate_order` on the
/// identity order, to equal the reference on one instance. Returns the
/// seed's width.
fn assert_identical(label: &str, units: &UnitSet, rows: usize) -> Option<usize> {
    let share = ShareArray::new(units);
    let seed = greedy_placement(units, &share, rows);
    assert_eq!(
        seed,
        reference_greedy(units, &share, rows, true),
        "{label} rows={rows}: warm-start seed differs"
    );
    assert_eq!(
        greedy_placement_with(units, &share, rows, false),
        reference_greedy(units, &share, rows, false),
        "{label} rows={rows}: baseline seed differs"
    );
    if (1..=units.len()).contains(&rows) {
        let order: Vec<usize> = (0..units.len()).collect();
        assert_eq!(
            evaluate_order(units, &share, &order, rows),
            reference_evaluate_order(units, &share, &order, rows),
            "{label} rows={rows}: evaluate_order differs"
        );
    }
    seed.map(|p| p.cell_width(units))
}

/// The width and floor of the flat warm start of one corpus cell.
fn seed_and_floor(units: &UnitSet, rows: usize) -> (usize, usize) {
    let share = ShareArray::new(units);
    let seed = greedy_placement(units, &share, rows).expect("valid row count");
    let floor = bounds::width_lower_bound(units, &share, rows).expect("valid row count");
    (seed.cell_width(units), floor)
}

#[test]
fn library_seeds_match_the_reference() {
    let circuits = library::evaluation_suite()
        .into_iter()
        .chain(library::extended_suite());
    for circuit in circuits {
        let name = circuit.name().to_owned();
        let paired = circuit.into_paired().expect("library cells pair");
        let clustered = cluster::cluster_and_stacks(paired.clone());
        for (kind, units) in [("flat", UnitSet::flat(paired)), ("clustered", clustered)] {
            for rows in 0..=3 {
                assert_identical(&format!("{name} {kind}"), &units, rows);
            }
        }
    }
}

#[test]
fn corpus_seeds_match_the_reference() {
    let cells = clip::corpus::generate(&CorpusSpec { seed: 1, cells: 64 });
    let mut instances = 0;
    for cell in &cells {
        let name = cell.circuit.name();
        let paired = cell
            .circuit
            .clone()
            .into_paired()
            .expect("corpus cells pair");
        let flat = UnitSet::flat(paired.clone());
        let stacked = cluster::cluster_and_stacks(paired);
        let mut sets: Vec<(String, UnitSet, usize)> = Vec::new();
        match cell.mode {
            Mode::Flat => {
                sets.push((format!("{name} flat"), flat.clone(), cell.rows));
                sets.push((format!("{name} stacked"), stacked, cell.rows));
            }
            Mode::Hier => {
                // The sub-cells hierarchical generation seeds, at the row
                // count it gives each.
                let groups = partition_by_gates(&flat);
                let largest = groups.iter().map(Vec::len).max().unwrap_or(1);
                let rows = cell.rows.clamp(1, largest);
                for (g, group) in groups.iter().enumerate() {
                    let members: Vec<Unit> =
                        group.iter().map(|&u| flat.units()[u].clone()).collect();
                    let sub = UnitSet::from_units_partial(flat.paired().clone(), members);
                    sets.push((format!("{name} group {g}"), sub, rows.min(group.len())));
                }
            }
        }
        for (label, units, rows) in sets.iter().filter(|(_, u, _)| u.len() <= 8) {
            assert_identical(label, units, *rows);
            instances += 1;
        }
    }
    assert!(instances >= 64, "only {instances} instances checked");

    // Cells 7 and 36 run the whole sweep (the seed stays one above the
    // floor); cell 40 stops at the floor.
    for (index, want) in [(7, (5, 4)), (36, (5, 4)), (40, (4, 4))] {
        let cell = &cells[index];
        assert_eq!(cell.mode, Mode::Flat, "cell {index}");
        let units = UnitSet::flat(cell.circuit.clone().into_paired().expect("pairs"));
        assert_eq!(units.len(), 8, "cell {index}");
        assert_eq!(seed_and_floor(&units, cell.rows), want, "cell {index}");
    }
}
