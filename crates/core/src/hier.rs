//! Hierarchical layout generation (the paper's \[9\] extension).
//!
//! The conclusion notes CLIP "can also be modified to generate layouts
//! hierarchically, based on a predetermined circuit partitioning, which
//! can extend our technique to much larger circuits". This module
//! implements that scheme:
//!
//! 1. **Partition** the pairs into sub-cells — by default, the connected
//!    components of the non-rail diffusion-sharing graph, which recovers
//!    the circuit's logic gates (each complementary gate is one component,
//!    each inverter its own);
//! 2. **Solve** each sub-cell exactly with CLIP-W (optionally with HCLIP
//!    stacking), using `min(rows, |sub-cell|)` rows;
//! 3. **Compose** the solved sub-cells side by side: search sub-cell
//!    orders (exhaustive for ≤ 6 groups, multi-start greedy beyond),
//!    merging across sub-cell boundaries whenever the fixed boundary
//!    orientations abut, and minimizing the composite `max_r W_r`.
//!
//! The result is near-optimal rather than optimal — the partition pins
//! pairs to their gate — but each ILP is tiny, so circuits far beyond the
//! flat model's reach (e.g. the 42-transistor `mux41`) lay out in
//! milliseconds. `experiments hier` quantifies the trade.
//!
//! A hierarchical run is a request built with
//! [`SynthRequest::hierarchical`](crate::request::SynthRequest::hierarchical);
//! its composition arrives on the result's `hier` field as a [`HierCell`].

use std::num::NonZeroUsize;
use std::time::Duration;

use clip_pb::{Budget, Solver, SolverConfig};

use crate::clipw::{ClipW, ClipWOptions};
use crate::generator::{greedy_placement, GenError};
use crate::share::ShareArray;
use crate::solution::{PlacedUnit, Placement};
use crate::unit::{Unit, UnitSet};

/// A hierarchical generation result.
#[derive(Clone, Debug)]
pub struct HierCell {
    /// The composed placement over `units`.
    pub placement: Placement,
    /// The flat (or stacked) unit set of the whole circuit.
    pub units: UnitSet,
    /// Composite cell width.
    pub width: usize,
    /// Effective row count (≤ requested).
    pub rows: usize,
    /// The partition used (unit indices per sub-cell).
    pub partition: Vec<Vec<usize>>,
    /// Sum of sub-cell solve times.
    pub solve_time: Duration,
    /// True if every sub-cell solve was proved optimal.
    pub subcells_optimal: bool,
}

/// Partitions units into connected components of the non-rail
/// diffusion-net sharing graph (≈ the circuit's gates).
pub fn partition_by_gates(units: &UnitSet) -> Vec<Vec<usize>> {
    let table = units.paired().circuit().nets();
    let n = units.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], x: usize) -> usize {
        let mut x = x;
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    // Union units sharing a non-rail diffusion net.
    let mut by_net: std::collections::HashMap<clip_netlist::NetId, usize> =
        std::collections::HashMap::new();
    for (u, unit) in units.units().iter().enumerate() {
        for col in unit.reference_columns() {
            for net in [col.p_left, col.p_right, col.n_left, col.n_right] {
                if table.is_rail(net) {
                    continue;
                }
                match by_net.get(&net) {
                    Some(&v) => {
                        let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
                        if ru != rv {
                            parent[ru] = rv;
                        }
                    }
                    None => {
                        by_net.insert(net, u);
                    }
                }
            }
        }
    }
    let mut groups: std::collections::BTreeMap<usize, Vec<usize>> =
        std::collections::BTreeMap::new();
    for u in 0..n {
        groups.entry(find(&mut parent, u)).or_default().push(u);
    }
    groups.into_values().collect()
}

/// Generates a layout hierarchically from a unit set: at most `rows`
/// rows, sub-cell solves fanned out over `jobs` threads, every solve
/// drawing on the one `budget`.
///
/// # Errors
///
/// Propagates per-sub-cell model/solve failures.
pub(crate) fn generate_units_with_budget(
    units: UnitSet,
    rows: usize,
    jobs: NonZeroUsize,
    budget: &Budget,
) -> Result<HierCell, GenError> {
    let partition = partition_by_gates(&units);
    let max_group = partition.iter().map(Vec::len).max().unwrap_or(1);
    let rows = rows.clamp(1, max_group);
    let share = ShareArray::new(&units);

    // Solve each sub-cell against one shared deadline. The sub-cells are
    // independent (disjoint unit sets, private models), so they fan out
    // across worker threads; merging in partition order below keeps the
    // result identical for any job count.
    let solve_sub = |group: &[usize]| -> Result<(Vec<Vec<PlacedUnit>>, Duration, bool), GenError> {
        let sub_units: Vec<Unit> = group.iter().map(|&u| units.units()[u].clone()).collect();
        let sub_set = UnitSet::from_units_partial(units.paired().clone(), sub_units);
        let sub_share = ShareArray::new(&sub_set);
        let sub_rows = rows.min(group.len());
        let model = ClipW::build(&sub_set, &sub_share, &ClipWOptions::new(sub_rows))
            .map_err(GenError::Model)?;
        let warm = greedy_placement(&sub_set, &sub_share, sub_rows)
            .and_then(|p| model.warm_assignment(&sub_set, &p));
        let config = SolverConfig {
            brancher: Some(model.brancher()),
            warm_start: warm,
            budget: budget.clone(),
            ..Default::default()
        };
        let out = Solver::with_config(model.model(), config).run();
        let sol = out.best().ok_or(GenError::NoSolution)?;
        let local = model.extract(sol);
        // Map local unit indices back to global ones.
        let mapped: Vec<Vec<PlacedUnit>> = local
            .rows
            .iter()
            .map(|row| {
                row.iter()
                    .map(|pu| PlacedUnit {
                        unit: group[pu.unit],
                        orient: pu.orient,
                        merged_with_next: pu.merged_with_next,
                    })
                    .collect()
            })
            .collect();
        Ok((mapped, out.stats().duration, out.is_optimal()))
    };
    let workers = jobs.get().min(partition.len().max(1));
    let solved = crate::parallel::fan_out(partition.len(), workers, |g| solve_sub(&partition[g]));
    let mut sub_layouts: Vec<Vec<Vec<PlacedUnit>>> = Vec::with_capacity(partition.len());
    let mut solve_time = Duration::ZERO;
    let mut all_optimal = true;
    for result in solved {
        let (mapped, duration, optimal) = result.expect("worker completed")?;
        sub_layouts.push(mapped);
        solve_time += duration;
        all_optimal &= optimal;
    }

    // Compose: search sub-cell orders. Small partitions exhaustively;
    // larger ones via greedy nearest-neighbour growth from every start.
    let k = sub_layouts.len();
    let mut best: Option<(usize, Placement)> = None;
    if k <= 6 {
        for order in permutations(k) {
            let (w, placement) = compose(&sub_layouts, &order, &units, &share, rows);
            if best.as_ref().is_none_or(|&(bw, _)| w < bw) {
                best = Some((w, placement));
            }
        }
    } else {
        let mut best_order: Option<Vec<usize>> = None;
        for start in 0..k {
            let order = greedy_group_order(&sub_layouts, start, &units, &share, rows);
            let (w, placement) = compose(&sub_layouts, &order, &units, &share, rows);
            if best.as_ref().is_none_or(|&(bw, _)| w < bw) {
                best = Some((w, placement));
                best_order = Some(order);
            }
        }
        // Pairwise-swap hill climbing on the best greedy order.
        if let Some(mut order) = best_order {
            let mut improved = true;
            let mut passes = 0;
            while improved && passes < 4 {
                improved = false;
                passes += 1;
                for i in 0..k {
                    for j in i + 1..k {
                        order.swap(i, j);
                        let (w, placement) = compose(&sub_layouts, &order, &units, &share, rows);
                        if best.as_ref().is_none_or(|&(bw, _)| w < bw) {
                            best = Some((w, placement));
                            improved = true;
                        } else {
                            order.swap(i, j);
                        }
                    }
                }
            }
        }
    }
    let (width, placement) = best.expect("at least one order");

    Ok(HierCell {
        placement,
        units,
        width,
        rows,
        partition,
        solve_time,
        subcells_optimal: all_optimal,
    })
}

/// Concatenates the sub-cells in `order` into composite rows.
///
/// For every sub-cell the composer chooses, greedily but jointly:
/// * a **variant** — as solved, fully mirrored, or (for single-unit
///   sub-cells) any allowed orientation;
/// * a **row offset** — a sub-cell with fewer rows than the composite may
///   sit in any contiguous band, which is what balances narrow sub-cells
///   (inverters) across the rows;
/// * boundary **merges** wherever the fixed orientations abut.
///
/// The per-step objective is the resulting maximum row width, ties broken
/// toward more merges.
fn compose(
    subs: &[Vec<Vec<PlacedUnit>>],
    order: &[usize],
    units: &UnitSet,
    share: &ShareArray,
    rows: usize,
) -> (usize, Placement) {
    let width_of = |row: &[PlacedUnit]| -> usize {
        let mut w = 0;
        for (k, pu) in row.iter().enumerate() {
            w += units.units()[pu.unit].width;
            if k > 0 && !row[k - 1].merged_with_next {
                w += 1;
            }
        }
        w
    };
    let mut out: Vec<Vec<PlacedUnit>> = vec![Vec::new(); rows];
    for &g in order {
        let original = subs[g].clone();
        let mut variants: Vec<Vec<Vec<PlacedUnit>>> = vec![original.clone()];
        if let Some(mirrored) = original
            .iter()
            .map(|row| crate::solution::mirror_row(units, row))
            .collect::<Option<Vec<_>>>()
        {
            variants.push(mirrored);
        }
        if original.len() == 1 && original[0].len() == 1 {
            let pu = original[0][0];
            for o in units.units()[pu.unit].orients() {
                if o != pu.orient {
                    variants.push(vec![vec![PlacedUnit { orient: o, ..pu }]]);
                }
            }
        }

        // Evaluate (variant, row offset) candidates.
        let mut best: Option<(usize, usize, usize, usize)> = None; // (max_w, -merges) key + (vi, offset)
        for (vi, v) in variants.iter().enumerate() {
            let rg = v.len();
            if rg > rows {
                continue;
            }
            for offset in 0..=(rows - rg) {
                let mut max_w = 0usize;
                let mut merges = 0usize;
                for r in 0..rows {
                    let mut w = width_of(&out[r]);
                    if r >= offset && r < offset + rg {
                        let row = &v[r - offset];
                        let mergeable = match (out[r].last(), row.first()) {
                            (Some(last), Some(first)) => {
                                share.shares(last.unit, last.orient, first.unit, first.orient)
                            }
                            _ => false,
                        };
                        merges += usize::from(mergeable);
                        w += width_of(row) + usize::from(!out[r].is_empty() && !mergeable);
                    }
                    max_w = max_w.max(w);
                }
                let better = match best {
                    None => true,
                    Some((bw, bm, _, _)) => (max_w, usize::MAX - merges) < (bw, usize::MAX - bm),
                };
                if better {
                    best = Some((max_w, merges, vi, offset));
                }
            }
        }
        let (_, _, vi, offset) = best.expect("some candidate fits");
        let chosen = &variants[vi];
        for (r, row) in chosen.iter().enumerate() {
            let target = &mut out[offset + r];
            if let (Some(last), Some(first)) = (target.last(), row.first()) {
                let mergeable = share.shares(last.unit, last.orient, first.unit, first.orient);
                target
                    .last_mut()
                    .expect("checked non-empty")
                    .merged_with_next = mergeable;
            }
            target.extend(row.iter().copied());
        }
    }
    out.retain(|r| !r.is_empty());
    let placement = Placement { rows: out };
    let width = placement.cell_width(units);
    (width, placement)
}

fn permutations(k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut order: Vec<usize> = (0..k).collect();
    fn rec(order: &mut Vec<usize>, i: usize, out: &mut Vec<Vec<usize>>) {
        if i == order.len() {
            out.push(order.clone());
            return;
        }
        for j in i..order.len() {
            order.swap(i, j);
            rec(order, i + 1, out);
            order.swap(i, j);
        }
    }
    rec(&mut order, 0, &mut out);
    out
}

/// Greedy order for large partitions: start from `start`, repeatedly
/// append the group whose best mirror variant merges most boundaries with
/// the growing composite (ties: the widest remaining group, to pack early).
fn greedy_group_order(
    subs: &[Vec<Vec<PlacedUnit>>],
    start: usize,
    units: &UnitSet,
    share: &ShareArray,
    rows: usize,
) -> Vec<usize> {
    let k = subs.len();
    let mut order = vec![start];
    let mut remaining: Vec<usize> = (0..k).filter(|&g| g != start).collect();
    while !remaining.is_empty() {
        // Build the composite so far to score candidates against its
        // right boundary.
        let (_, partial) = compose(subs, &order, units, share, rows);
        let right: Vec<Option<PlacedUnit>> = (0..rows)
            .map(|r| partial.rows.get(r).and_then(|row| row.last().copied()))
            .collect();
        let score = |g: usize| -> usize {
            subs[g]
                .iter()
                .enumerate()
                .filter(|(r, row)| {
                    if let (Some(Some(last)), Some(first)) = (right.get(*r), row.first()) {
                        units.units()[first.unit]
                            .orients()
                            .iter()
                            .any(|&o| share.shares(last.unit, last.orient, first.unit, o))
                    } else {
                        false
                    }
                })
                .count()
        };
        let (idx, _) = remaining
            .iter()
            .enumerate()
            .max_by_key(|&(_, &g)| (score(g), subs[g].iter().map(Vec::len).sum::<usize>()))
            .expect("remaining non-empty");
        order.push(remaining.remove(idx));
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::SynthRequest;
    use crate::verify;
    use clip_netlist::{library, Circuit};

    /// A hierarchical request for `circuit` at `rows` rows under a 30 s
    /// limit.
    fn hier_request(circuit: Circuit, rows: usize) -> SynthRequest {
        SynthRequest::new(circuit)
            .rows(rows)
            .time_limit(Duration::from_secs(30))
            .hierarchical()
    }

    /// Builds a hierarchical `request` and returns its composition.
    fn hier_of(request: SynthRequest) -> HierCell {
        request.build().unwrap().hier.unwrap()
    }

    #[test]
    fn partition_recovers_gates() {
        let units = UnitSet::flat(library::xor2().into_paired().unwrap());
        let parts = partition_by_gates(&units);
        // NOR2 (2 pairs) + AOI21 (3 pairs).
        let mut sizes: Vec<usize> = parts.iter().map(Vec::len).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![2, 3]);
        // Every unit appears exactly once.
        let mut all: Vec<usize> = parts.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..units.len()).collect::<Vec<_>>());
    }

    #[test]
    fn mux21_partition_finds_inverters_and_gate() {
        let units = UnitSet::flat(library::mux21().into_paired().unwrap());
        let parts = partition_by_gates(&units);
        let mut sizes: Vec<usize> = parts.iter().map(Vec::len).collect();
        sizes.sort_unstable();
        // 3 inverters + the 4-pair AOI gate.
        assert_eq!(sizes, vec![1, 1, 1, 4]);
    }

    #[test]
    fn hierarchical_layouts_verify() {
        for rows in [1, 2] {
            let cell = hier_of(hier_request(library::xor2(), rows));
            verify::check_width(&cell.units, &cell.placement, cell.width)
                .unwrap_or_else(|e| panic!("rows={rows}: {e}"));
            assert!(cell.subcells_optimal);
            assert!(cell.rows <= rows.max(1));
        }
    }

    #[test]
    fn hierarchical_is_no_better_than_flat_optimum() {
        // The partition restricts arrangements: width >= the flat optimum.
        let flat = SynthRequest::new(library::two_level_z())
            .rows(2)
            .build()
            .unwrap()
            .cell;
        let hier = hier_of(hier_request(library::two_level_z(), 2));
        assert!(hier.width >= flat.width);
    }

    #[test]
    fn scales_to_mux41() {
        // 21 pairs: far beyond the flat ILP's comfortable range, but each
        // gate sub-cell is tiny.
        let cell = hier_of(hier_request(library::mux41(), 2));
        verify::check_width(&cell.units, &cell.placement, cell.width).unwrap();
        assert!(cell.subcells_optimal);
        assert!(cell.width >= 11); // 21 pairs over 2 rows
        assert!(cell.solve_time < Duration::from_secs(10));
    }

    #[test]
    fn parallel_subcell_solves_match_sequential() {
        // The fan-out must be invisible in the result: solves are merged
        // in partition order, so any job count composes identically.
        let seq = hier_of(hier_request(library::mux41(), 2).jobs(NonZeroUsize::MIN));
        for jobs in [2usize, 4, 8] {
            let par =
                hier_of(hier_request(library::mux41(), 2).jobs(NonZeroUsize::new(jobs).unwrap()));
            assert_eq!(par.placement, seq.placement, "jobs={jobs}");
            assert_eq!(par.width, seq.width, "jobs={jobs}");
        }
    }

    #[test]
    fn row_clamping_handles_small_groups() {
        // Asking for more rows than the largest gate clamps gracefully.
        let cell = hier_of(hier_request(library::xor2(), 4));
        assert!(cell.rows <= 3);
        verify::check_width(&cell.units, &cell.placement, cell.width).unwrap();
    }

    #[test]
    fn stacking_composes_with_hierarchy() {
        let cell = hier_of(hier_request(library::full_adder(), 2).stacking());
        verify::check_width(&cell.units, &cell.placement, cell.width).unwrap();
        assert!(!cell.units.is_flat());
    }
}
