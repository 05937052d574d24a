//! Table and figure reproduction.
//!
//! Every public function regenerates one table or figure of the paper (see
//! DESIGN.md's experiment index) and returns it as formatted text; the
//! `experiments` binary prints them. Absolute CPU times will differ from
//! the paper's 1996 workstation, and our reconstructed netlists differ
//! slightly from the 1997 originals (documented in EXPERIMENTS.md), but
//! the *shape* — who wins, how widths fall with row count, where HCLIP
//! trades optimality for speed — is the reproduction target.

use std::fmt::Write as _;
use std::time::Duration;

use clip_baselines as baselines;
use clip_core::cliph::{ClipWH, ClipWHOptions};
use clip_core::clipw::{ClipW, ClipWOptions};
use clip_core::cluster;
use clip_core::generator::greedy_placement;
use clip_core::orient::Orient;
use clip_core::request::SynthRequest;
use clip_core::share::ShareArray;
use clip_core::unit::UnitSet;
use clip_core::{ObjectiveSpec, Placement};
use clip_layout::CellLayout;
use clip_netlist::stats::CircuitStats;
use clip_netlist::{library, NetTable};
use clip_pb::{BranchHeuristic, Budget, SearchStrategy, Solver, SolverConfig};
use clip_route::row::{PlacedRow, SlotNets};
use clip_route::span::row_spans;

use crate::suite;

/// Table 1: CLIP-W model statistics per circuit and row count.
pub fn table1(limit: Duration) -> String {
    let _ = limit;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 1 — CLIP-W model size (flat / HCLIP-stacked units)\n"
    );
    let _ = writeln!(
        out,
        "{:<12} {:>6} {:>6} {:>7} {:>6} {:>7} {:>9} {:>9} {:>9}",
        "circuit", "trans", "pairs", "units*", "rows", "share", "vars", "constrs", "vars*"
    );
    for bc in suite() {
        let circuit = (bc.build)();
        let paired = circuit.clone().into_paired().expect("suite pairs");
        let stats = CircuitStats::from_paired(&paired);
        let flat = UnitSet::flat(paired.clone());
        let stacked = cluster::cluster_and_stacks(paired);
        let share = ShareArray::new(&flat);
        let share_stacked = ShareArray::new(&stacked);
        for &rows in bc.row_counts {
            let (vars, constrs) = match ClipW::build(&flat, &share, &ClipWOptions::new(rows)) {
                Ok(m) => (m.model().num_vars(), m.model().num_constraints()),
                Err(_) => (0, 0),
            };
            let vars_stacked = if rows <= stacked.len() {
                ClipW::build(&stacked, &share_stacked, &ClipWOptions::new(rows))
                    .map(|m| m.model().num_vars())
                    .unwrap_or(0)
            } else {
                0
            };
            let _ = writeln!(
                out,
                "{:<12} {:>6} {:>6} {:>7} {:>6} {:>7} {:>9} {:>9} {:>9}",
                bc.name,
                stats.transistors,
                stats.pairs,
                stacked.len(),
                rows,
                share.len(),
                vars,
                constrs,
                vars_stacked
            );
        }
        let _ = share_stacked;
    }
    let _ = writeln!(
        out,
        "\n(units*/vars* = after HCLIP and-stack clustering; share = Fig. 2b entries)"
    );
    out
}

/// Table 2: the orientation/terminal encoding of Eq. 21.
pub fn table2() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 2 — pair orientation encoding (Eq. 21)\n");
    let _ = writeln!(
        out,
        "{:<12} {:<16} {:<16} {:<10} {:<10}",
        "orientation", "P left terminal", "N left terminal", "P flipped", "N flipped"
    );
    for o in Orient::ALL {
        let _ = writeln!(
            out,
            "{:<12} {:<16} {:<16} {:<10} {:<10}",
            o.index(),
            if o.p_flipped() { "drain" } else { "source" },
            if o.n_flipped() { "drain" } else { "source" },
            o.p_flipped(),
            o.n_flipped()
        );
    }
    out
}

/// One solved entry of Table 3.
#[derive(Clone, Debug)]
pub struct T3Entry {
    /// Circuit name.
    pub circuit: &'static str,
    /// Transistor count.
    pub transistors: usize,
    /// Row count.
    pub rows: usize,
    /// CPU seconds for the flat model.
    pub cpu_flat: f64,
    /// CPU seconds for the HCLIP (stacked) model.
    pub cpu_stacked: f64,
    /// Optimal (or best-found) width, flat model.
    pub width_flat: usize,
    /// Width with and-stacking.
    pub width_stacked: usize,
    /// Width of the greedy Virtuoso-substitute baseline.
    pub width_greedy: usize,
    /// Paper-reported width for this row count, if stated.
    pub paper: Option<usize>,
    /// True if both solves were proved optimal.
    pub proved: bool,
}

/// Solves everything behind Table 3.
pub fn table3_data(limit: Duration) -> Vec<T3Entry> {
    let mut entries = Vec::new();
    for bc in suite() {
        let circuit = (bc.build)();
        let transistors = circuit.devices().len();
        for (k, &rows) in bc.row_counts.iter().enumerate() {
            let request = SynthRequest::new(circuit.clone())
                .rows(rows)
                .time_limit(limit);
            let flat = request.clone().build();
            let stacked = request.stacking().build();
            let units = UnitSet::flat(circuit.clone().into_paired().expect("pairs"));
            let share = ShareArray::new(&units);
            let greedy = baselines::greedy2d(&units, &share, rows);
            let (Ok(flat), Ok(stacked), Some(greedy)) = (flat, stacked, greedy) else {
                continue;
            };
            let (flat, stacked) = (flat.cell, stacked.cell);
            entries.push(T3Entry {
                circuit: bc.name,
                transistors,
                rows,
                cpu_flat: flat.stats.duration.as_secs_f64(),
                cpu_stacked: stacked.stats.duration.as_secs_f64(),
                width_flat: flat.width,
                width_stacked: stacked.width,
                width_greedy: greedy.width,
                paper: bc.paper_widths[k],
                proved: flat.optimal && stacked.optimal,
            });
        }
    }
    entries
}

/// Table 3: CLIP-W optimum widths and run times, original vs and-stacked
/// circuit, against the greedy baseline (our Virtuoso substitute).
pub fn table3(limit: Duration) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 3 — CLIP-W width minimization (time limit {limit:?}; [s] = with and-stacking)\n"
    );
    let _ = writeln!(
        out,
        "{:<12} {:>6} {:>5} {:>10} {:>10} {:>7} {:>8} {:>8} {:>7} {:>7}",
        "circuit",
        "trans",
        "rows",
        "cpu(s)",
        "cpu[s](s)",
        "width",
        "width[s]",
        "greedy",
        "paper",
        "proved"
    );
    for e in table3_data(limit) {
        let _ = writeln!(
            out,
            "{:<12} {:>6} {:>5} {:>10.3} {:>10.3} {:>7} {:>8} {:>8} {:>7} {:>7}",
            e.circuit,
            e.transistors,
            e.rows,
            e.cpu_flat,
            e.cpu_stacked,
            e.width_flat,
            e.width_stacked,
            e.width_greedy,
            e.paper.map_or("-".to_string(), |w| w.to_string()),
            e.proved
        );
    }
    let _ = writeln!(
        out,
        "\n(paper = width reported in 1997 for its netlist reconstruction; see EXPERIMENTS.md)"
    );
    out
}

/// One solved entry of Table 4.
#[derive(Clone, Debug)]
pub struct T4Entry {
    /// Circuit name.
    pub circuit: &'static str,
    /// Row count.
    pub rows: usize,
    /// Optimized width.
    pub width: usize,
    /// Total routing tracks of the optimized layout.
    pub tracks: usize,
    /// Geometric height (tracks + overheads).
    pub height: usize,
    /// Time the final best solution was first found.
    pub first_opt: f64,
    /// Total solve time (proof or limit).
    pub final_opt: f64,
    /// Greedy baseline width.
    pub greedy_width: usize,
    /// Greedy baseline height.
    pub greedy_height: usize,
    /// True if proved optimal.
    pub proved: bool,
}

/// Solves everything behind Table 4 (CLIP-WH on the flat suite).
pub fn table4_data(limit: Duration) -> Vec<T4Entry> {
    let mut entries = Vec::new();
    for bc in suite() {
        let circuit = (bc.build)();
        let pairs = circuit.clone().into_paired().expect("pairs").len();
        if pairs > 8 {
            continue; // WH column model on the big cells exceeds the harness budget
        }
        for &rows in bc.row_counts.iter().take(2) {
            let cell = match SynthRequest::new(circuit.clone())
                .rows(rows)
                .objective(ObjectiveSpec::width_height())
                .time_limit(limit)
                .build()
            {
                Ok(r) => r.cell,
                Err(_) => continue,
            };
            let units = UnitSet::flat(circuit.clone().into_paired().expect("pairs"));
            let share = ShareArray::new(&units);
            let Some(greedy) = baselines::greedy2d(&units, &share, rows) else {
                continue;
            };
            entries.push(T4Entry {
                circuit: bc.name,
                rows,
                width: cell.width,
                tracks: cell.tracks.iter().sum(),
                height: cell.height,
                first_opt: cell
                    .stats
                    .first_best_time()
                    .map_or(0.0, |d| d.as_secs_f64()),
                final_opt: cell.stats.duration.as_secs_f64(),
                greedy_width: greedy.width,
                greedy_height: greedy.height,
                proved: cell.optimal,
            });
        }
    }
    entries
}

/// Table 4: CLIP-WH width+height optimization with first/final solution
/// times, against the greedy baseline.
pub fn table4(limit: Duration) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 4 — CLIP-WH width+height (lexicographic, time limit {limit:?})\n"
    );
    let _ = writeln!(
        out,
        "{:<12} {:>5} {:>6} {:>7} {:>7} {:>10} {:>10} {:>8} {:>8} {:>7}",
        "circuit",
        "rows",
        "width",
        "tracks",
        "height",
        "first(s)",
        "final(s)",
        "grdy.w",
        "grdy.h",
        "proved"
    );
    for e in table4_data(limit) {
        let _ = writeln!(
            out,
            "{:<12} {:>5} {:>6} {:>7} {:>7} {:>10.3} {:>10.3} {:>8} {:>8} {:>7}",
            e.circuit,
            e.rows,
            e.width,
            e.tracks,
            e.height,
            e.first_opt,
            e.final_opt,
            e.greedy_width,
            e.greedy_height,
            e.proved
        );
    }
    out
}

/// Fig. 1: the same circuit in the 1-D and 2-D styles.
pub fn fig1(limit: Duration) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Fig. 1 — 1-D vs 2-D layout style (mux21)\n");
    for rows in [1, 3] {
        let cell = SynthRequest::new(library::mux21())
            .rows(rows)
            .time_limit(limit)
            .build()
            .expect("mux generates")
            .cell;
        let _ = writeln!(
            out,
            "--- {} style: width {} ---\n{}",
            if rows == 1 { "1-D" } else { "2-D (3 rows)" },
            cell.width,
            CellLayout::build(&cell).render()
        );
    }
    out
}

/// Fig. 2: the multiplexer share array.
pub fn fig2() -> String {
    let units = UnitSet::flat(library::mux21().into_paired().expect("pairs"));
    let share = ShareArray::new(&units);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 2b — share[p_i, o_i, p_j, o_j] for the mux ({} entries)\n",
        share.len()
    );
    let _ = writeln!(out, "{:<6} {:<7} {:<6} {:<7}", "p_i", "o_i", "p_j", "o_j");
    for e in share.entries() {
        let _ = writeln!(
            out,
            "{:<6} {:<7} {:<6} {:<7}",
            units.units()[e.i].label,
            e.oi,
            units.units()[e.j].label,
            e.oj
        );
    }
    out
}

/// Fig. 3: the optimal 3-row multiplexer placement.
pub fn fig3(limit: Duration) -> String {
    let cell = SynthRequest::new(library::mux21())
        .rows(3)
        .time_limit(limit)
        .build()
        .expect("mux generates")
        .cell;
    format!(
        "Fig. 3 — optimal 3-row mux placement (width {})\n\n{}",
        cell.width,
        CellLayout::build(&cell).render()
    )
}

/// Fig. 4: the net-span special cases, demonstrated on a synthetic row.
pub fn fig4() -> String {
    let mut nets = NetTable::new();
    let (a, b, c, d) = (
        nets.intern("a"),
        nets.intern("b"),
        nets.intern("c"),
        nets.intern("d"),
    );
    let (g1, g2, g3, g4) = (
        nets.intern("g1"),
        nets.intern("g2"),
        nets.intern("g3"),
        nets.intern("g4"),
    );
    let (vdd, gnd) = (nets.vdd(), nets.gnd());
    // Four slots: 1 and 2 merged (net b on the shared column), a gap
    // between 2 and 3 (net c crosses it), and net d on the same N strip of
    // slots 3 and 4 across another gap. Net a wraps around slot 1 (left
    // diffusion to right diffusion, around its own gate column).
    let slots = vec![
        SlotNets {
            gate: g1,
            p_left: a,
            p_right: b,
            n_left: a,
            n_right: a,
        },
        SlotNets {
            gate: g2,
            p_left: b,
            p_right: c,
            n_left: a,
            n_right: gnd,
        },
        SlotNets {
            gate: g3,
            p_left: c,
            p_right: vdd,
            n_left: gnd,
            n_right: d,
        },
        SlotNets {
            gate: g4,
            p_left: vdd,
            p_right: vdd,
            n_left: d,
            n_right: gnd,
        },
    ];
    let row = PlacedRow::new(slots, vec![true, false, false]);
    let spans = row_spans(&row, &[vdd, gnd]);
    let mut out = String::new();
    let _ = writeln!(out, "Fig. 4 — net span rules on a synthetic row\n");
    let _ = writeln!(
        out,
        "case a (net a, wraps a pair's gate column):        {:?}",
        spans.get(&a)
    );
    let _ = writeln!(
        out,
        "case b (net b, merged columns only — no track):    {:?}",
        spans.get(&b)
    );
    let _ = writeln!(
        out,
        "case c (net c, separated by a diffusion gap):      {:?}",
        spans.get(&c)
    );
    let _ = writeln!(
        out,
        "case d (net d, same N strip across a gap, metal1): {:?}",
        spans.get(&d)
    );
    out
}

/// Fig. 5: the and-stacks HCLIP finds in the suite.
pub fn fig5() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Fig. 5 — HCLIP and-stack clustering\n");
    for bc in suite() {
        let paired = (bc.build)().into_paired().expect("pairs");
        let flat_pairs = paired.len();
        let stacks = cluster::find_stacks(&paired);
        let units = cluster::cluster_and_stacks(paired);
        let _ = write!(
            out,
            "{:<12} {:>2} pairs -> {:>2} units:",
            bc.name,
            flat_pairs,
            units.len()
        );
        if stacks.is_empty() {
            let _ = writeln!(out, " (no stacks)");
        } else {
            let descr: Vec<String> = stacks
                .iter()
                .map(|s| {
                    format!(
                        " {:?}-stack{{{}}}",
                        s.chain_kind,
                        s.members
                            .iter()
                            .map(|m| format!("{m}"))
                            .collect::<Vec<_>>()
                            .join(",")
                    )
                })
                .collect();
            let _ = writeln!(out, "{}", descr.join(" "));
        }
    }
    out
}

/// Row sweep: width and tracks against the row count, for every suite
/// circuit (the data series behind the width-vs-rows discussion).
pub fn sweep(limit: Duration) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Width / tracks vs row count (time limit {limit:?})\n");
    let _ = writeln!(
        out,
        "{:<12} {:>5} {:>7} {:>7} {:>6} {:>8}",
        "circuit", "rows", "width", "tracks", "area", "proved"
    );
    for bc in suite() {
        let circuit = (bc.build)();
        let pairs = circuit.clone().into_paired().expect("pairs").len();
        for rows in 1..=4.min(pairs) {
            let use_stacking = pairs > 8;
            let mut request = SynthRequest::new(circuit.clone())
                .rows(rows)
                .time_limit(limit);
            if use_stacking {
                request = request.stacking();
            }
            match request.build().map(|r| r.cell) {
                Ok(cell) => {
                    let tracks: usize = cell.tracks.iter().sum();
                    let _ = writeln!(
                        out,
                        "{:<12} {:>5} {:>7} {:>7} {:>6} {:>8}",
                        bc.name,
                        rows,
                        cell.width,
                        tracks,
                        cell.width * cell.height,
                        cell.optimal
                    );
                }
                Err(e) => {
                    let _ = writeln!(out, "{:<12} {:>5} {e}", bc.name, rows);
                }
            }
        }
    }
    out
}

/// Solver ablation: search strategy × branching heuristic on a reference
/// model (two_level_z, 2 rows — the paper-matching instance).
pub fn ablation(limit: Duration) -> String {
    let units = UnitSet::flat(library::two_level_z().into_paired().expect("pairs"));
    let share = ShareArray::new(&units);
    let clipw = ClipW::build(&units, &share, &ClipWOptions::new(2)).expect("model builds");
    let warm = greedy_placement(&units, &share, 2)
        .and_then(|p: Placement| clipw.warm_assignment(&units, &p));

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Solver ablation — two_level_z, 2 rows ({} vars, {} constraints)\n",
        clipw.model().num_vars(),
        clipw.model().num_constraints()
    );
    let _ = writeln!(
        out,
        "{:<10} {:<16} {:<9} {:<6} {:>10} {:>10} {:>10} {:>8}",
        "strategy", "heuristic", "brancher", "warm", "time(s)", "nodes", "conflicts", "optimal"
    );
    type AblationConfig = (
        &'static str,
        SearchStrategy,
        &'static str,
        BranchHeuristic,
        bool,
        bool,
    );
    let configs: Vec<AblationConfig> = vec![
        (
            "cbj",
            SearchStrategy::Cbj,
            "structured",
            BranchHeuristic::InputOrder,
            true,
            true,
        ),
        (
            "cbj",
            SearchStrategy::Cbj,
            "structured",
            BranchHeuristic::InputOrder,
            true,
            false,
        ),
        (
            "cbj",
            SearchStrategy::Cbj,
            "generic",
            BranchHeuristic::DynamicScore,
            false,
            false,
        ),
        (
            "cbj",
            SearchStrategy::Cbj,
            "generic",
            BranchHeuristic::MostConstrained,
            false,
            false,
        ),
        (
            "cbj",
            SearchStrategy::Cbj,
            "generic",
            BranchHeuristic::ObjectiveFirst,
            false,
            false,
        ),
        (
            "cdcl",
            SearchStrategy::Cdcl,
            "structured",
            BranchHeuristic::InputOrder,
            true,
            true,
        ),
        (
            "cdcl",
            SearchStrategy::Cdcl,
            "generic",
            BranchHeuristic::DynamicScore,
            false,
            false,
        ),
    ];
    for (sname, strategy, bname, heuristic, use_brancher, use_warm) in configs {
        let config = SolverConfig {
            strategy,
            heuristic,
            brancher: use_brancher.then(|| clipw.brancher()),
            warm_start: use_warm.then(|| warm.clone()).flatten(),
            budget: Budget::timeout(limit),
            ..Default::default()
        };
        let outcome = Solver::with_config(clipw.model(), config).run();
        let stats = outcome.stats();
        // The CDCL loop branches by variable activity; only CBJ reads
        // the configured heuristic.
        let branching = match strategy {
            SearchStrategy::Cdcl => "activity".to_owned(),
            _ => format!("{heuristic:?}"),
        };
        let _ = writeln!(
            out,
            "{:<10} {:<16} {:<9} {:<6} {:>10.3} {:>10} {:>10} {:>8}",
            sname,
            branching,
            bname,
            use_warm,
            stats.duration.as_secs_f64(),
            stats.nodes,
            stats.conflicts,
            outcome.is_optimal()
        );
    }
    out
}

/// Hierarchical generation (the paper's \[9\] extension): flat vs HCLIP vs
/// hierarchical on the larger cells.
pub fn hier(limit: Duration) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Hierarchical generation vs flat/HCLIP (rows = 2, limit {limit:?})\n"
    );
    let _ = writeln!(
        out,
        "{:<12} {:>6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "circuit", "pairs", "flat.w", "flat(s)", "hclip.w", "hclip(s)", "hier.w", "hier(s)"
    );
    type Case = (&'static str, fn() -> clip_netlist::Circuit);
    let cases: Vec<Case> = vec![
        ("xor3", library::xor3),
        ("full_adder", library::full_adder),
        ("mux41", library::mux41),
    ];
    for (name, build) in cases {
        let pairs = build().into_paired().expect("pairs").len();
        let request = || SynthRequest::new(build()).rows(2).time_limit(limit);
        let flat = (pairs <= 14)
            .then(|| request().build().ok())
            .flatten()
            .map(|r| r.cell);
        let hclip = request().stacking().build().ok().map(|r| r.cell);
        let hier = request().hierarchical().build().ok().and_then(|r| r.hier);
        let fmt_w = |w: Option<usize>| w.map_or("-".into(), |w| w.to_string());
        let fmt_t = |t: Option<f64>| t.map_or("-".into(), |t| format!("{t:.3}"));
        let _ = writeln!(
            out,
            "{:<12} {:>6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
            name,
            pairs,
            fmt_w(flat.as_ref().map(|c| c.width)),
            fmt_t(flat.as_ref().map(|c| c.stats.duration.as_secs_f64())),
            fmt_w(hclip.as_ref().map(|c| c.width)),
            fmt_t(hclip.as_ref().map(|c| c.stats.duration.as_secs_f64())),
            fmt_w(hier.as_ref().map(|c| c.width)),
            fmt_t(hier.as_ref().map(|c| c.solve_time.as_secs_f64())),
        );
    }
    let _ = writeln!(
        out,
        "\n(hier = per-gate partition, each sub-cell solved exactly, composed greedily)"
    );
    out
}

/// Transistor folding (the paper's XPRESS \[7\] extension): width of a cell
/// as each pair is folded into k fingers.
pub fn folding(limit: Duration) -> String {
    use clip_netlist::fold::fold_uniform;
    let mut out = String::new();
    let _ = writeln!(out, "Transistor folding — CLIP-W width vs fold factor\n");
    let _ = writeln!(
        out,
        "{:<10} {:>6} {:>7} {:>7} {:>7} {:>8}",
        "circuit", "fold", "pairs", "rows", "width", "proved"
    );
    for (name, build) in [
        (
            "inverter",
            library::inverter as fn() -> clip_netlist::Circuit,
        ),
        ("nand2", library::nand2),
    ] {
        for k in 1..=4usize {
            let paired = build().into_paired().expect("pairs");
            let folded = fold_uniform(&paired, k).expect("folds");
            let pairs = folded.len();
            let circuit = folded.circuit().clone();
            let cell = SynthRequest::new(circuit)
                .stacking()
                .time_limit(limit)
                .build();
            match cell.map(|r| r.cell) {
                Ok(c) => {
                    let _ = writeln!(
                        out,
                        "{:<10} {:>6} {:>7} {:>7} {:>7} {:>8}",
                        name, k, pairs, 1, c.width, c.optimal
                    );
                }
                Err(e) => {
                    let _ = writeln!(out, "{name:<10} {k:>6} {e}");
                }
            }
        }
    }
    let _ = writeln!(
        out,
        "\n(folded fingers abut fully — width grows linearly in k while device\n height shrinks; the layout model needs no change, as the paper predicts)"
    );
    out
}

/// Scaling study: CLIP-W solve time vs. circuit size on populations of
/// random complementary gates (the "computationally viable" claim,
/// quantified beyond the fixed suite).
pub fn scaling(limit: Duration) -> String {
    use clip_netlist::random::random_gate;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Scaling — CLIP-W on random gates (10 seeds per size, 2 rows, limit {limit:?})\n"
    );
    let _ = writeln!(
        out,
        "{:<7} {:>7} {:>11} {:>11} {:>8} {:>9}",
        "pairs~", "solved", "mean t(s)", "max t(s)", "mean w", "grdy. w"
    );
    for target in [2usize, 4, 6, 8, 10] {
        let mut times = Vec::new();
        let mut widths = Vec::new();
        let mut greedy_widths = Vec::new();
        let mut solved = 0;
        for seed in 0..10u64 {
            let circuit = random_gate(seed.wrapping_mul(7919) + target as u64, target);
            let pairs = circuit.clone().into_paired().map(|p| p.len()).unwrap_or(0);
            let rows = 2usize.min(pairs.max(1));
            let Ok(cell) = SynthRequest::new(circuit.clone())
                .rows(rows)
                .time_limit(limit)
                .build()
                .map(|r| r.cell)
            else {
                continue;
            };
            if cell.optimal {
                solved += 1;
            }
            times.push(cell.stats.duration.as_secs_f64());
            widths.push(cell.width as f64);
            let units = UnitSet::flat(circuit.into_paired().expect("pairs"));
            let share = ShareArray::new(&units);
            if let Some(g) = baselines::greedy2d(&units, &share, rows) {
                greedy_widths.push(g.width as f64);
            }
        }
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        let max = times.iter().copied().fold(0.0f64, f64::max);
        let _ = writeln!(
            out,
            "{:<7} {:>7} {:>11.4} {:>11.4} {:>8.2} {:>9.2}",
            target,
            format!("{solved}/10"),
            mean(&times),
            max,
            mean(&widths),
            mean(&greedy_widths)
        );
    }
    out
}

/// CLIP-WH encoding sanity sweep: the ILP's intra-row track counts must
/// match the geometric density on every optimally solved small cell.
pub fn wh_verification(limit: Duration) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "CLIP-WH model-vs-geometry verification\n");
    let _ = writeln!(
        out,
        "{:<12} {:>5} {:>9} {:>9} {:>7}",
        "circuit", "rows", "ILP trk", "geo trk", "agree"
    );
    for name in ["nand2", "nor3", "aoi22", "xor2"] {
        let circuit = match name {
            "nand2" => library::nand2(),
            "nor3" => library::nor3(),
            "aoi22" => library::aoi22(),
            _ => library::xor2(),
        };
        let units = UnitSet::flat(circuit.into_paired().expect("pairs"));
        let share = ShareArray::new(&units);
        let wh = match ClipWH::build(&units, &share, &ClipWHOptions::new(1)) {
            Ok(m) => m,
            Err(_) => continue,
        };
        let outcome = Solver::with_config(
            wh.model(),
            SolverConfig {
                brancher: Some(wh.brancher()),
                heuristic: BranchHeuristic::InputOrder,
                budget: Budget::timeout(limit),
                ..Default::default()
            },
        )
        .run();
        let Some(sol) = outcome.best() else { continue };
        let placement = wh.extract(sol);
        let routing = placement.routing(&units);
        let ilp: usize = wh.intra_tracks_of(sol).iter().sum();
        let geo = routing.intra_tracks(0);
        let _ = writeln!(
            out,
            "{:<12} {:>5} {:>9} {:>9} {:>7}",
            name,
            1,
            ilp,
            geo,
            ilp == geo && outcome.is_optimal()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUICK: Duration = Duration::from_secs(5);

    #[test]
    fn table2_is_static() {
        let t = table2();
        assert!(t.contains("source"));
        assert_eq!(t.lines().count(), 7);
    }

    #[test]
    fn fig2_reproduces_share_entries() {
        let f = fig2();
        assert!(f.contains("share[p_i, o_i, p_j, o_j]"));
        assert!(f.matches('\n').count() > 5);
    }

    #[test]
    fn fig4_demonstrates_all_cases() {
        let f = fig4();
        // Case b must be span-free; the others must span.
        assert!(f.contains("case b") && f.contains("None"));
        let spans = f.matches("Some").count();
        assert_eq!(spans, 3, "{f}");
    }

    #[test]
    fn fig5_lists_stacks() {
        let f = fig5();
        assert!(f.contains("full_adder"));
        assert!(f.contains("stack{"));
    }

    #[test]
    fn table1_covers_the_suite() {
        let t = table1(QUICK);
        for bc in suite() {
            assert!(t.contains(bc.name), "{}", bc.name);
        }
    }
}
