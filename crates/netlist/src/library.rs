//! Benchmark circuit library.
//!
//! These are reconstructions of the circuits used in the CLIP paper's
//! evaluation (Tables 3 and 4), pinned to the transistor counts stated
//! there, plus a set of standard cells used by the wider test/bench suite:
//!
//! | constructor | transistors | role in the paper |
//! |---|---|---|
//! | [`xor2`] | 10 | Table 3 circuit 1 — 2-input parity from SOLO \[1\] |
//! | [`bridge`] | 12 | Table 3 circuit 2 — non-series-parallel bridge \[24\] |
//! | [`two_level_z`] | 12 | Table 3 circuit 3 — `z = (a'·(e+f)'+d)'`, 2-level |
//! | [`mux21`] | 14 | Table 3 circuit 4 / Fig. 2 — 2-to-1 multiplexer |
//! | [`dlatch`] | 12 | Table 3/4 larger cells — level-sensitive D latch |
//! | [`full_adder`] | 28 | Table 3/4 larger cells — mirror adder |
//! | [`xor3`] | 20 | Table 3/4 larger cells — 3-input parity |
//! | [`mux41`] | 42 | HCLIP-scale cell (tree of three muxes) |
//!
//! Everything is functionally verified by exhaustive switch-level
//! simulation in this module's tests.

use crate::circuit::Circuit;
use crate::device::DeviceKind;
use crate::expr::Expr;

/// A plain inverter (2 transistors).
pub fn inverter() -> Circuit {
    gate("inv", "(a)'")
}

/// 2-input NAND (4 transistors).
pub fn nand2() -> Circuit {
    gate("nand2", "(a&b)'")
}

/// 3-input NAND (6 transistors).
pub fn nand3() -> Circuit {
    gate("nand3", "(a&b&c)'")
}

/// 4-input NAND (8 transistors) — a textbook and-stack for HCLIP.
pub fn nand4() -> Circuit {
    gate("nand4", "(a&b&c&d)'")
}

/// 2-input NOR (4 transistors).
pub fn nor2() -> Circuit {
    gate("nor2", "(a|b)'")
}

/// 3-input NOR (6 transistors).
pub fn nor3() -> Circuit {
    gate("nor3", "(a|b|c)'")
}

/// 4-input NOR (8 transistors).
pub fn nor4() -> Circuit {
    gate("nor4", "(a|b|c|d)'")
}

/// AND-OR-INVERT 2-1 (6 transistors).
pub fn aoi21() -> Circuit {
    gate("aoi21", "(a&b|c)'")
}

/// AND-OR-INVERT 2-2 (8 transistors).
pub fn aoi22() -> Circuit {
    gate("aoi22", "(a&b|c&d)'")
}

/// AND-OR-INVERT 2-2-2 (12 transistors).
pub fn aoi222() -> Circuit {
    gate("aoi222", "(a&b|c&d|e&f)'")
}

/// OR-AND-INVERT 2-2 (8 transistors).
pub fn oai22() -> Circuit {
    gate("oai22", "((a|b)&(c|d))'")
}

/// OR-AND-INVERT 2-1 (6 transistors).
pub fn oai21() -> Circuit {
    gate("oai21", "((a|b)&c)'")
}

/// Non-inverting buffer: two cascaded inverters (4 transistors).
pub fn buffer() -> Circuit {
    gate("buffer", "a''")
}

/// 2-input AND: NAND + inverter (6 transistors).
pub fn and2() -> Circuit {
    gate("and2", "a&b")
}

/// 2-input OR: NOR + inverter (6 transistors).
pub fn or2() -> Circuit {
    gate("or2", "a|b")
}

/// 3-input AND: NAND3 + inverter (8 transistors).
pub fn and3() -> Circuit {
    gate("and3", "a&b&c")
}

/// 3-input OR: NOR3 + inverter (8 transistors).
pub fn or3() -> Circuit {
    gate("or3", "a|b|c")
}

/// NAND with one inverted input: `(a'&b)'` (6 transistors).
pub fn nand2b() -> Circuit {
    gate("nand2b", "(a'&b)'")
}

/// 3-input majority: the mirror-adder carry structure plus an output
/// inverter (12 transistors).
pub fn majority3() -> Circuit {
    gate("majority3", "(a&b|c&(a|b))''")
}

/// AND-OR 2-1: `a&b|c` as AOI21 + inverter (8 transistors).
pub fn ao21() -> Circuit {
    gate("ao21", "a&b|c")
}

/// 2-input XNOR: complement parity, NAND + OAI21 structure (10
/// transistors, the dual composition of [`xor2`]).
pub fn xnor2() -> Circuit {
    let mut c = gate("xnor2", "(a&b)'");
    rename_output(&mut c, "x");
    let oai = Expr::parse("(x&(a|b))'")
        .expect("static formula parses")
        .compile("stage2", "z")
        .expect("static formula compiles");
    c.absorb(&oai);
    set_name(&mut c, "xnor2");
    c.prune_derived_inputs();
    c
}

/// A half adder: `sum = a ⊕ b` ([`xor2`]) and `carry = a·b`
/// (NAND + inverter) — 16 transistors.
pub fn half_adder() -> Circuit {
    let mut c = xor2();
    rename_output(&mut c, "sum");
    let nand = Expr::parse("(a&b)'")
        .expect("static formula parses")
        .compile("ha_nand", "cb")
        .expect("static formula compiles");
    c.absorb(&nand);
    let inv = inverter_between("cb", "carry");
    c.absorb(&inv);
    set_name(&mut c, "half_adder");
    c.prune_derived_inputs();
    c
}

/// Table 3 circuit 1: the 2-input parity (XOR) cell from SOLO \[1\]:
/// `x = (a+b)'` (NOR2) feeding `z = (x + a·b)'` (AOI21) — 10 transistors,
/// 5 P/N pairs, and `z = a ⊕ b`.
pub fn xor2() -> Circuit {
    let mut c = gate("xor2", "(a|b)'");
    rename_output(&mut c, "x");
    let aoi = Expr::parse("(x|a&b)'")
        .expect("static formula parses")
        .compile("stage2", "z")
        .expect("static formula compiles");
    c.absorb(&aoi);
    set_name(&mut c, "xor2");
    c.prune_derived_inputs();
    c
}

/// Table 3 circuit 2: the non-series-parallel bridge circuit of Zhang &
/// Asada \[24\]: a 5-transistor Wheatstone-bridge pull-down
/// (`f = a·c + b·d + a·e·d + b·e·c`), its dual-graph bridge pull-up, and an
/// output inverter — 12 transistors, 6 pairs.
pub fn bridge() -> Circuit {
    let mut b = Circuit::builder("bridge");
    let (a, bb, c, d, e) = (b.net("a"), b.net("b"), b.net("c"), b.net("d"), b.net("e"));
    let z = b.net("z"); // z = f' (the complex gate is inverting)
    let zb = b.net("zb"); // buffered complement, zb = f
    let (vdd, gnd) = (b.vdd(), b.gnd());

    // N bridge between z and GND: conduction = a·c + b·d + a·e·d + b·e·c.
    let n1 = b.net("n1");
    let n2 = b.net("n2");
    b.device(DeviceKind::N, a, z, n1);
    b.device(DeviceKind::N, bb, z, n2);
    b.device(DeviceKind::N, e, n1, n2);
    b.device(DeviceKind::N, c, n1, gnd);
    b.device(DeviceKind::N, d, n2, gnd);

    // P dual bridge between VDD and z: dual edges (a,c swap arms with b,d):
    // VDD–m1 (a), VDD–m2 (c), m1–m2 (e), m1–z (b), m2–z (d), so that
    // conduction = a·b + c·d + a·e·d + c·e·b = dual(f).
    let m1 = b.net("m1");
    let m2 = b.net("m2");
    b.device(DeviceKind::P, a, vdd, m1);
    b.device(DeviceKind::P, c, vdd, m2);
    b.device(DeviceKind::P, e, m1, m2);
    b.device(DeviceKind::P, bb, m1, z);
    b.device(DeviceKind::P, d, m2, z);

    // Output inverter.
    b.device(DeviceKind::P, z, vdd, zb);
    b.device(DeviceKind::N, z, gnd, zb);

    b.input(a).input(bb).input(c).input(d).input(e);
    b.output(z).output(zb);
    b.build()
}

/// Table 3 circuit 3: the two-level implementation of
/// `z = (a'·(e+f)' + d)'` — inverter + NOR2 + AOI21, 12 transistors.
pub fn two_level_z() -> Circuit {
    gate("two_level_z", "(a'&(e|f)'|d)'")
}

/// Table 3 circuit 4 / Fig. 2: a 2-to-1 multiplexer with buffered inputs —
/// three inverters plus the AOI gate `z = (s·a' + s'·b')'`, which realizes
/// `z = s·a + s'·b`. 14 transistors, the paper's seven P/N pairs p1..p7.
pub fn mux21() -> Circuit {
    gate("mux21", "(s&a'|s'&b')'")
}

/// A level-sensitive D latch: `q = (g·d + g'·q)` built as complex gate +
/// two inverters (12 transistors). Transparent when `g = 1`.
pub fn dlatch() -> Circuit {
    let mut b = Circuit::builder("dlatch");
    let g = b.net("g");
    let d = b.net("d");
    let gb = b.net("g'");
    let q = b.net("q");
    let qb = b.net("qb");
    let (vdd, gnd) = (b.vdd(), b.gnd());

    // inverter: gb = g'
    b.device(DeviceKind::P, g, vdd, gb);
    b.device(DeviceKind::N, g, gnd, gb);

    // complex gate: qb = (g·d + g'·q)'
    // N network: series(g,d) || series(gb,q) between qb and GND.
    let x1 = b.net("x1");
    let x2 = b.net("x2");
    b.device(DeviceKind::N, g, qb, x1);
    b.device(DeviceKind::N, d, x1, gnd);
    b.device(DeviceKind::N, gb, qb, x2);
    b.device(DeviceKind::N, q, x2, gnd);
    // P network (dual): parallel(g,d) in series with parallel(gb,q).
    let y1 = b.net("y1");
    b.device(DeviceKind::P, g, vdd, y1);
    b.device(DeviceKind::P, d, vdd, y1);
    b.device(DeviceKind::P, gb, y1, qb);
    b.device(DeviceKind::P, q, y1, qb);

    // output inverter: q = qb'
    b.device(DeviceKind::P, qb, vdd, q);
    b.device(DeviceKind::N, qb, gnd, q);

    b.input(g).input(d);
    b.output(q);
    b.build()
}

/// The classic 28-transistor static CMOS mirror full adder:
/// `cout' = (a·b + c·(a+b))'`, `sum' = (a·b·c + cout'·(a+b+c))'`, plus
/// output inverters for `cout` and `sum`.
pub fn full_adder() -> Circuit {
    let mut c = Expr::parse("(a&b|c&(a|b))'")
        .expect("static formula parses")
        .compile("fa_cout", "coutb")
        .expect("static formula compiles");
    let sum_stage = Expr::parse("(a&b&c|coutb&(a|b|c))'")
        .expect("static formula parses")
        .compile("fa_sum", "sumb")
        .expect("static formula compiles");
    c.absorb(&sum_stage);
    let inv_cout = inverter_between("coutb", "cout");
    c.absorb(&inv_cout);
    let inv_sum = inverter_between("sumb", "sum");
    c.absorb(&inv_sum);
    set_name(&mut c, "full_adder");
    c.prune_derived_inputs();
    c
}

/// 3-input parity: two cascaded [`xor2`] stages, 20 transistors.
pub fn xor3() -> Circuit {
    let mut first = xor2(); // z = a ^ b
    rename_output(&mut first, "t");
    // Second stage: parity of t and c, same NOR + AOI21 structure.
    let nor = Expr::parse("(t|c)'")
        .expect("static formula parses")
        .compile("s2nor", "x2")
        .expect("static formula compiles");
    let aoi = Expr::parse("(x2|t&c)'")
        .expect("static formula parses")
        .compile("s2aoi", "z")
        .expect("static formula compiles");
    first.absorb(&nor);
    first.absorb(&aoi);
    set_name(&mut first, "xor3");
    first.prune_derived_inputs();
    first
}

/// 4-to-1 multiplexer as a tree of three [`mux21`]s — 42 transistors, the
/// HCLIP-scale benchmark ("over 30 transistors").
pub fn mux41() -> Circuit {
    // Internal complemented-signal nets (`a'`, `s'`, ...) must be renamed in
    // lockstep with their inputs so that absorbing the three muxes does not
    // accidentally unify unrelated inverter outputs.
    let mut m0 = mux21(); // z = s·a + s'·b
    rename_inputs(&mut m0, &[("s", "s0"), ("s'", "s0'")]);
    rename_output(&mut m0, "t0");

    let mut m1 = mux21();
    rename_inputs(
        &mut m1,
        &[
            ("s", "s0"),
            ("s'", "s0'"),
            ("a", "c"),
            ("a'", "c'"),
            ("b", "d"),
            ("b'", "d'"),
        ],
    );
    rename_output(&mut m1, "t1");

    let mut m2 = mux21();
    rename_inputs(
        &mut m2,
        &[
            ("s", "s1"),
            ("s'", "s1'"),
            ("a", "t0"),
            ("a'", "t0'"),
            ("b", "t1"),
            ("b'", "t1'"),
        ],
    );
    rename_output(&mut m2, "z");

    m0.absorb(&m1);
    m0.absorb(&m2);
    set_name(&mut m0, "mux41");
    m0.prune_derived_inputs();
    m0
}

/// A built-in cell: its name and its constructor.
type Cell = (&'static str, fn() -> Circuit);

/// Every built-in cell: the paper's evaluation cells in Table 3 order,
/// then the extended standard cells. Each name is the name of the circuit
/// its constructor builds.
const CELLS: [Cell; 30] = [
    ("xor2", xor2),
    ("bridge", bridge),
    ("two_level_z", two_level_z),
    ("mux21", mux21),
    ("dlatch", dlatch),
    ("aoi222", aoi222),
    ("xor3", xor3),
    ("full_adder", full_adder),
    ("inv", inverter),
    ("nand2", nand2),
    ("nand3", nand3),
    ("nand4", nand4),
    ("nor2", nor2),
    ("nor3", nor3),
    ("nor4", nor4),
    ("aoi21", aoi21),
    ("aoi22", aoi22),
    ("oai21", oai21),
    ("oai22", oai22),
    ("xnor2", xnor2),
    ("half_adder", half_adder),
    ("mux41", mux41),
    ("buffer", buffer),
    ("and2", and2),
    ("or2", or2),
    ("and3", and3),
    ("or3", or3),
    ("nand2b", nand2b),
    ("majority3", majority3),
    ("ao21", ao21),
];

/// How many of [`CELLS`] belong to [`evaluation_suite`].
const EVALUATION_CELLS: usize = 8;

/// All benchmark circuits used by the paper-style evaluation, in Table 3
/// order, followed by the larger cells.
pub fn evaluation_suite() -> Vec<Circuit> {
    CELLS[..EVALUATION_CELLS]
        .iter()
        .map(|(_, build)| build())
        .collect()
}

/// Additional standard cells beyond the paper's evaluation set.
pub fn extended_suite() -> Vec<Circuit> {
    CELLS[EVALUATION_CELLS..]
        .iter()
        .map(|(_, build)| build())
        .collect()
}

/// Builds the built-in cell named `name` (as [`Circuit::name`] reports
/// it), or `None` for an unknown name. Only that one circuit is built.
pub fn by_name(name: &str) -> Option<Circuit> {
    CELLS
        .iter()
        .find(|&&(cell, _)| cell == name)
        .map(|(_, build)| build())
}

fn gate(name: &str, formula: &str) -> Circuit {
    Expr::parse(formula)
        .expect("static formula parses")
        .compile(name, "z")
        .expect("static formula compiles")
}

fn inverter_between(input: &str, output: &str) -> Circuit {
    let mut b = Circuit::builder("inv");
    let i = b.net(input);
    let o = b.net(output);
    let (vdd, gnd) = (b.vdd(), b.gnd());
    b.device(DeviceKind::P, i, vdd, o);
    b.device(DeviceKind::N, i, gnd, o);
    b.input(i).output(o);
    b.build()
}

fn set_name(c: &mut Circuit, name: &str) {
    c.set_name(name);
}

fn rename_output(c: &mut Circuit, new_name: &str) {
    c.rename_net("z", new_name);
}

fn rename_inputs(c: &mut Circuit, renames: &[(&str, &str)]) {
    for &(old, new) in renames {
        c.rename_net(old, new);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::check_truth_table;

    fn bit(bits: u32, i: usize) -> bool {
        bits & (1 << i) != 0
    }

    fn verify(c: &Circuit, inputs: &[&str], output: &str, f: &dyn Fn(u32) -> bool) {
        let nets = c.nets();
        let ids: Vec<_> = inputs
            .iter()
            .map(|n| nets.lookup(n).unwrap_or_else(|| panic!("missing net {n}")))
            .collect();
        let out = nets.lookup(output).unwrap();
        check_truth_table(c, &ids, out, f).unwrap_or_else(|(bits, got, want)| {
            panic!(
                "{}: wrong value at assignment {bits:b}: got {got}, want {want}",
                c.name()
            )
        });
    }

    #[test]
    fn xor2_is_parity_of_two() {
        let c = xor2();
        assert_eq!(c.devices().len(), 10);
        verify(&c, &["a", "b"], "z", &|bits| bit(bits, 0) ^ bit(bits, 1));
    }

    #[test]
    fn bridge_computes_complemented_bridge_function() {
        let c = bridge();
        assert_eq!(c.devices().len(), 12);
        verify(&c, &["a", "b", "c", "d", "e"], "z", &|bits| {
            let (a, b, cc, d, e) = (
                bit(bits, 0),
                bit(bits, 1),
                bit(bits, 2),
                bit(bits, 3),
                bit(bits, 4),
            );
            !(a && cc || b && d || a && e && d || b && e && cc)
        });
    }

    #[test]
    #[allow(clippy::nonminimal_bool)] // formula mirrors the paper's z=(a'(e+f)'+d)'
    fn two_level_z_matches_formula() {
        let c = two_level_z();
        assert_eq!(c.devices().len(), 12);
        verify(&c, &["a", "e", "f", "d"], "z", &|bits| {
            let (a, e, f, d) = (bit(bits, 0), bit(bits, 1), bit(bits, 2), bit(bits, 3));
            !((!a) && !(e || f) || d)
        });
    }

    #[test]
    fn mux21_selects() {
        let c = mux21();
        assert_eq!(c.devices().len(), 14);
        assert_eq!(c.clone().into_paired().unwrap().len(), 7);
        verify(&c, &["s", "a", "b"], "z", &|bits| {
            if bit(bits, 0) {
                bit(bits, 1)
            } else {
                bit(bits, 2)
            }
        });
    }

    #[test]
    fn dlatch_is_transparent_when_enabled() {
        let c = dlatch();
        assert_eq!(c.devices().len(), 12);
        let nets = c.nets();
        let g = nets.lookup("g").unwrap();
        let d = nets.lookup("d").unwrap();
        let q = nets.lookup("q").unwrap();
        for dv in [false, true] {
            let vals = crate::sim::simulate(&c, &[(g, true), (d, dv)]).unwrap();
            assert_eq!(vals[&q], dv);
        }
    }

    #[test]
    fn full_adder_adds() {
        let c = full_adder();
        assert_eq!(c.devices().len(), 28);
        verify(&c, &["a", "b", "c"], "sum", &|bits| {
            (bit(bits, 0) as u32 + bit(bits, 1) as u32 + bit(bits, 2) as u32) % 2 == 1
        });
        verify(&c, &["a", "b", "c"], "cout", &|bits| {
            (bit(bits, 0) as u32 + bit(bits, 1) as u32 + bit(bits, 2) as u32) >= 2
        });
    }

    #[test]
    fn xor3_is_parity_of_three() {
        let c = xor3();
        assert_eq!(c.devices().len(), 20);
        verify(&c, &["a", "b", "c"], "z", &|bits| {
            bit(bits, 0) ^ bit(bits, 1) ^ bit(bits, 2)
        });
    }

    #[test]
    fn mux41_selects_among_four() {
        let c = mux41();
        assert_eq!(c.devices().len(), 42);
        verify(&c, &["s0", "s1", "a", "b", "c", "d"], "z", &|bits| {
            let sel = (bit(bits, 1) as usize) * 2 + (bit(bits, 0) as usize);
            // s1 picks between (t0 = s0?a:b) and (t1 = s0?c:d).
            match sel {
                0b00 => bit(bits, 5), // s1=0,s0=0 -> t1? No: s1=0 -> z=t1=d
                0b01 => bit(bits, 4), // s1=0,s0=1 -> t1=c
                0b10 => bit(bits, 3), // s1=1,s0=0 -> t0=b
                _ => bit(bits, 2),    // s1=1,s0=1 -> t0=a
            }
        });
    }

    #[test]
    fn simple_gates_have_expected_sizes() {
        for (c, n) in [
            (inverter(), 2),
            (nand2(), 4),
            (nand3(), 6),
            (nand4(), 8),
            (nor2(), 4),
            (nor3(), 6),
            (nor4(), 8),
            (aoi21(), 6),
            (aoi22(), 8),
            (aoi222(), 12),
            (oai22(), 8),
        ] {
            assert_eq!(c.devices().len(), n, "{}", c.name());
            assert!(c.validate().is_ok(), "{}", c.name());
        }
    }

    #[test]
    fn nand_gates_compute_nand() {
        verify(&nand2(), &["a", "b"], "z", &|bits| {
            !(bit(bits, 0) && bit(bits, 1))
        });
        verify(&nand4(), &["a", "b", "c", "d"], "z", &|bits| {
            !(bit(bits, 0) && bit(bits, 1) && bit(bits, 2) && bit(bits, 3))
        });
        verify(&nor4(), &["a", "b", "c", "d"], "z", &|bits| {
            !(bit(bits, 0) || bit(bits, 1) || bit(bits, 2) || bit(bits, 3))
        });
        verify(&aoi22(), &["a", "b", "c", "d"], "z", &|bits| {
            !(bit(bits, 0) && bit(bits, 1) || bit(bits, 2) && bit(bits, 3))
        });
        verify(&oai22(), &["a", "b", "c", "d"], "z", &|bits| {
            !((bit(bits, 0) || bit(bits, 1)) && (bit(bits, 2) || bit(bits, 3)))
        });
    }

    #[test]
    fn xnor2_is_complement_parity() {
        let c = xnor2();
        assert_eq!(c.devices().len(), 10);
        verify(&c, &["a", "b"], "z", &|bits| !(bit(bits, 0) ^ bit(bits, 1)));
    }

    #[test]
    fn half_adder_adds_two_bits() {
        let c = half_adder();
        assert_eq!(c.devices().len(), 16);
        verify(&c, &["a", "b"], "sum", &|bits| bit(bits, 0) ^ bit(bits, 1));
        verify(&c, &["a", "b"], "carry", &|bits| {
            bit(bits, 0) && bit(bits, 1)
        });
    }

    #[test]
    fn oai21_computes_its_formula() {
        verify(&oai21(), &["a", "b", "c"], "z", &|bits| {
            !((bit(bits, 0) || bit(bits, 1)) && bit(bits, 2))
        });
    }

    #[test]
    #[allow(clippy::nonminimal_bool)] // gate formulas written in their canonical literal form
    fn composite_gates_compute_their_functions() {
        verify(&buffer(), &["a"], "z", &|bits| bit(bits, 0));
        verify(&and2(), &["a", "b"], "z", &|bits| {
            bit(bits, 0) && bit(bits, 1)
        });
        verify(&or2(), &["a", "b"], "z", &|bits| {
            bit(bits, 0) || bit(bits, 1)
        });
        verify(&and3(), &["a", "b", "c"], "z", &|bits| {
            bit(bits, 0) && bit(bits, 1) && bit(bits, 2)
        });
        verify(&or3(), &["a", "b", "c"], "z", &|bits| {
            bit(bits, 0) || bit(bits, 1) || bit(bits, 2)
        });
        verify(&nand2b(), &["a", "b"], "z", &|bits| {
            !(!bit(bits, 0) && bit(bits, 1))
        });
        verify(&ao21(), &["a", "b", "c"], "z", &|bits| {
            bit(bits, 0) && bit(bits, 1) || bit(bits, 2)
        });
        verify(&majority3(), &["a", "b", "c"], "z", &|bits| {
            (bit(bits, 0) as u8 + bit(bits, 1) as u8 + bit(bits, 2) as u8) >= 2
        });
    }

    #[test]
    fn composite_gate_sizes() {
        for (c, n) in [
            (buffer(), 4),
            (and2(), 6),
            (or2(), 6),
            (and3(), 8),
            (or3(), 8),
            (nand2b(), 6),
            (ao21(), 8),
            (majority3(), 12),
        ] {
            assert_eq!(c.devices().len(), n, "{}", c.name());
        }
    }

    #[test]
    fn extended_suite_is_valid_and_pairs() {
        for c in extended_suite() {
            let name = c.name().to_owned();
            assert!(c.validate().is_ok(), "{name}");
            let paired = c.into_paired().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(paired.len() * 2, paired.circuit().devices().len(), "{name}");
        }
    }

    #[test]
    fn by_name_builds_every_cell_of_both_suites() {
        let suites: Vec<Circuit> = evaluation_suite()
            .into_iter()
            .chain(extended_suite())
            .collect();
        assert_eq!(suites.len(), CELLS.len());
        for (circuit, &(name, _)) in suites.iter().zip(&CELLS) {
            assert_eq!(circuit.name(), name);
            let built = by_name(name).unwrap_or_else(|| panic!("{name} not found"));
            assert_eq!(built.name(), name);
            assert_eq!(crate::spice::write(&built), crate::spice::write(circuit));
        }
        assert!(by_name("nandzilla").is_none());
        assert!(by_name("").is_none());
    }

    #[test]
    fn every_suite_member_pairs_completely() {
        for c in evaluation_suite() {
            let name = c.name().to_owned();
            let paired = c.into_paired().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(paired.len() * 2, paired.circuit().devices().len());
        }
    }
}
