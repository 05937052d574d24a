//! The diffusion-sharing `share` array (the paper's Fig. 2b).
//!
//! `share[p_i, o_i, p_j, o_j] = 1` iff placing pair `p_j` immediately to
//! the right of pair `p_i`, with the given orientations, lets the two pairs
//! abut — which requires the facing diffusion nets to match on **both** the
//! P and the N strip (the pairs occupy both strips of the row; a
//! single-strip match would short the other strip).

use crate::orient::Orient;
use crate::unit::{Unit, UnitId, UnitSet};

/// One abutment entry: `j` in orientation `oj` may sit immediately right
/// of `i` in orientation `oi`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShareEntry {
    /// Left unit.
    pub i: UnitId,
    /// Left unit's orientation.
    pub oi: Orient,
    /// Right unit.
    pub j: UnitId,
    /// Right unit's orientation.
    pub oj: Orient,
}

/// Compatible orientation combinations for one ordered unit pair, grouped
/// by the left unit's orientation.
pub type OrientGroups = Vec<(Orient, Vec<Orient>)>;

/// The precomputed abutment relation over a unit set, stored once as a
/// dense `n × n` table: entry `(i, j)` is a 16-bit mask whose bit
/// `4·(oi − 1) + (oj − 1)` is set iff `(i, oi, j, oj)` abuts. Only a
/// unit's allowed orientations ever get a bit, and the diagonal is zero
/// (a unit never sits beside itself).
#[derive(Clone, Debug)]
pub struct ShareArray {
    n: usize,
    masks: Vec<u16>,
}

/// The mask bit of one orientation combination.
pub(crate) fn bit(oi: Orient, oj: Orient) -> u16 {
    1 << ((oi.index() - 1) * 4 + (oj.index() - 1))
}

impl ShareArray {
    /// Computes the abutment relation for every ordered unit pair and
    /// orientation combination.
    pub fn new(units: &UnitSet) -> Self {
        let n = units.len();
        let mut masks = vec![0u16; n * n];
        for (i, ui) in units.units().iter().enumerate() {
            for (j, uj) in units.units().iter().enumerate() {
                if i == j {
                    continue;
                }
                for oi in ui.orients() {
                    for oj in uj.orients() {
                        if abuts(ui, oi, uj, oj) {
                            masks[i * n + j] |= bit(oi, oj);
                        }
                    }
                }
            }
        }
        ShareArray { n, masks }
    }

    /// The orientation-combination mask of ordered pair `(i, j)`; zero
    /// for out-of-range ids.
    pub(crate) fn mask(&self, i: UnitId, j: UnitId) -> u16 {
        if i < self.n && j < self.n {
            self.masks[i * self.n + j]
        } else {
            0
        }
    }

    /// All abutment entries (the rows of Fig. 2b), ordered by `i`, `j`,
    /// `oi`, `oj`.
    pub fn entries(&self) -> Vec<ShareEntry> {
        let mut entries = Vec::with_capacity(self.len());
        for i in 0..self.n {
            for j in 0..self.n {
                for oi in Orient::ALL {
                    for oj in Orient::ALL {
                        if self.shares(i, oi, j, oj) {
                            entries.push(ShareEntry { i, oi, j, oj });
                        }
                    }
                }
            }
        }
        entries
    }

    /// True if `(i, oi, j, oj)` is a legal abutment.
    pub fn shares(&self, i: UnitId, oi: Orient, j: UnitId, oj: Orient) -> bool {
        self.mask(i, j) & bit(oi, oj) != 0
    }

    /// True if ordered pair `(i, j)` abuts under some orientation
    /// combination — the pairs for which a `merged` variable exists.
    pub(crate) fn mergeable(&self, i: UnitId, j: UnitId) -> bool {
        self.mask(i, j) != 0
    }

    /// The compatible orientation groups for ordered pair `(i, j)`:
    /// for each left orientation, the right orientations that abut, both
    /// in paper order. `None` when the pair never abuts.
    pub fn groups(&self, i: UnitId, j: UnitId) -> Option<OrientGroups> {
        if !self.mergeable(i, j) {
            return None;
        }
        let groups: OrientGroups = Orient::ALL
            .into_iter()
            .filter_map(|oi| {
                let compatible: Vec<Orient> = Orient::ALL
                    .into_iter()
                    .filter(|&oj| self.shares(i, oi, j, oj))
                    .collect();
                (!compatible.is_empty()).then_some((oi, compatible))
            })
            .collect();
        Some(groups)
    }

    /// Ordered unit pairs with at least one compatible combination — the
    /// pairs for which a `merged` variable exists — in ascending order.
    pub fn mergeable_pairs(&self) -> Vec<(UnitId, UnitId)> {
        (0..self.n)
            .flat_map(|i| (0..self.n).map(move |j| (i, j)))
            .filter(|&(i, j)| self.mergeable(i, j))
            .collect()
    }

    /// Number of entries (reported in the model statistics table).
    pub fn len(&self) -> usize {
        self.masks.iter().map(|m| m.count_ones() as usize).sum()
    }

    /// True if no abutment is possible anywhere.
    pub fn is_empty(&self) -> bool {
        self.masks.iter().all(|&m| m == 0)
    }
}

/// Both strips must match across the boundary.
fn abuts(ui: &Unit, oi: Orient, uj: &Unit, oj: Orient) -> bool {
    let (_, p_right, _, n_right) = ui.terminals(oi);
    let (p_left, _, n_left, _) = uj.terminals(oj);
    p_right == p_left && n_right == n_left
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit::UnitSet;
    use clip_netlist::library;

    fn mux_share() -> (UnitSet, ShareArray) {
        let units = UnitSet::flat(library::mux21().into_paired().unwrap());
        let share = ShareArray::new(&units);
        (units, share)
    }

    #[test]
    fn share_is_nonempty_for_the_mux() {
        let (_, share) = mux_share();
        assert!(!share.is_empty());
        assert_eq!(share.len(), share.entries().len());
    }

    #[test]
    fn share_matches_terminal_algebra() {
        let (units, share) = mux_share();
        for (i, ui) in units.units().iter().enumerate() {
            for (j, uj) in units.units().iter().enumerate() {
                if i == j {
                    continue;
                }
                for oi in ui.orients() {
                    for oj in uj.orients() {
                        let (_, pr, _, nr) = ui.terminals(oi);
                        let (pl, _, nl, _) = uj.terminals(oj);
                        assert_eq!(
                            share.shares(i, oi, j, oj),
                            pr == pl && nr == nl,
                            "({i},{oi},{j},{oj})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn dense_table_agrees_with_abuts_on_the_library() {
        let circuits = library::evaluation_suite()
            .into_iter()
            .chain(library::extended_suite());
        for circuit in circuits {
            let name = circuit.name().to_owned();
            let paired = circuit.into_paired().unwrap();
            let clustered = crate::cluster::cluster_and_stacks(paired.clone());
            for units in [UnitSet::flat(paired), clustered] {
                let share = ShareArray::new(&units);
                let mut count = 0;
                for (i, ui) in units.units().iter().enumerate() {
                    for (j, uj) in units.units().iter().enumerate() {
                        for oi in Orient::ALL {
                            for oj in Orient::ALL {
                                let allowed =
                                    ui.orients().contains(&oi) && uj.orients().contains(&oj);
                                let want = i != j && allowed && abuts(ui, oi, uj, oj);
                                assert_eq!(
                                    share.shares(i, oi, j, oj),
                                    want,
                                    "{name}: ({i},{oi},{j},{oj})"
                                );
                                count += usize::from(want);
                            }
                        }
                    }
                }
                assert_eq!(share.len(), count, "{name}");
                assert_eq!(share.entries().len(), count, "{name}");
            }
        }
    }

    #[test]
    fn share_is_reversal_symmetric() {
        // If j fits right of i, then i (reversed) fits right of j
        // (reversed) — the mirrored layout. Only guaranteed when both
        // reversed orientations are admissible, which holds for flat units.
        let (_, share) = mux_share();
        for e in share.entries() {
            assert!(
                share.shares(e.j, e.oj.reversed(), e.i, e.oi.reversed()),
                "{e:?} not mirror-symmetric"
            );
        }
    }

    #[test]
    fn mergeable_pairs_are_sorted_and_consistent() {
        let (_, share) = mux_share();
        let pairs = share.mergeable_pairs();
        let mut sorted = pairs.clone();
        sorted.sort();
        assert_eq!(pairs, sorted);
        for (i, j) in pairs {
            let groups = share.groups(i, j).unwrap();
            assert!(!groups.is_empty());
            for (oi, ojs) in &groups {
                for oj in ojs {
                    assert!(share.shares(i, *oi, j, *oj));
                }
            }
        }
    }

    #[test]
    fn no_self_sharing() {
        let (units, share) = mux_share();
        for i in 0..units.len() {
            assert!(share.groups(i, i).is_none());
        }
    }
}
