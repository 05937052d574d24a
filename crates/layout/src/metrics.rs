//! Area metrics.
//!
//! The paper's motivation (after Maziasz–Hayes) is that optimizing *both*
//! width and height "can result in area savings of more than 80% over
//! width minimization alone" — area is the product that matters. These
//! helpers compute abstract areas so the benches can reproduce that
//! comparison.

use crate::CellLayout;

/// Abstract cell area: width (pitches) × height (track units).
pub fn area(layout: &CellLayout) -> usize {
    layout.width * layout.height
}

/// Relative area saving of `improved` over `baseline`, in percent
/// (positive = smaller).
pub fn area_saving_percent(baseline: &CellLayout, improved: &CellLayout) -> f64 {
    let (b, i) = (area(baseline) as f64, area(improved) as f64);
    if b == 0.0 {
        0.0
    } else {
        (b - i) / b * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CellLayout;
    use clip_core::request::SynthRequest;
    use clip_netlist::library;

    #[test]
    fn area_is_width_times_height() {
        let cell = SynthRequest::new(library::nand2()).build().unwrap().cell;
        let layout = CellLayout::build(&cell);
        assert_eq!(area(&layout), layout.width * layout.height);
    }

    #[test]
    fn saving_is_signed() {
        let small = SynthRequest::new(library::nand2()).build().unwrap().cell;
        let big = SynthRequest::new(library::mux21()).build().unwrap().cell;
        let small = CellLayout::build(&small);
        let big = CellLayout::build(&big);
        assert!(area_saving_percent(&big, &small) > 0.0);
        assert!(area_saving_percent(&small, &big) < 0.0);
    }
}
