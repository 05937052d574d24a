//! Machine-readable JSON export and import.
//!
//! The schema is deliberately simple and stable: rows of slots with their
//! terminal nets (by name), merge flags, and routed tracks per channel.
//! Serialization is hand-rolled over [`crate::jsonio`] (hermetic-deps
//! policy: no `serde`), and [`parse`] round-trips everything [`to_json`]
//! emits.

use crate::jsonio::{self, Json};
use crate::CellLayout;

/// JSON document root.
#[derive(Clone, Debug, PartialEq)]
pub struct CellDoc {
    /// Cell name.
    pub name: String,
    /// Cell width in transistor pitches.
    pub width: usize,
    /// Cell height in track-pitch units.
    pub height: usize,
    /// Rows, top to bottom.
    pub rows: Vec<RowDoc>,
    /// Inter-row channels, top to bottom.
    pub inter_channels: Vec<ChannelDoc>,
}

/// One P/N row.
#[derive(Clone, Debug, PartialEq)]
pub struct RowDoc {
    /// Slots, left to right.
    pub slots: Vec<SlotDoc>,
    /// Merge flags between adjacent slots.
    pub merged: Vec<bool>,
    /// The row's routed channel.
    pub channel: ChannelDoc,
}

/// One placed slot's terminal nets, by name.
#[derive(Clone, Debug, PartialEq)]
pub struct SlotDoc {
    /// Gate net.
    pub gate: String,
    /// Left P diffusion net.
    pub p_left: String,
    /// Right P diffusion net.
    pub p_right: String,
    /// Left N diffusion net.
    pub n_left: String,
    /// Right N diffusion net.
    pub n_right: String,
}

/// A routed channel: tracks of `(net, lo, hi)` runs.
#[derive(Clone, Debug, PartialEq)]
pub struct ChannelDoc {
    /// Tracks, each a list of runs.
    pub tracks: Vec<Vec<RunDoc>>,
}

/// One horizontal run on a track.
#[derive(Clone, Debug, PartialEq)]
pub struct RunDoc {
    /// Net name.
    pub net: String,
    /// Leftmost physical column (inclusive).
    pub lo: usize,
    /// Rightmost physical column (inclusive).
    pub hi: usize,
}

/// Builds the JSON document for a layout.
pub fn document(layout: &CellLayout) -> CellDoc {
    let channel_doc = |tracks: &[clip_route::leftedge::Track]| ChannelDoc {
        tracks: tracks
            .iter()
            .map(|t| {
                t.iter()
                    .map(|&(net, span)| RunDoc {
                        net: layout.net_name(net).to_owned(),
                        lo: span.lo,
                        hi: span.hi,
                    })
                    .collect()
            })
            .collect(),
    };
    CellDoc {
        name: layout.name.clone(),
        width: layout.width,
        height: layout.height,
        rows: layout
            .rows
            .iter()
            .enumerate()
            .map(|(r, row)| RowDoc {
                slots: row
                    .slots()
                    .iter()
                    .map(|s| SlotDoc {
                        gate: layout.net_name(s.gate).to_owned(),
                        p_left: layout.net_name(s.p_left).to_owned(),
                        p_right: layout.net_name(s.p_right).to_owned(),
                        n_left: layout.net_name(s.n_left).to_owned(),
                        n_right: layout.net_name(s.n_right).to_owned(),
                    })
                    .collect(),
                merged: row.merged().to_vec(),
                channel: channel_doc(&layout.intra_channels[r]),
            })
            .collect(),
        inter_channels: layout
            .inter_channels
            .iter()
            .map(|c| channel_doc(c))
            .collect(),
    }
}

impl CellDoc {
    /// The document as a JSON value tree.
    pub fn to_value(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            ("width", Json::Int(self.width as i64)),
            ("height", Json::Int(self.height as i64)),
            ("rows", Json::arr(&self.rows, RowDoc::to_value)),
            (
                "inter_channels",
                Json::arr(&self.inter_channels, ChannelDoc::to_value),
            ),
        ])
    }

    /// Rebuilds a document from a parsed JSON value.
    pub fn from_value(v: &Json) -> Result<Self, String> {
        Ok(CellDoc {
            name: str_field(v, "name")?,
            width: usize_field(v, "width")?,
            height: usize_field(v, "height")?,
            rows: arr_field(v, "rows")?
                .iter()
                .map(RowDoc::from_value)
                .collect::<Result<_, _>>()?,
            inter_channels: arr_field(v, "inter_channels")?
                .iter()
                .map(ChannelDoc::from_value)
                .collect::<Result<_, _>>()?,
        })
    }
}

impl RowDoc {
    fn to_value(row: &RowDoc) -> Json {
        Json::obj([
            ("slots", Json::arr(&row.slots, SlotDoc::to_value)),
            ("merged", Json::arr(&row.merged, |&m| Json::Bool(m))),
            ("channel", ChannelDoc::to_value(&row.channel)),
        ])
    }

    fn from_value(v: &Json) -> Result<Self, String> {
        Ok(RowDoc {
            slots: arr_field(v, "slots")?
                .iter()
                .map(SlotDoc::from_value)
                .collect::<Result<_, _>>()?,
            merged: arr_field(v, "merged")?
                .iter()
                .map(|m| {
                    m.as_bool()
                        .ok_or_else(|| "merged: expected bool".to_owned())
                })
                .collect::<Result<_, _>>()?,
            channel: ChannelDoc::from_value(
                v.get("channel")
                    .ok_or_else(|| "missing field `channel`".to_owned())?,
            )?,
        })
    }
}

impl SlotDoc {
    fn to_value(slot: &SlotDoc) -> Json {
        Json::obj([
            ("gate", Json::Str(slot.gate.clone())),
            ("p_left", Json::Str(slot.p_left.clone())),
            ("p_right", Json::Str(slot.p_right.clone())),
            ("n_left", Json::Str(slot.n_left.clone())),
            ("n_right", Json::Str(slot.n_right.clone())),
        ])
    }

    fn from_value(v: &Json) -> Result<Self, String> {
        Ok(SlotDoc {
            gate: str_field(v, "gate")?,
            p_left: str_field(v, "p_left")?,
            p_right: str_field(v, "p_right")?,
            n_left: str_field(v, "n_left")?,
            n_right: str_field(v, "n_right")?,
        })
    }
}

impl ChannelDoc {
    fn to_value(channel: &ChannelDoc) -> Json {
        Json::obj([(
            "tracks",
            Json::arr(&channel.tracks, |t| Json::arr(t, RunDoc::to_value)),
        )])
    }

    fn from_value(v: &Json) -> Result<Self, String> {
        Ok(ChannelDoc {
            tracks: arr_field(v, "tracks")?
                .iter()
                .map(|t| {
                    t.as_arr()
                        .ok_or_else(|| "tracks: expected array".to_owned())?
                        .iter()
                        .map(RunDoc::from_value)
                        .collect()
                })
                .collect::<Result<_, _>>()?,
        })
    }
}

impl RunDoc {
    fn to_value(run: &RunDoc) -> Json {
        Json::obj([
            ("net", Json::Str(run.net.clone())),
            ("lo", Json::Int(run.lo as i64)),
            ("hi", Json::Int(run.hi as i64)),
        ])
    }

    fn from_value(v: &Json) -> Result<Self, String> {
        Ok(RunDoc {
            net: str_field(v, "net")?,
            lo: usize_field(v, "lo")?,
            hi: usize_field(v, "hi")?,
        })
    }
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn str_field(v: &Json, key: &str) -> Result<String, String> {
    field(v, key)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("field `{key}`: expected string"))
}

fn usize_field(v: &Json, key: &str) -> Result<usize, String> {
    field(v, key)?
        .as_usize()
        .ok_or_else(|| format!("field `{key}`: expected non-negative integer"))
}

fn arr_field<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    field(v, key)?
        .as_arr()
        .ok_or_else(|| format!("field `{key}`: expected array"))
}

/// Serializes a layout to pretty JSON.
pub fn to_json(layout: &CellLayout) -> String {
    document(layout).to_value().to_pretty()
}

/// Parses a document previously emitted by [`to_json`].
pub fn parse(text: &str) -> Result<CellDoc, String> {
    let value = jsonio::parse(text).map_err(|e| e.to_string())?;
    CellDoc::from_value(&value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clip_core::request::SynthRequest;
    use clip_netlist::library;

    fn layout() -> CellLayout {
        let cell = SynthRequest::new(library::nand2()).build().unwrap().cell;
        CellLayout::build(&cell)
    }

    #[test]
    fn document_round_trips_through_json() {
        let doc = document(&layout());
        for text in [doc.to_value().to_compact(), doc.to_value().to_pretty()] {
            let back = parse(&text).unwrap();
            assert_eq!(doc, back);
        }
    }

    #[test]
    fn document_structure_matches_layout() {
        let l = layout();
        let doc = document(&l);
        assert_eq!(doc.name, "nand2");
        assert_eq!(doc.width, 2);
        assert_eq!(doc.rows.len(), 1);
        assert_eq!(doc.rows[0].slots.len(), 2);
        assert_eq!(doc.rows[0].merged, vec![true]);
        assert!(doc.inter_channels.is_empty());
    }

    #[test]
    fn json_contains_net_names() {
        let text = to_json(&layout());
        assert!(text.contains("VDD"));
        assert!(text.contains("GND"));
        assert!(text.contains("\"gate\""));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(parse("not json").is_err());
        assert!(parse("{}").unwrap_err().contains("missing field `name`"));
        assert!(parse(r#"{"name": 7}"#)
            .unwrap_err()
            .contains("expected string"));
        let text = to_json(&layout());
        let truncated = &text[..text.len() / 2];
        assert!(parse(truncated).is_err());
    }

    #[test]
    fn exotic_net_names_survive_round_trip() {
        // The emitter escapes; the parser unescapes — even names no real
        // netlist should have.
        let mut doc = document(&layout());
        doc.name = "cell \"q\"\\\n\tüñí🦀".to_owned();
        let back = parse(&doc.to_value().to_pretty()).unwrap();
        assert_eq!(doc, back);
    }
}
