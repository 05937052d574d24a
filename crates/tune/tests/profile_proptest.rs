//! Property test: every representable `TuningProfile` survives the JSON
//! round trip exactly, and serialization is stable (emit → parse → emit
//! is a fixed point).

use clip_proptest::{gens, proptest_lite, Gen};
use clip_tune::{ProfileEntry, TuningProfile};

/// All 32 valid feature keys (4 sizes × 2 densities × 2 depths × 2 modes).
fn all_keys() -> Vec<String> {
    let mut keys = Vec::new();
    for size in ["tiny", "small", "medium", "large"] {
        for nets in ["sparse", "dense"] {
            for chain in ["shallow", "deep"] {
                for mode in ["flat", "hier"] {
                    keys.push(format!("{size}-{nets}-{chain}-{mode}"));
                }
            }
        }
    }
    keys
}

fn entry_gen() -> Gen<ProfileEntry> {
    Gen::new(|rng| ProfileEntry {
        observations: rng.gen_range(0..10_000usize),
        hclip_seed: match rng.gen_range(0..3u8) {
            0 => None,
            1 => Some(true),
            _ => Some(false),
        },
        seed_slice: rng.gen_bool(0.5).then(|| rng.gen_range(0..=8u32)),
        portfolio: {
            let n = rng.gen_range(0..=3usize);
            (0..n)
                .map(|_| {
                    ["cbj", "evsids", "cbj-dyn", "mystery"][rng.gen_range(0..4usize)].to_string()
                })
                .collect()
        },
        jobs: rng.gen_bool(0.5).then(|| rng.gen_range(1..=16usize)),
    })
}

fn profile_gen() -> Gen<TuningProfile> {
    let entries = entry_gen();
    Gen::new(move |rng| {
        let keys = all_keys();
        let n = rng.gen_range(0..=5usize);
        let mut profile = TuningProfile::default();
        for _ in 0..n {
            let key = keys[rng.gen_range(0..keys.len())].clone();
            profile.entries.insert(key, entries.sample(rng));
        }
        profile
    })
}

proptest_lite! {
    cases: 128;

    fn profile_json_round_trips(profile in profile_gen()) {
        let text = profile.to_json();
        let back = TuningProfile::parse(&text).expect("serialized profile parses");
        assert_eq!(back, profile);
        assert_eq!(back.to_json(), text, "serialization is a fixed point");
    }

    fn plans_from_any_profile_are_safe(profile in profile_gen(), pick in gens::int(0..32usize)) {
        // Whatever the profile holds, the distilled plan never carries a
        // zero jobs count and stamps its source only when it has advice.
        let keys = all_keys();
        let key = clip_tune::FeatureKey::parse(&keys[pick]).unwrap();
        let plan = profile.plan_for(&key);
        if plan.is_default() {
            assert_eq!(plan.source, None);
        } else {
            assert_eq!(plan.source.as_deref(), Some(keys[pick].as_str()));
        }
    }
}
