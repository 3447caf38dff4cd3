//! The workload generator is a pure function of the seed.

use std::collections::HashMap;

use fex_perfbench::gen::{phoenix_config, ClientStream, Kind, PhoenixShape};

fn stream(seed: u64, client: usize, len: usize) -> Vec<fex_perfbench::gen::Item> {
    ClientStream::new(seed, 0, client, 2).take(len).collect()
}

#[test]
fn same_seed_same_inputs() {
    for smoke in [false, true] {
        let shape = PhoenixShape::new(smoke);
        let a = phoenix_config(7, shape, 2);
        let b = phoenix_config(7, shape, 2);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
    for client in 0..3 {
        assert_eq!(stream(7, client, 500), stream(7, client, 500));
    }
}

#[test]
fn other_seeds_other_inputs() {
    let shape = PhoenixShape::new(false);
    assert_ne!(phoenix_config(7, shape, 2).seed, phoenix_config(8, shape, 2).seed);
    assert_ne!(stream(7, 0, 50), stream(8, 0, 50));
    assert_ne!(stream(7, 0, 50), stream(7, 1, 50));
    let epoch = |e| ClientStream::new(7, e, 0, 2).take(50).collect::<Vec<_>>();
    assert_ne!(epoch(0), epoch(1));
}

#[test]
fn stream_mixes_repeats_fresh_and_overlaps() {
    let items = stream(3, 0, 3000);
    let share = |k: Kind| items.iter().filter(|i| i.kind == k).count() as f64 / 3000.0;
    for kind in [Kind::Repeat, Kind::Fresh, Kind::Overlap] {
        let s = share(kind);
        assert!((0.25..0.42).contains(&s), "{kind:?} share {s}");
    }
}

#[test]
fn labels_match_the_cache_behaviour_they_promise() {
    let items = stream(5, 1, 2000);
    let mut first_of_key: HashMap<String, usize> = HashMap::new();
    for (i, item) in items.iter().enumerate() {
        let key = item.sub.key();
        match item.kind {
            Kind::Repeat => {
                let original = &items[item.repeats.expect("repeats name their original")];
                assert!(item.repeats < Some(i));
                assert_eq!(key, original.sub.key(), "a repeat is the same work");
                assert_ne!(item.sub.tenant, original.sub.tenant, "from another tenant");
            }
            Kind::Fresh | Kind::Overlap => {
                assert!(!first_of_key.contains_key(&key), "item {i} re-sends earlier work");
                first_of_key.insert(key, i);
            }
        }
        if item.kind == Kind::Overlap {
            let shares_pair = items[..i].iter().any(|e| {
                e.kind == Kind::Fresh
                    && (e.sub.benchmark.as_ref(), e.sub.seed)
                        == (item.sub.benchmark.as_ref(), item.sub.seed)
                    && e.sub.build_types.iter().any(|t| item.sub.build_types.contains(t))
            });
            assert!(shares_pair, "an overlap shares a build type with an earlier pair");
        }
    }
    // No two clients share a (benchmark, seed) pair.
    let other = stream(5, 2, 2000);
    for a in items.iter().filter(|i| i.kind == Kind::Fresh) {
        assert!(other.iter().all(|b| b.sub.seed != a.sub.seed));
    }
}
