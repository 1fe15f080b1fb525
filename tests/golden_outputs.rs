//! What configuration derivation outputs, pinned: the CRC-32 of the
//! `Debug` of the configurations derived for queries A and B at accuracy
//! 0.8 and 0.9 on the fast options. Any change to a configuration knob, an
//! operator model or the search that moves one derived format fails here.

use vstore::{BackendOptions, QuerySpec, VStore, VStoreOptions};
use vstore_types::crc32;

/// `(query, accuracy, crc32 of the derived configuration's Debug)`.
const PINNED: [(&str, f64, u32); 4] = [
    ("A", 0.8, 0x6b61_57d3),
    ("A", 0.9, 0xdbea_3310),
    ("B", 0.8, 0x3bba_552e),
    ("B", 0.9, 0x16ab_fe6a),
];

#[test]
fn derived_configurations_are_pinned() {
    let derived: Vec<(&str, f64, u32)> = PINNED
        .iter()
        .map(|&(name, accuracy, _)| {
            let query = match name {
                "A" => QuerySpec::query_a(accuracy),
                _ => QuerySpec::query_b(accuracy),
            };
            let store = VStore::open(
                "unused",
                VStoreOptions::fast().with_backend(BackendOptions::Mem),
            )
            .unwrap();
            let config = store.configure(&query.consumers()).unwrap();
            (name, accuracy, crc32(format!("{config:?}").as_bytes()))
        })
        .collect();
    assert_eq!(derived, PINNED, "{derived:#x?}");
}
