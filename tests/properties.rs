//! Property-based tests over the core data structures and invariants:
//! the richer-than partial order, format serialisation, the RLE codec path,
//! the F1 scorer, the segment store, and the monotonicity observation (O1)
//! the configuration search relies on.

#![expect(clippy::disallowed_methods, reason = "removes its scratch stores")]

use proptest::prelude::*;
use vstore::types::{
    ByteSize, CropFactor, Fidelity, FrameSampling, ImageQuality, KeyframeInterval, Resolution,
    SpeedStep,
};
use vstore_codec::frame::materialize_clip;
use vstore_codec::{encode_segment, SegmentData};
use vstore_datasets::{Dataset, VideoSource};
use vstore_ops::{f1_score, ConsumptionCostModel};
use vstore_storage::{SegmentKey, SegmentReader, SegmentStore};
use vstore_types::{CodingOption, FormatId, OperatorKind, StorageFormat};

fn arb_quality() -> impl Strategy<Value = ImageQuality> {
    prop::sample::select(ImageQuality::ALL.to_vec())
}
fn arb_crop() -> impl Strategy<Value = CropFactor> {
    prop::sample::select(CropFactor::ALL.to_vec())
}
fn arb_resolution() -> impl Strategy<Value = Resolution> {
    prop::sample::select(Resolution::ALL.to_vec())
}
fn arb_sampling() -> impl Strategy<Value = FrameSampling> {
    prop::sample::select(FrameSampling::ALL.to_vec())
}

prop_compose! {
    fn arb_fidelity()(
        quality in arb_quality(),
        crop in arb_crop(),
        resolution in arb_resolution(),
        sampling in arb_sampling(),
    ) -> Fidelity {
        Fidelity::new(quality, crop, resolution, sampling)
    }
}

fn arb_coding() -> impl Strategy<Value = CodingOption> {
    prop_oneof![
        Just(CodingOption::Raw),
        (
            prop::sample::select(KeyframeInterval::ALL.to_vec()),
            prop::sample::select(SpeedStep::ALL.to_vec())
        )
            .prop_map(|(keyframe_interval, speed)| CodingOption::Encoded {
                keyframe_interval,
                speed
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------------- richer-than partial order ----------------

    #[test]
    fn richer_than_is_reflexive_and_antisymmetric(a in arb_fidelity(), b in arb_fidelity()) {
        prop_assert!(a.richer_or_equal(&a));
        if a.richer_or_equal(&b) && b.richer_or_equal(&a) {
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn richer_than_is_transitive(a in arb_fidelity(), b in arb_fidelity(), c in arb_fidelity()) {
        if a.richer_or_equal(&b) && b.richer_or_equal(&c) {
            prop_assert!(a.richer_or_equal(&c));
        }
    }

    #[test]
    fn join_is_least_upper_bound(a in arb_fidelity(), b in arb_fidelity()) {
        let j = a.join(&b);
        prop_assert!(j.richer_or_equal(&a));
        prop_assert!(j.richer_or_equal(&b));
        // Any common upper bound is at least as rich as the join.
        let ingestion = Fidelity::INGESTION;
        prop_assert!(ingestion.richer_or_equal(&j));
        // Meet is dually a lower bound.
        let m = a.meet(&b);
        prop_assert!(a.richer_or_equal(&m));
        prop_assert!(b.richer_or_equal(&m));
        prop_assert!(j.richer_or_equal(&m));
    }

    #[test]
    fn satisfiability_follows_the_partial_order(a in arb_fidelity(), b in arb_fidelity(), c in arb_coding()) {
        let sf = StorageFormat::new(a, c);
        let cf = vstore_types::ConsumptionFormat::new(b);
        prop_assert_eq!(sf.satisfies(&cf), a.richer_or_equal(&b));
    }

    // ---------------- cost-model invariants ----------------

    #[test]
    fn consumption_cost_ignores_quality_and_respects_monotonicity(
        f in arb_fidelity(),
        op in prop::sample::select(OperatorKind::ALL.to_vec()),
    ) {
        let model = ConsumptionCostModel::paper_testbed();
        // O2: changing only image quality never changes speed.
        for q in ImageQuality::ALL {
            let other = Fidelity { quality: q, ..f };
            prop_assert_eq!(
                model.consumption_speed(op, &f).factor(),
                model.consumption_speed(op, &other).factor()
            );
        }
        // O1 (cost side): a richer fidelity is never faster to consume.
        let richer = Fidelity { resolution: Resolution::R720, sampling: FrameSampling::Full, crop: CropFactor::C100, ..f };
        prop_assert!(
            model.consumption_speed(op, &richer).factor()
                <= model.consumption_speed(op, &f).factor() + 1e-9
        );
    }

    // ---------------- scoring ----------------

    #[test]
    fn f1_is_bounded_and_perfect_only_on_agreement(flags in prop::collection::vec(any::<(bool, bool)>(), 1..200)) {
        let reference: Vec<bool> = flags.iter().map(|(r, _)| *r).collect();
        let predicted: Vec<bool> = flags.iter().map(|(_, p)| *p).collect();
        let report = f1_score(&reference, &predicted);
        prop_assert!((0.0..=1.0).contains(&report.f1));
        prop_assert!((0.0..=1.0).contains(&report.precision));
        prop_assert!((0.0..=1.0).contains(&report.recall));
        if reference == predicted {
            prop_assert_eq!(report.f1, 1.0);
        }
        if report.fp == 0 && report.fn_ == 0 {
            prop_assert_eq!(report.f1, 1.0);
        }
    }

    // ---------------- storage keys & units ----------------

    #[test]
    fn segment_keys_round_trip(stream in "[a-z]{1,16}", format in 0u32..64, index in any::<u64>()) {
        let key = SegmentKey::new(stream, FormatId(format), index);
        prop_assert_eq!(SegmentKey::decode(&key.encode()).unwrap(), key);
    }

    #[test]
    fn byte_size_scaling_is_monotone(bytes in 0u64..1_000_000_000, f1 in 0.0f64..1.0, f2 in 0.0f64..1.0) {
        let b = ByteSize(bytes);
        let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        prop_assert!(b.scale(lo) <= b.scale(hi));
        prop_assert!(b.scale(1.0) == b);
    }
}

// Store behaviour under random operation sequences (kept outside proptest's
// macro so the store setup cost is paid once per case batch).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn segment_store_matches_a_model_under_random_ops(
        ops in prop::collection::vec((0u8..3, 0u64..24, prop::collection::vec(any::<u8>(), 0..512)), 1..60)
    ) {
        let store = SegmentStore::open_temp("prop-store").unwrap();
        let mut model: std::collections::BTreeMap<u64, Vec<u8>> = std::collections::BTreeMap::new();
        for (op, seg, value) in ops {
            let key = SegmentKey::new("prop", FormatId(1), seg);
            match op {
                0 => {
                    store.put(&key, &value).unwrap();
                    model.insert(seg, value);
                }
                1 => {
                    store.delete(&key).unwrap();
                    model.remove(&seg);
                }
                _ => {
                    let got = store.get(&key).unwrap();
                    prop_assert_eq!(got.as_deref(), model.get(&seg).map(|v| v.as_slice()));
                }
            }
        }
        prop_assert_eq!(store.len(), model.len());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    // Cache coherence: a reader with the view cache enabled is
    // observationally identical to a passthrough reader under random
    // put/read/erode interleavings — invalidation and eviction can drop
    // performance, never correctness. Values are real segments or bytes
    // that do not parse, so errors are compared too.
    #[test]
    fn cached_reader_returns_identical_bytes_to_uncached_under_random_ops(
        ops in prop::collection::vec((0u8..6, 0u64..8, 0usize..4), 1..80)
    ) {
        use std::sync::Arc;
        // 16 KiB and 4 views per shard: one whole-segment view (~14 KB of
        // planes) and one half-rate view (~7 KB) already overflow a shard.
        let cached = SegmentReader::new(
            Arc::new(SegmentStore::open_mem_with_shards(4).unwrap()),
            64 << 10,
            16,
        );
        let uncached =
            SegmentReader::disabled(Arc::new(SegmentStore::open_mem_with_shards(4).unwrap()));
        let read = |reader: &SegmentReader, key: &SegmentKey, op: u8| {
            let read = match op {
                2 => reader.get_decoded(key, FrameSampling::Full),
                consumer => reader.get_view(key, &cache_consumer(consumer)),
            };
            read.map(|read| {
                read.map(|read| {
                    let segment = &read.segment;
                    (segment.storage_format, segment.frame_count, segment.raw_len, segment.frames.clone())
                })
            })
            .map_err(|err| err.to_string())
        };
        for (op, seg, value) in ops {
            let key = SegmentKey::new("prop-cache", FormatId(1), seg);
            match op {
                0 => {
                    cached.put(&key, &cache_values()[value]).unwrap();
                    uncached.put(&key, &cache_values()[value]).unwrap();
                }
                1 => {
                    // Erosion's storage primitive.
                    cached.delete(&key).unwrap();
                    uncached.delete(&key).unwrap();
                }
                read_op => prop_assert_eq!(read(&cached, &key, read_op), read(&uncached, &key, read_op)),
            }
        }
        // Final sweep: every key and view agrees, whether served hot or cold.
        for seg in 0..8u64 {
            let key = SegmentKey::new("prop-cache", FormatId(1), seg);
            for read_op in 2..6 {
                prop_assert_eq!(read(&cached, &key, read_op), read(&uncached, &key, read_op));
            }
        }
    }
}

/// The values the cache-coherence property writes: three distinct segments
/// (two encoded, one raw) and bytes that do not parse as one.
fn cache_values() -> &'static [Vec<u8>] {
    static VALUES: std::sync::OnceLock<Vec<Vec<u8>>> = std::sync::OnceLock::new();
    VALUES.get_or_init(|| {
        let fidelity = Fidelity::new(
            ImageQuality::Good,
            CropFactor::C75,
            Resolution::R180,
            FrameSampling::Full,
        );
        let clip = |start| {
            materialize_clip(
                &VideoSource::new(Dataset::Jackson).clip(start, 15),
                fidelity,
            )
        };
        let encoded = |start| {
            let segment =
                encode_segment(&clip(start), KeyframeInterval::K5, SpeedStep::Fast).unwrap();
            SegmentData::Encoded(segment).to_bytes()
        };
        let raw = SegmentData::Raw(vstore_codec::container::RawSegment {
            fidelity,
            frames: clip(30),
        });
        vec![
            encoded(0),
            encoded(15),
            raw.to_bytes(),
            b"not a segment".to_vec(),
        ]
    })
}

/// The consumers the cache-coherence property reads as: poorer than the
/// stored fidelity on every knob, on sampling only, and richer (refused).
fn cache_consumer(op: u8) -> vstore_types::ConsumptionFormat {
    let fidelity = match op {
        3 => Fidelity::new(
            ImageQuality::Bad,
            CropFactor::C50,
            Resolution::R100,
            FrameSampling::S1_6,
        ),
        4 => Fidelity::new(
            ImageQuality::Good,
            CropFactor::C75,
            Resolution::R180,
            FrameSampling::S1_2,
        ),
        _ => Fidelity::INGESTION,
    };
    vstore_types::ConsumptionFormat::new(fidelity)
}

// ---------------- codec round trips over real content ----------------

#[test]
fn codec_round_trips_are_lossless_across_gop_choices() {
    let source = VideoSource::new(Dataset::Miami);
    let fidelity = Fidelity::new(
        ImageQuality::Good,
        CropFactor::C75,
        Resolution::R360,
        FrameSampling::S1_2,
    );
    let frames = materialize_clip(&source.clip(0, 120), fidelity);
    for ki in KeyframeInterval::ALL {
        let segment = encode_segment(&frames, ki, SpeedStep::Fast).unwrap();
        let container = SegmentData::Encoded(segment);
        let bytes = container.to_bytes();
        let decoded = SegmentData::from_bytes(&bytes)
            .unwrap()
            .decode_all()
            .unwrap();
        assert_eq!(decoded.len(), frames.len(), "keyframe interval {ki}");
        for (d, f) in decoded.iter().zip(frames.iter()) {
            assert_eq!(d.plane, f.plane);
            assert_eq!(d.objects.len(), f.objects.len());
        }
    }
}

#[test]
fn detection_monotonicity_holds_over_fidelity_chains() {
    // O1 at the operator-output level: along a chain of increasingly rich
    // per-frame fidelities (quality, crop, resolution), measured accuracy
    // never decreases by more than noise. Frame sampling is held fixed:
    // sparse sampling interacts with temporal propagation in ways the paper
    // itself notes can be non-monotone (§6.2, "the trend … can be
    // non-monotone"), so it is excluded from the strict invariant.
    let lib = vstore_ops::OperatorLibrary::paper_testbed();
    let source = VideoSource::new(Dataset::Dashcam);
    let scenes = source.clip(0, 150);
    let reference = materialize_clip(&scenes, Fidelity::INGESTION);
    let chain = [
        Fidelity::new(
            ImageQuality::Worst,
            CropFactor::C50,
            Resolution::R100,
            FrameSampling::Full,
        ),
        Fidelity::new(
            ImageQuality::Bad,
            CropFactor::C75,
            Resolution::R200,
            FrameSampling::Full,
        ),
        Fidelity::new(
            ImageQuality::Good,
            CropFactor::C75,
            Resolution::R400,
            FrameSampling::Full,
        ),
        Fidelity::new(
            ImageQuality::Good,
            CropFactor::C100,
            Resolution::R540,
            FrameSampling::Full,
        ),
        Fidelity::INGESTION,
    ];
    for op in [
        OperatorKind::FullNN,
        OperatorKind::License,
        OperatorKind::Motion,
        OperatorKind::Ocr,
    ] {
        let mut prev = -1.0f64;
        for fidelity in chain {
            let frames = materialize_clip(&scenes, fidelity);
            let f1 = lib.evaluate_accuracy(op, &reference, &frames).f1;
            assert!(
                f1 >= prev - 0.05,
                "{op:?}: accuracy dropped from {prev:.3} to {f1:.3} at {fidelity}"
            );
            prev = f1;
        }
        assert_eq!(prev, 1.0, "{op:?} should be perfect at ingestion fidelity");
    }
}
