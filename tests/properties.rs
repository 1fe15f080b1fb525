//! Property-based tests over the core data structures and invariants:
//! the richer-than partial order, format serialisation, the RLE codec path,
//! the F1 scorer, the segment store, and the monotonicity observation (O1)
//! the configuration search relies on.

#![expect(clippy::disallowed_methods, reason = "removes its scratch stores")]

use vstore::types::{
    ByteSize, CropFactor, Fidelity, FrameSampling, ImageQuality, KeyframeInterval, Resolution,
    SpeedStep,
};
use vstore_codec::frame::materialize_clip;
use vstore_codec::{encode_segment, SegmentData};
use vstore_datasets::{Dataset, VideoSource};
use vstore_ops::{f1_score, ConsumptionCostModel};
use vstore_storage::{SegmentKey, SegmentReader, SegmentStore};
use vstore_types::check::{check, Gen};
use vstore_types::{CodingOption, FormatId, OperatorKind, StorageFormat};

fn arb_fidelity(g: &mut Gen) -> Fidelity {
    Fidelity::new(
        g.pick(&ImageQuality::ALL),
        g.pick(&CropFactor::ALL),
        g.pick(&Resolution::ALL),
        g.pick(&FrameSampling::ALL),
    )
}

fn arb_coding(g: &mut Gen) -> CodingOption {
    if g.below(2) == 0 {
        CodingOption::Raw
    } else {
        CodingOption::Encoded {
            keyframe_interval: g.pick(&KeyframeInterval::ALL),
            speed: g.pick(&SpeedStep::ALL),
        }
    }
}

// ---------------- richer-than partial order ----------------

#[test]
fn richer_than_is_reflexive_and_antisymmetric() {
    let gen = |g: &mut Gen| (arb_fidelity(g), arb_fidelity(g));
    check(64, 1, gen, |(a, b)| {
        assert!(a.richer_or_equal(&a));
        if a.richer_or_equal(&b) && b.richer_or_equal(&a) {
            assert_eq!(a, b);
        }
    });
}

#[test]
fn richer_than_is_transitive() {
    let gen = |g: &mut Gen| (arb_fidelity(g), arb_fidelity(g), arb_fidelity(g));
    check(64, 2, gen, |(a, b, c)| {
        if a.richer_or_equal(&b) && b.richer_or_equal(&c) {
            assert!(a.richer_or_equal(&c));
        }
    });
}

#[test]
fn join_is_least_upper_bound() {
    let gen = |g: &mut Gen| (arb_fidelity(g), arb_fidelity(g));
    check(64, 3, gen, |(a, b)| {
        let j = a.join(&b);
        assert!(j.richer_or_equal(&a));
        assert!(j.richer_or_equal(&b));
        // Any common upper bound is at least as rich as the join.
        let ingestion = Fidelity::INGESTION;
        assert!(ingestion.richer_or_equal(&j));
        // Meet is dually a lower bound.
        let m = a.meet(&b);
        assert!(a.richer_or_equal(&m));
        assert!(b.richer_or_equal(&m));
        assert!(j.richer_or_equal(&m));
    });
}

#[test]
fn satisfiability_follows_the_partial_order() {
    let gen = |g: &mut Gen| (arb_fidelity(g), arb_fidelity(g), arb_coding(g));
    check(64, 4, gen, |(a, b, c)| {
        let sf = StorageFormat::new(a, c);
        let cf = vstore_types::ConsumptionFormat::new(b);
        assert_eq!(sf.satisfies(&cf), a.richer_or_equal(&b));
    });
}

// ---------------- cost-model invariants ----------------

#[test]
fn consumption_cost_ignores_quality_and_respects_monotonicity() {
    let gen = |g: &mut Gen| (arb_fidelity(g), g.pick(&OperatorKind::ALL));
    check(64, 5, gen, |(f, op)| {
        let model = ConsumptionCostModel::paper_testbed();
        // O2: changing only image quality never changes speed.
        for q in ImageQuality::ALL {
            let other = Fidelity { quality: q, ..f };
            assert_eq!(
                model.consumption_speed(op, &f).factor(),
                model.consumption_speed(op, &other).factor()
            );
        }
        // O1 (cost side): a richer fidelity is never faster to consume.
        let richer = Fidelity {
            resolution: Resolution::R720,
            sampling: FrameSampling::Full,
            crop: CropFactor::C100,
            ..f
        };
        assert!(
            model.consumption_speed(op, &richer).factor()
                <= model.consumption_speed(op, &f).factor() + 1e-9
        );
    });
}

// ---------------- scoring ----------------

#[test]
fn f1_is_bounded_and_perfect_only_on_agreement() {
    let gen = |g: &mut Gen| -> Vec<(bool, bool)> {
        (0..1 + g.len(198))
            .map(|_| (g.below(2) == 1, g.below(2) == 1))
            .collect()
    };
    check(64, 6, gen, |flags| {
        let reference: Vec<bool> = flags.iter().map(|(r, _)| *r).collect();
        let predicted: Vec<bool> = flags.iter().map(|(_, p)| *p).collect();
        let report = f1_score(&reference, &predicted);
        assert!((0.0..=1.0).contains(&report.f1));
        assert!((0.0..=1.0).contains(&report.precision));
        assert!((0.0..=1.0).contains(&report.recall));
        if reference == predicted {
            assert_eq!(report.f1, 1.0);
        }
        if report.fp == 0 && report.fn_ == 0 {
            assert_eq!(report.f1, 1.0);
        }
    });
}

// ---------------- storage keys & units ----------------

#[test]
fn segment_keys_round_trip() {
    let gen = |g: &mut Gen| {
        let stream: String = (0..1 + g.len(15))
            .map(|_| char::from(b'a' + g.below(26) as u8))
            .collect();
        SegmentKey::new(stream, FormatId(g.below(64) as u32), g.next_u64())
    };
    check(64, 7, gen, |key| {
        assert_eq!(SegmentKey::decode(&key.encode()).unwrap(), key);
    });
}

#[test]
fn byte_size_scaling_is_monotone() {
    let gen = |g: &mut Gen| (g.below(1_000_000_000), g.unit(), g.unit());
    check(64, 8, gen, |(bytes, f1, f2)| {
        let b = ByteSize(bytes);
        let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        assert!(b.scale(lo) <= b.scale(hi));
        assert!(b.scale(1.0) == b);
    });
}

// ---------------- store behaviour under random operation sequences ----------------

#[test]
fn segment_store_matches_a_model_under_random_ops() {
    let gen = |g: &mut Gen| -> Vec<(u8, u64, Vec<u8>)> {
        (0..1 + g.len(58))
            .map(|_| {
                let (op, seg) = (g.below(3) as u8, g.below(24));
                (
                    op,
                    seg,
                    (0..g.len(511)).map(|_| g.next_u64() as u8).collect(),
                )
            })
            .collect()
    };
    check(16, 9, gen, |ops| {
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
                    assert_eq!(got.as_deref(), model.get(&seg).map(|v| v.as_slice()));
                }
            }
        }
        assert_eq!(store.len(), model.len());
        std::fs::remove_dir_all(store.dir()).ok();
    });
}

// Cache coherence: a reader with the view cache enabled is observationally
// identical to a passthrough reader under random put/read/erode
// interleavings — invalidation and eviction can drop performance, never
// correctness. Values are real segments or bytes that do not parse, so
// errors are compared too.
#[test]
fn cached_reader_returns_identical_bytes_to_uncached_under_random_ops() {
    use std::sync::Arc;
    let gen = |g: &mut Gen| -> Vec<(u8, u64, usize)> {
        (0..1 + g.len(78))
            .map(|_| (g.below(6) as u8, g.below(8), g.below(4) as usize))
            .collect()
    };
    check(16, 10, gen, |ops| {
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
                    (
                        segment.storage_format,
                        segment.frame_count,
                        segment.raw_len,
                        segment.frames.clone(),
                    )
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
                read_op => assert_eq!(read(&cached, &key, read_op), read(&uncached, &key, read_op)),
            }
        }
        // Final sweep: every key and view agrees, whether served hot or cold.
        for seg in 0..8u64 {
            let key = SegmentKey::new("prop-cache", FormatId(1), seg);
            for read_op in 2..6 {
                assert_eq!(read(&cached, &key, read_op), read(&uncached, &key, read_op));
            }
        }
    });
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
