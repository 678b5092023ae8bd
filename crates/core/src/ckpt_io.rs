//! Checkpoint serialization for the wrangling session.
//!
//! The checkpoint store ([`wrangler_ckpt`]) moves opaque byte payloads; this
//! module defines what those payloads *are* for a wrangle pass. Every seam
//! record has two parts:
//!
//! * a [`SessionState`] — the complete snapshot of everything the pass has
//!   mutated up to that seam that a later stage reads: the session tick,
//!   the budget spent, per-source trust beliefs, the acquisition engine
//!   (virtual clock, breaker fleet, retry totals), work counters, the
//!   containment report, and the acquisition summary — its size follows
//!   the number of sources, never rows or pairs. Restoring it
//!   puts a *fresh process* into exactly the state the crashed process had
//!   at the seam — quarantine discounts and breaker trips included, applied
//!   once, never re-derived;
//! * a stage output — a [`SeamRecord`]: the data the rest of the pipeline
//!   consumes, each cell stored once (selected ids, degraded payloads,
//!   mappings, each union block's kept rows, clusters), checked against the
//!   session by [`SeamRecord::fits`]. No mapped table and no fused value is
//!   stored: `map_apply` and fuse run live on every pass, resumed or not.
//!
//! There is one codec: every stored type is a [`Wire`] impl composed from
//! the pieces in [`wrangler_table::wire`] — fixed-width little-endian
//! integers, length-prefixed UTF-8, `f64::to_bits` floats, and the generic
//! `Vec`/`Option`/tuple layouts — so a round-trip is bit-exact (including
//! -0.0, subnormals and NaN payloads) and a resumed pass reproduces an
//! uninterrupted run byte-for-byte. A struct's layout is its fields in the
//! order one [`wire_struct!`] lists them; an enum's is the tag byte one
//! [`wire_enum!`] gives its variant, then the variant's fields. Each type
//! carries its own impl: `CircuitBreaker` and `EngineState` beside their
//! private fields, `SourceId`, `Degradation`, `AcquireError`, `Belief`
//! (with `EvidenceKind`) and `Mapping` in their own crates, every one of
//! which depends on `wrangler-table`. This module
//! lists the layouts of the session snapshot, the seam records and the
//! core types inside them; the seam writes a record with
//! [`wire::to_bytes`] and reads it with [`wire::from_bytes`].
//!
//! Decoding is strict. Every read is bounds-checked, every tag and marker
//! byte is checked, a claimed element count reserves no more than the
//! unread input could hold (the generic `Vec` decoder is the one place a
//! count meets an allocation), and a session snapshot or stage record must
//! consume its payload exactly. A truncated, bit-flipped or padded payload
//! that somehow passed the store's checksum is an error, never a panic and
//! never a second spelling of a valid record; the seam treats it as a miss.
//! The select seam's key hashes the acquisition engine's [`EngineState`] in
//! the encoding the snapshot stores it in.
//!
//! Enum tags in this module are part of the durable format: append variants,
//! never renumber.

use wrangler_mapping::Mapping;
use wrangler_sources::faults::{AcquireError, Degradation};
use wrangler_sources::SourceId;
use wrangler_table::wire::{self, Dec, Enc, Wire};
use wrangler_table::{wire_enum, wire_struct, Table, TableError};
use wrangler_uncertainty::Belief;

use crate::acquire::{
    AcquireOutcome, AcquisitionSummary, BreakerConfig, BreakerState, Disposition, EngineState,
};
use crate::contain::{ContainmentReport, QuarantineEvent, Stage, StageTallies};
use crate::working::WorkCounters;

type Result<T> = std::result::Result<T, TableError>;

// ---------------------------------------------------------------------------
// Stored types
// ---------------------------------------------------------------------------

wire_enum!(Stage: "stage" {
    0 => MapGenerate,
    1 => Preflight,
    2 => MapApply,
    3 => Union,
    4 => Er,
    5 => Fuse,
    6 => Assemble,
});

wire_enum!(BreakerState: "breaker state" {
    0 => Closed,
    1 => Open { until: u64 },
    2 => HalfOpen,
});

wire_enum!(Disposition: "disposition" {
    0 => Fresh,
    1 => Degraded(how: Degradation),
    2 => Skipped(why: AcquireError),
    3 => Quarantined,
});

wire_struct!(BreakerConfig {
    failure_threshold: u32,
    cooldown: u64,
    half_open_successes: u32,
});

wire_struct!(AcquireOutcome {
    id: SourceId,
    attempts: u32,
    ticks: u64,
    disposition: Disposition,
});

wire_struct!(AcquisitionSummary {
    outcomes: Vec<AcquireOutcome>,
    skipped: Vec<(SourceId, String)>,
    degraded: Vec<(SourceId, Degradation)>,
    attempts: u64,
    ticks: u64,
});

wire_struct!(QuarantineEvent {
    source: SourceId,
    stage: Stage,
    reason: String,
});

wire_struct!(StageTallies {
    quarantined: u64,
    dropped_rows: u64,
    deadline_hits: u64,
    panics_caught: u64,
});

/// The quarantine events, then every stage's tallies in [`Stage::all`]
/// order (zeroes included).
impl Wire for ContainmentReport {
    const MIN: usize = 8 + 7 * StageTallies::MIN;
    fn enc(&self, e: &mut Enc) {
        self.quarantines.enc(e);
        for stage in Stage::all() {
            self.tallies(stage).enc(e);
        }
    }
    fn dec(d: &mut Dec<'_>) -> Result<ContainmentReport> {
        let mut r = ContainmentReport::default();
        r.quarantines = Vec::dec(d)?;
        for stage in Stage::all() {
            r.set_tallies(stage, StageTallies::dec(d)?);
        }
        Ok(r)
    }
}

wire_struct!(WorkCounters {
    extractions: usize,
    mappings_generated: usize,
    tables_mapped: usize,
    er_pairs: usize,
    slots_fused: usize,
});

// ---------------------------------------------------------------------------
// Session state snapshot
// ---------------------------------------------------------------------------

/// Everything a wrangle pass has mutated up to a seam, in plain data form.
/// The session builds one of these at each seam (and applies one on a
/// checkpoint hit); the struct exists so serialization lives here while the
/// private `Wrangler` fields stay private.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionState {
    /// Session tick at pass start.
    pub now: u64,
    /// Source-access budget spent.
    pub access_spent: f64,
    /// Per-source trust beliefs, in registry order.
    pub trust: Vec<Belief>,
    /// The acquisition engine's clock, lifetime totals and breaker fleet.
    pub acquisition: EngineState,
    /// Work counters.
    pub work: WorkCounters,
    /// The containment report of the pass so far.
    pub creport: ContainmentReport,
    /// The acquisition summary of the pass (empty before the acquire seam).
    pub last_acquisition: AcquisitionSummary,
}

wire_struct!(SessionState {
    now: u64,
    access_spent: f64,
    trust: Vec<Belief>,
    acquisition: EngineState,
    work: WorkCounters,
    creport: ContainmentReport,
    last_acquisition: AcquisitionSummary,
});

// ---------------------------------------------------------------------------
// Stage output records
// ---------------------------------------------------------------------------

/// A full seam record: the session snapshot plus the stage's output bytes,
/// each length-prefixed.
pub fn encode_record(state: &SessionState, output: &[u8]) -> Vec<u8> {
    let mut e = Enc::new();
    e.bytes(&wire::to_bytes(state)).bytes(output);
    e.into_bytes()
}

/// Split a seam record back into `(state, output bytes)`; bytes after the
/// output are an error.
pub fn decode_record(bytes: &[u8]) -> Result<(SessionState, Vec<u8>)> {
    let mut d = Dec::new(bytes);
    let state = wire::from_bytes(d.bytes()?)?;
    let output = d.bytes()?.to_vec();
    if !d.is_done() {
        return Err(TableError::Invalid(
            "checkpoint record: bytes after the stage output".into(),
        ));
    }
    Ok((state, output))
}

/// A stage's seam output: the part of a checkpoint record the rest of the
/// pipeline consumes. The seam protocol (`wrangler::pass`) persists and
/// replays any stage's output through this one interface; its bytes are
/// the record's [`Wire`] encoding ([`wire::to_bytes`] / [`wire::from_bytes`]).
pub trait SeamRecord: Wire {
    /// Does the record fit the session it is about to enter — the part of
    /// validity the bytes alone cannot show? Asked before anything is
    /// restored; a record that does not fit is a miss.
    fn fits(&self, _fit: &Fit<'_>) -> bool {
        true
    }
}

/// What a replayed record must fit: the parts of the session it is about to
/// enter that its bytes alone cannot show.
pub struct Fit<'a> {
    /// Each source's held mapped table, by source index.
    pub mapped: Vec<Option<&'a Table>>,
    /// Rows of the pass's union (0 before the union seam).
    pub union_rows: usize,
}

/// Select-seam output: the chosen sources.
pub struct SelectOut {
    /// Selected source ids, in selection order.
    pub selected: Vec<SourceId>,
}

wire_struct!(SelectOut {
    selected: Vec<SourceId>,
});

impl SeamRecord for SelectOut {}

/// Acquire-seam output: the surviving sources and any degraded payloads
/// (delivered tables that differ from the registry's).
pub struct AcquireOut {
    /// Survivors, in selection order.
    pub selected: Vec<SourceId>,
    /// `(source index, delivered table)` for degraded deliveries.
    pub degraded_tables: Vec<(usize, Table)>,
}

wire_struct!(AcquireOut {
    selected: Vec<SourceId>,
    degraded_tables: Vec<(usize, Table)>,
});

impl SeamRecord for AcquireOut {}

/// Map-generate-seam output: every survivor's mapping (regenerated or
/// carried over) plus the surviving selection.
pub struct MapGenOut {
    /// Survivors after generation quarantines.
    pub selected: Vec<SourceId>,
    /// `(source index, mapping)` for every survivor.
    pub mappings: Vec<(usize, Mapping)>,
}

wire_struct!(MapGenOut {
    selected: Vec<SourceId>,
    mappings: Vec<(usize, Mapping)>,
});

impl SeamRecord for MapGenOut {}

/// Union-seam output: the union's blocks, no cell; the install appends their
/// rows of the mapped tables `map_apply` left in the session.
pub struct UnionOut {
    /// `(source index, kept rows)` per block, in union order (the survivors
    /// after union quarantines): the ascending rows of the source's mapped
    /// table its block keeps, as `(first, count)` runs of consecutive rows.
    pub blocks: Vec<(usize, Vec<(usize, usize)>)>,
    /// Rows removed by the row filter (an obs counter the outcome reports).
    pub union_filtered: u64,
}

wire_struct!(UnionOut {
    union_filtered: u64,
    blocks: Vec<(usize, Vec<(usize, usize)>)>,
});

impl UnionOut {
    /// The runs of consecutive rows in ascending `rows`.
    pub fn row_runs(rows: &[usize]) -> Vec<(usize, usize)> {
        rows.chunk_by(|a, b| a + 1 == *b).map(|run| (run[0], run.len())).collect()
    }
}

/// Every block names a source whose mapped table is held, and its runs
/// ascend within that table.
impl SeamRecord for UnionOut {
    fn fits(&self, fit: &Fit<'_>) -> bool {
        self.blocks.iter().all(|(i, runs)| {
            fit.mapped.get(*i).copied().flatten().is_some_and(|table| {
                let within = |from: usize, &(first, n): &(usize, usize)| {
                    first.checked_add(n).filter(|&end| from <= first && end <= table.num_rows())
                };
                runs.iter().try_fold(0, within).is_some()
            })
        })
    }
}

/// ER-seam output: the clustering; each row's entity is derived from it.
#[derive(Debug, Clone, Default)]
pub struct ErOut {
    /// Entity clusters (row indices into the union).
    pub clusters: Vec<Vec<usize>>,
}

wire_struct!(ErOut {
    clusters: Vec<Vec<usize>>,
});

impl ErOut {
    /// The entity of each of the union's `rows`, which the clusters partition.
    pub fn row_entity(&self, rows: usize) -> Vec<usize> {
        let mut row_entity = vec![0; rows];
        for (e, cluster) in self.clusters.iter().enumerate() {
            cluster.iter().for_each(|&r| row_entity[r] = e);
        }
        row_entity
    }
}

/// The clusters partition the union's rows: none is empty, and every row
/// is in exactly one.
impl SeamRecord for ErOut {
    fn fits(&self, fit: &Fit<'_>) -> bool {
        let mut seen = vec![false; fit.union_rows];
        let mut once = |&r: &usize| seen.get_mut(r).is_some_and(|s| !std::mem::replace(s, true));
        self.clusters.iter().all(|c| !c.is_empty() && c.iter().all(&mut once))
            && self.clusters.iter().map(Vec::len).sum::<usize>() == fit.union_rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acquire::CircuitBreaker;
    use wrangler_table::{Schema, Value};
    use wrangler_uncertainty::{Evidence, EvidenceKind};

    fn sample_state() -> SessionState {
        let mut trust = Belief::from_prior(0.6);
        trust.update(&Evidence::vote(EvidenceKind::Component, false, 0.8).discounted(0.9));
        let mut creport = ContainmentReport::default();
        creport.record_quarantine(SourceId(3), Stage::Union, "poison");
        creport.drop_rows(Stage::Union, 12);
        creport.caught_panic(Stage::MapGenerate);
        SessionState {
            now: 42,
            access_spent: 7.25,
            trust: vec![Belief::from_prior(0.6), trust],
            acquisition: EngineState {
                clock: 99,
                total_attempts: 17,
                total_backoff_ticks: 31,
                breakers: vec![
                    CircuitBreaker::new(BreakerConfig::default()),
                    CircuitBreaker::from_parts(
                        BreakerConfig::default(),
                        BreakerState::Open { until: 123 },
                        3,
                        0,
                    ),
                    CircuitBreaker::from_parts(
                        BreakerConfig::default(),
                        BreakerState::HalfOpen,
                        0,
                        1,
                    ),
                ],
            },
            work: WorkCounters {
                extractions: 1,
                mappings_generated: 2,
                tables_mapped: 3,
                er_pairs: 4,
                slots_fused: 5,
            },
            creport,
            last_acquisition: AcquisitionSummary {
                outcomes: vec![
                    AcquireOutcome {
                        id: SourceId(0),
                        attempts: 1,
                        ticks: 2,
                        disposition: Disposition::Fresh,
                    },
                    AcquireOutcome {
                        id: SourceId(1),
                        attempts: 3,
                        ticks: 9,
                        disposition: Disposition::Skipped(AcquireError::DeadlineExceeded {
                            source: SourceId(1),
                            latency: 30,
                            deadline: 8,
                        }),
                    },
                    AcquireOutcome {
                        id: SourceId(2),
                        attempts: 1,
                        ticks: 1,
                        disposition: Disposition::Degraded(Degradation::Truncated {
                            kept: 5,
                            total: 10,
                        }),
                    },
                    AcquireOutcome {
                        id: SourceId(3),
                        attempts: 0,
                        ticks: 0,
                        disposition: Disposition::Quarantined,
                    },
                ],
                skipped: vec![(SourceId(1), "deadline".into())],
                degraded: vec![(SourceId(2), Degradation::Truncated { kept: 5, total: 10 })],
                attempts: 5,
                ticks: 12,
            },
        }
    }

    #[test]
    fn session_state_roundtrips_bit_exact() {
        let s = sample_state();
        let bytes = wire::to_bytes(&s);
        let back: SessionState = wire::from_bytes(&bytes).unwrap();
        assert_eq!(back, s);
        // Bit-exactness of the floats, not just PartialEq.
        assert_eq!(
            back.access_spent.to_bits(),
            s.access_spent.to_bits()
        );
        assert_eq!(wire::to_bytes(&back), bytes, "canonical: re-encode is identical");
    }

    #[test]
    fn record_framing_roundtrips() {
        let s = sample_state();
        let out = wire::to_bytes(&SelectOut {
            selected: vec![SourceId(0), SourceId(2)],
        });
        let rec = encode_record(&s, &out);
        let (s2, out2) = decode_record(&rec).unwrap();
        assert_eq!(s2, s);
        assert_eq!(out2, out);
        let sel = wire::from_bytes::<SelectOut>(&out2).unwrap();
        assert_eq!(sel.selected, vec![SourceId(0), SourceId(2)]);
    }

    type Decode = fn(&[u8]) -> Result<()>;

    /// One valid payload per decoder this module exports: the session
    /// snapshot, a framed record, and the five stage records.
    fn payloads() -> Vec<(&'static str, Vec<u8>, Decode)> {
        fn rec<R: SeamRecord>(bytes: &[u8]) -> Result<()> {
            wire::from_bytes::<R>(bytes).map(drop)
        }
        let select = SelectOut {
            selected: vec![SourceId(0), SourceId(2)],
        };
        vec![
            ("SessionState", wire::to_bytes(&sample_state()), |b| {
                wire::from_bytes::<SessionState>(b).map(drop)
            }),
            (
                "record",
                encode_record(&sample_state(), &wire::to_bytes(&select)),
                |b| decode_record(b).map(drop),
            ),
            ("SelectOut", wire::to_bytes(&select), rec::<SelectOut>),
            (
                "AcquireOut",
                wire::to_bytes(&sample_acquire()),
                rec::<AcquireOut>,
            ),
            (
                "MapGenOut",
                wire::to_bytes(&sample_map_gen()),
                rec::<MapGenOut>,
            ),
            ("UnionOut", wire::to_bytes(&sample_union()), rec::<UnionOut>),
            ("ErOut", wire::to_bytes(&sample_er()), rec::<ErOut>),
        ]
    }

    fn sample_table() -> Table {
        let mut t = Table::empty(Schema::of_strs(&["name", "price"]));
        t.push_row(vec![Value::Str("a".into()), Value::Float(-0.0)])
            .unwrap();
        t
    }

    fn sample_acquire() -> AcquireOut {
        AcquireOut {
            selected: vec![SourceId(1)],
            degraded_tables: vec![(1, sample_table())],
        }
    }

    fn sample_union() -> UnionOut {
        UnionOut {
            blocks: vec![(0, vec![(0, 2), (3, 1)]), (1, vec![])],
            union_filtered: 2,
        }
    }

    fn sample_er() -> ErOut {
        ErOut {
            clusters: vec![vec![0, 2], vec![1]],
        }
    }

    fn sample_map_gen() -> MapGenOut {
        MapGenOut {
            selected: vec![SourceId(0)],
            mappings: vec![(
                0,
                Mapping {
                    target: Schema::of_strs(&["name", "price"]),
                    bindings: vec![Some(1), None],
                    binding_beliefs: vec![Belief::from_prior(0.8), Belief::uninformed()],
                    belief: Belief::from_prior(0.7),
                },
            )],
        }
    }

    #[test]
    fn every_truncation_errors_cleanly() {
        for (name, bytes, decode) in payloads() {
            decode(&bytes).unwrap_or_else(|e| panic!("{name}: fixture must decode: {e}"));
            for cut in 0..bytes.len() {
                assert!(
                    decode(&bytes[..cut]).is_err(),
                    "{name}: cut at {cut} of {} must error",
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn a_byte_past_the_end_of_a_valid_record_does_not_decode() {
        for (name, mut bytes, decode) in payloads() {
            bytes.push(0);
            assert!(
                decode(&bytes).is_err(),
                "{name}: a trailing byte must error"
            );
        }
    }

    #[test]
    fn stage_outputs_roundtrip() {
        let acq = sample_acquire();
        let back = wire::from_bytes::<AcquireOut>(&wire::to_bytes(&acq)).unwrap();
        assert_eq!(back.selected, acq.selected);
        assert_eq!(
            wire::table_hash(&back.degraded_tables[0].1),
            wire::table_hash(&sample_table())
        );

        let union = sample_union();
        let back = wire::from_bytes::<UnionOut>(&wire::to_bytes(&union)).unwrap();
        assert_eq!(back.union_filtered, 2);
        assert_eq!(back.blocks, union.blocks);

        let er = sample_er();
        let back = wire::from_bytes::<ErOut>(&wire::to_bytes(&er)).unwrap();
        assert_eq!(back.clusters, er.clusters);
        assert_eq!(back.row_entity(3), vec![0, 1, 0]);
    }

    #[test]
    fn records_fit_only_the_session_they_name() {
        let three = Table::from_rows(
            sample_table().schema().clone(),
            (0..3).map(|_| vec![Value::Null, Value::Null]).collect(),
        )
        .unwrap();
        let fit = |union_rows| Fit {
            mapped: vec![Some(&three), Some(&three), None],
            union_rows,
        };
        assert_eq!(UnionOut::row_runs(&[0, 1, 2, 5, 7, 8]), [(0, 3), (5, 1), (7, 2)]);
        assert_eq!(UnionOut::row_runs(&[]), []);
        let union = |blocks: Vec<(usize, Vec<(usize, usize)>)>| UnionOut {
            blocks,
            ..sample_union()
        };
        assert!(union(vec![(1, vec![(0, 1), (2, 1)]), (0, vec![])]).fits(&fit(0)));
        assert!(union(vec![(1, vec![(0, 1), (1, 2)])]).fits(&fit(0)));
        assert!(!union(vec![(0, vec![(1, 3)])]).fits(&fit(0)), "a row past the table");
        assert!(!union(vec![(0, vec![(1, usize::MAX)])]).fits(&fit(0)), "no end");
        assert!(!union(vec![(2, vec![])]).fits(&fit(0)), "no held table");
        assert!(!union(vec![(9, vec![])]).fits(&fit(0)), "no such source");
        assert!(!union(vec![(0, vec![(2, 1), (0, 1)])]).fits(&fit(0)), "out of order");
        assert!(!union(vec![(0, vec![(0, 2), (1, 1)])]).fits(&fit(0)), "a row kept twice");

        let er = |clusters: Vec<Vec<usize>>| ErOut { clusters };
        assert!(sample_er().fits(&fit(3)));
        assert!(!sample_er().fits(&fit(4)), "a row in no cluster");
        assert!(!sample_er().fits(&fit(2)), "a row past the union");
        assert!(!er(vec![vec![0, 1], vec![1, 2]]).fits(&fit(3)), "a row twice");
        assert!(!er(vec![vec![0, 1, 2], vec![]]).fits(&fit(3)), "an empty cluster");
    }

    #[test]
    fn mapping_roundtrips() {
        let gen = sample_map_gen();
        let m = &gen.mappings[0].1;
        let back = wire::from_bytes::<MapGenOut>(&wire::to_bytes(&gen)).unwrap();
        assert_eq!(back.mappings[0].1.bindings, m.bindings);
        assert_eq!(
            back.mappings[0].1.belief.log_odds().to_bits(),
            m.belief.log_odds().to_bits()
        );
    }

    #[test]
    fn every_single_byte_flip_errors_or_decodes_never_panics() {
        // Errors are fine, and a lucky flip may even decode to different
        // valid data — the store's checksum is what rejects those.
        for (_, mut bytes, decode) in payloads() {
            for i in 0..bytes.len() {
                bytes[i] ^= 0xff;
                let _ = decode(&bytes);
                bytes[i] ^= 0xff;
            }
        }
    }

    #[test]
    fn a_forged_element_count_reserves_no_more_than_the_input_holds() {
        // 16 bytes whose every length field claims 2^40 elements.
        let mut forged = Enc::new();
        forged.u64(1 << 40).u64(1 << 40);
        let forged = forged.into_bytes();
        let mut d = Dec::new(&forged);
        let claimed = d.usize().unwrap();
        assert!(d.cap(claimed, 1) <= 16);
        assert_eq!(d.cap(claimed, 8), 1);
        for (name, _, decode) in payloads() {
            assert!(decode(&forged).is_err(), "{name}: forged count must error");
        }
    }
}
