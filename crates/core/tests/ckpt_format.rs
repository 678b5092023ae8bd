//! The checkpoint format, pinned from outside the codec.
//!
//! * **Golden bytes.** One session snapshot and one record of each seam
//!   type, committed as hex. All but three were written by the format-3
//!   codec and are unchanged in format 7 (the checkpoint store's `VERSION`
//!   7): the union and ER records were re-pinned in format 5, when the
//!   union record became each block's kept rows and the ER record its
//!   clusters alone, and the session snapshot in format 6, when it stopped
//!   holding per-source relevances. Format 7 dropped the map-apply record
//!   and moved no other byte. The fuse record went later without a format
//!   change — it was the last link of the key chain, so no surviving
//!   record's bytes or key moved — and its golden with it. Each decodes
//!   and re-encodes to the same bytes: a codec change that moves one byte
//!   fails here before it strands a store written by the previous build.
//! * **Older formats are not served.** A record framed by a format-3, 4, 5
//!   or 6 build is a miss, however intact its checksum.
//! * **Canonical decoding.** Seeded mutations of those records — cut,
//!   bit-flipped, spliced — either fail to decode or decode to a value that
//!   re-encodes to exactly the mutated bytes. A decoder that accepted two
//!   spellings of one value, or ignored bytes it did not read, would let two
//!   different payloads stand for one record.
//!
//! The samples carry a NaN, a negative zero, every breaker state, a
//! quarantine and an unbound mapping field.

use wrangler_core::ckpt_io::{AcquireOut, ErOut, MapGenOut, SeamRecord, SelectOut, UnionOut};
use wrangler_core::{scratch_dir, CheckpointStore, SessionState};
use wrangler_table::wire::{self, hash64};
use wrangler_table::TableError;

type Reencode = fn(&[u8]) -> Result<Vec<u8>, TableError>;

fn reencode<R: SeamRecord>(bytes: &[u8]) -> Result<Vec<u8>, TableError> {
    wire::from_bytes::<R>(bytes).map(|r| wire::to_bytes(&r))
}

/// The decode-then-encode of each golden record, by name.
fn codec(name: &str) -> Reencode {
    match name {
        "SessionState" => |b| wire::from_bytes::<SessionState>(b).map(|s| wire::to_bytes(&s)),
        "SelectOut" => reencode::<SelectOut>,
        "AcquireOut" => reencode::<AcquireOut>,
        "MapGenOut" => reencode::<MapGenOut>,
        "UnionOut" => reencode::<UnionOut>,
        "ErOut" => reencode::<ErOut>,
        _ => panic!("no codec for {name}"),
    }
}

const GOLDEN: &[(&str, &str)] = &[
    (
        "SessionState",
        concat!(
            "2a000000000000000000000000001d4002000000000000004998bfec23f3d93f4998bfec23f3d93f",
            "0000000000000000fef5ba4ceab0e9bf4998bfec23f3d93f01000000000000000801000000630000",
            "000000000011000000000000001f0000000000000003000000000000000300000018000000000000",
            "000200000000000000000000000003000000180000000000000002000000017b0000000000000003",
            "00000000000000030000001800000000000000020000000200000000010000000100000000000000",
            "02000000000000000300000000000000040000000000000005000000000000000100000000000000",
            "03000000030600000000000000706f69736f6e000000000000000000000000000000000000000000",
            "00000001000000000000000000000000000000000000000000000000000000000000000000000000",
            "00000000000000000000000000000000000000000000000000000000000000000000000100000000",
            "0000000c000000000000000000000000000000000000000000000000000000000000000000000000",
            "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
            "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
            "00000004000000000000000000000001000000020000000000000000010000000300000009000000",
            "000000000203010000001e0000000000000002000000010000000100000000000000010504000000",
            "0000000003000000000000000000000000000000030100000000000000010000000c000000000000",
            "0072617465206c696d697465640100000000000000020000000005000000000000000a0000000000",
            "000005000000000000000c00000000000000",
        ),
    ),
    ("SelectOut", "0300000000000000000000000200000007000000"),
    (
        "AcquireOut",
        concat!(
            "02000000000000000100000004000000010000000000000004000000000000000200000000000000",
            "04000000000000006e616d6504010500000000000000707269636504010300000000000000040100",
            "0000000000007800010103000000000000f87f02fdffffffffffffff030000000000000080",
        ),
    ),
    (
        "MapGenOut",
        concat!(
            "01000000000000000000000001000000000000000000000000000000030000000000000004000000",
            "000000006e616d65040105000000000000007072696365040105000000000000006272616e640401",
            "0300000000000000010100000000000000000100000000000000000300000000000000f039fafe42",
            "2ef63ff039fafe422ef63f0000000000000000000000000000000000000000000000000000000000",
            "00000099ae0a67101debbf99ae0a67101debbf000000000000000098ae0a67101deb3f98ae0a6710",
            "1deb3f0000000000000000",
        ),
    ),
    (
        "UnionOut",
        concat!(
            "02000000000000000200000000000000040000000000000002000000000000000000000000000000",
            "02000000000000000300000000000000010000000000000000000000000000000000000000000000",
        ),
    ),
    (
        "ErOut",
        concat!(
            "02000000000000000200000000000000000000000000000002000000000000000100000000000000",
            "0100000000000000",
        ),
    ),
];

/// The map-apply record as the format-6 codec wrote it — the last format
/// with one: two mapped tables with their shapes (`PostMap` with no budget,
/// `Union` with `Some(1000)`). No decoder for it is left.
const MAP_APPLY_V6: &str = concat!(
    "02000000000000000100000004000000020000000000000001000000000000000200000000000000",
    "04000000000000006e616d6504010500000000000000707269636504010300000000000000040100",
    "0000000000007800010103000000000000f87f02fdffffffffffffff030000000000000080010004",
    "00000000000000020000000000000004000000000000006e616d6504010500000000000000707269",
    "6365040103000000000000000401000000000000007800010103000000000000f87f02fdffffffff",
    "ffffff0300000000000000800001e803000000000000",
);

/// The map-apply record as the format-3 codec wrote it: the first mapped
/// table tagged `"post-map|price > 0"`, the second untagged.
const MAP_APPLY_V3: &str = concat!(
    "02000000000000000100000004000000020000000000000001000000000000000200000000000000",
    "04000000000000006e616d6504010500000000000000707269636504010300000000000000040100",
    "0000000000007800010103000000000000f87f02fdffffffffffffff030000000000000080011200",
    "000000000000706f73742d6d61707c7072696365203e203004000000000000000200000000000000",
    "04000000000000006e616d6504010500000000000000707269636504010300000000000000040100",
    "0000000000007800010103000000000000f87f02fdffffffffffffff03000000000000008000",
);

/// The union golden as the format-4 codec wrote it: the union's table and
/// its source runs.
const UNION_V4: &str = concat!(
    "02000000000000000000000004000000020000000000000002000000000000000400000000000000",
    "6e616d65040105000000000000007072696365040103000000000000000401000000000000007801",
    "010003000000000000f87f03000000000000008002fdffffffffffffff0200000000000000000000",
    "0000000000020000000000000004000000000000000100000000000000",
);

/// The session-snapshot golden as the format-5 codec wrote it: with the
/// per-source relevances `[1.0, 0.5]` after the trust beliefs.
const SESSION_STATE_V5: &str = concat!(
    "2a000000000000000000000000001d4002000000000000004998bfec23f3d93f4998bfec23f3d93f",
    "0000000000000000fef5ba4ceab0e9bf4998bfec23f3d93f01000000000000000801000000020000",
    "0000000000000000000000f03f000000000000e03f630000000000000011000000000000001f0000",
    "00000000000300000000000000030000001800000000000000020000000000000000000000000300",
    "0000180000000000000002000000017b000000000000000300000000000000030000001800000000",
    "00000002000000020000000001000000010000000000000002000000000000000300000000000000",
    "04000000000000000500000000000000010000000000000003000000030600000000000000706f69",
    "736f6e00000000000000000000000000000000000000000000000001000000000000000000000000",
    "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000001000000000000000c000000000000000000000000",
    "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "00000000000000000000000000000000000000000000000000000004000000000000000000000001",
    "000000020000000000000000010000000300000009000000000000000203010000001e0000000000",
    "00000200000001000000010000000000000001050400000000000000030000000000000000000000",
    "00000000030100000000000000010000000c0000000000000072617465206c696d69746564010000",
    "0000000000020000000005000000000000000a0000000000000005000000000000000c0000000000",
    "0000",
);

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

fn golden() -> impl Iterator<Item = (&'static str, Vec<u8>, Reencode)> {
    GOLDEN
        .iter()
        .map(|&(name, hex)| (name, unhex(hex), codec(name)))
}

#[test]
fn golden_records_decode_and_reencode_to_the_same_bytes() {
    for (name, bytes, reencode) in golden() {
        let back = reencode(&bytes).unwrap_or_else(|e| panic!("{name}: golden must decode: {e}"));
        assert!(back == bytes, "{name}: re-encoding the golden bytes moved them");
    }
}

/// splitmix64: a seeded stream with no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// One mutation of `bytes`: a cut, a bit flip, or a splice (a run of bytes
/// deleted, duplicated in place, or replaced by random ones).
fn mutate(rng: &mut Rng, bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let at = rng.below(bytes.len() + 1);
    let end = (at + 1 + rng.below(16)).min(bytes.len());
    match rng.below(5) {
        0 => out.truncate(at),
        1 => out[rng.below(bytes.len())] ^= 1 << rng.below(8),
        2 => {
            out.drain(at..end);
        }
        3 => {
            out.splice(at..at, bytes[at..end].to_vec());
        }
        _ => {
            let noise: Vec<u8> = (at..=end).map(|_| rng.next() as u8).collect();
            out.splice(at..at, noise);
        }
    }
    out
}

#[test]
fn a_mutated_record_fails_to_decode_or_is_its_own_canonical_encoding() {
    let mut rng = Rng(0x00c0_ffee);
    for (name, bytes, reencode) in golden() {
        let mut decoded = 0;
        for round in 0..2_000 {
            let mutated = mutate(&mut rng, &bytes);
            if let Ok(back) = reencode(&mutated) {
                assert!(
                    back == mutated,
                    "{name}: mutation {round} decoded but re-encodes to other bytes"
                );
                decoded += 1;
            }
        }
        // Flips inside float payloads decode: both sides of the property
        // must have been exercised.
        assert!(decoded > 0, "{name}: no mutation decoded");
    }
}

/// A store written by a format-3, 4, 5 or 6 build is a miss for this one,
/// checksum intact or not: format 3's map-apply records spell a shape as a
/// filter tag, format 4's union records hold the union's cells, format 5's
/// session snapshots hold relevances, and format 6 still wrote map-apply
/// records, which nothing reads any more. The same payload framed by this
/// build is served. Where a decoder for the payload's type is left, the
/// payload does not decode under it either.
#[test]
fn a_record_written_under_an_older_format_is_never_served() {
    let older: [(u16, &str, Option<Reencode>); 4] = [
        (3, MAP_APPLY_V3, None),
        (4, UNION_V4, Some(reencode::<UnionOut>)),
        (5, SESSION_STATE_V5, Some(codec("SessionState"))),
        (6, MAP_APPLY_V6, None),
    ];
    for (version, hex, reencode) in older {
        let payload = unhex(hex);
        if let Some(reencode) = reencode {
            assert!(
                reencode(&payload).is_err(),
                "format {version} does not decode as format 7"
            );
        }
        let store = CheckpointStore::open(scratch_dir(&format!("ckpt-format-v{version}"))).unwrap();
        let mut old = b"WCKP".to_vec();
        old.extend(version.to_le_bytes());
        old.extend([0, 0]);
        old.extend((payload.len() as u64).to_le_bytes());
        old.extend(hash64(&payload).to_le_bytes());
        old.extend(&payload);
        std::fs::write(store.path_for(3), &old).unwrap();
        assert_eq!(store.get(3), None, "format {version}");
        assert_eq!(store.stats().torn_detected, 1);
        store.put(4, &payload).unwrap();
        let current = std::fs::read(store.path_for(4)).unwrap();
        assert_eq!(
            (&current[..4], &current[6..]),
            (&old[..4], &old[6..]),
            "only the version differs"
        );
        assert_eq!(store.get(4), Some(payload));
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
