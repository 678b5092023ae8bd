//! `wrangler-ckpt` — the durable substrate for crash-resilient wrangling.
//!
//! The paper frames wrangling as a long-running, pay-as-you-go process over
//! unreliable fleets. PRs 1 and 5 made the *pipeline* survive bad sources
//! and mid-stage panics; this crate makes the *process* survivable: an OOM
//! kill, node restart or deploy mid-wrangle no longer throws away the pass.
//!
//! Three pieces:
//!
//! * [`CheckpointStore`] — a directory of content-keyed records. Every write
//!   is **atomic** (temp file + rename, so a reader never observes a partial
//!   record under POSIX rename semantics) and **checksummed** (FNV-1a-64
//!   over the payload, plus magic/version/length framing), so a torn or
//!   bit-flipped record is *detected and recomputed, never trusted* — a
//!   corrupt checkpoint is strictly a cache miss.
//! * [`ContentKey`] — key derivation for stage records: mix the stage id,
//!   the pass fingerprint and the payload hashes feeding the stage into one
//!   64-bit key. Equal inputs ⇒ equal key ⇒ replay; any changed
//!   input ⇒ different key ⇒ recompute. This is the foundation the
//!   ROADMAP's incremental dataflow engine builds on.
//! * [`CrashPolicy`] — the seeded crash-injection harness. Library-level
//!   tests arm it in `Panic` mode and catch the unwind; the E17 bench
//!   re-execs itself and arms the child in `Exit` mode so the process
//!   actually dies at a stage boundary (or mid-ER), then resumes in a fresh
//!   process and must reproduce the uninterrupted output byte-for-byte.
//!
//! The store deliberately knows nothing about pipeline stages — it moves
//! opaque byte payloads. Stage serialization lives next to the stages
//! (`wrangler_table::wire` for tables/values, `wrangler-core`'s `ckpt_io`
//! for session state), keeping this crate the single sanctioned home of
//! durable file writes (`scripts/lint.sh` rule 6).

use std::cell::Cell;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use wrangler_table::wire::{hash64, Hasher64};

/// File magic for checkpoint records ("WCKP").
const MAGIC: [u8; 4] = *b"WCKP";
/// Format version; bump on any layout change. 4: a mapped table's typed
/// shape, not a filter tag; 5: union records kept rows, ER records clusters;
/// 6: the session snapshot holds no per-source relevance; 7: no map-apply
/// record.
const VERSION: u16 = 7;
/// Fixed header size: magic(4) + version(2) + pad(2) + len(8) + checksum(8).
const HEADER: usize = 24;

/// Write `bytes` to `path` atomically: write to a sibling temp file, flush,
/// then rename over the destination. A crash at any point leaves either the
/// old file or the new one — never a prefix. The temp name is derived from
/// the destination plus the process id, so concurrent writers in different
/// processes cannot collide on it.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    fs::create_dir_all(dir)?;
    let file_name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "ckpt".to_string());
    let tmp = dir.join(format!(".{file_name}.tmp.{}", std::process::id()));
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        // Flush file contents before the rename makes them visible. (No
        // fsync: the threat model here is process death, not power loss —
        // the OS survives an OOM kill with its page cache intact.)
        f.flush()?;
    }
    match fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            // Leave no droppings on failure.
            let _ = fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Counters the store keeps about itself; the session mirrors them into
/// `ckpt.<stage>.*` telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CkptStats {
    /// Records served from disk with a valid checksum.
    pub hits: u64,
    /// Lookups that found no record.
    pub misses: u64,
    /// Payload bytes written (excluding headers).
    pub bytes_written: u64,
    /// Records found torn/corrupt (bad magic, short file, length or
    /// checksum mismatch) and treated as misses.
    pub torn_detected: u64,
}

/// A directory-backed, content-keyed checkpoint store.
///
/// Records are opaque byte payloads under 64-bit keys; a record file is
/// `<key as hex>.ckpt` containing a checksummed header plus the payload.
/// `get` never returns a payload whose checksum does not verify.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    hits: Cell<u64>,
    misses: Cell<u64>,
    bytes_written: Cell<u64>,
    torn: Cell<u64>,
}

impl CheckpointStore {
    /// Open (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<CheckpointStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(CheckpointStore {
            dir,
            hits: Cell::new(0),
            misses: Cell::new(0),
            bytes_written: Cell::new(0),
            torn: Cell::new(0),
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Counters so far (this handle's view; counters are per-handle, the
    /// records themselves are shared through the filesystem).
    pub fn stats(&self) -> CkptStats {
        CkptStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            bytes_written: self.bytes_written.get(),
            torn_detected: self.torn.get(),
        }
    }

    /// On-disk path of the record for `key` (whether or not one exists).
    /// Exposed for diagnostics and corruption-injection tests.
    pub fn path_for(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.ckpt"))
    }

    /// Persist `payload` under `key`, atomically. An existing record for the
    /// key is replaced (content-keyed records are immutable in practice —
    /// same key means same content — but named records like the session head
    /// rely on replacement).
    pub fn put(&self, key: u64, payload: &[u8]) -> std::io::Result<()> {
        let mut buf = Vec::with_capacity(HEADER + payload.len());
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&[0u8; 2]);
        buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        buf.extend_from_slice(&hash64(payload).to_le_bytes());
        buf.extend_from_slice(payload);
        write_atomic(&self.path_for(key), &buf)?;
        self.bytes_written
            .set(self.bytes_written.get() + payload.len() as u64);
        Ok(())
    }

    /// Load the payload stored under `key`, verifying the framing and
    /// checksum. Returns `None` — counting a miss, or `torn_detected` when a
    /// record exists but fails verification — rather than ever surfacing
    /// corrupt bytes. A torn record is additionally unlinked so the slot
    /// heals on the next `put`.
    pub fn get(&self, key: u64) -> Option<Vec<u8>> {
        let path = self.path_for(key);
        let raw = match fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                self.misses.set(self.misses.get() + 1);
                return None;
            }
        };
        match Self::verify(&raw) {
            Some(payload) => {
                self.hits.set(self.hits.get() + 1);
                Some(payload.to_vec())
            }
            None => {
                self.torn.set(self.torn.get() + 1);
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Verify framing + checksum; `Some(payload)` only when everything
    /// checks out.
    fn verify(raw: &[u8]) -> Option<&[u8]> {
        if raw.len() < HEADER || raw[..4] != MAGIC {
            return None;
        }
        let version = u16::from_le_bytes([raw[4], raw[5]]);
        if version != VERSION || raw[6..8] != [0, 0] {
            return None;
        }
        let len = u64::from_le_bytes(raw[8..16].try_into().ok()?) as usize;
        let checksum = u64::from_le_bytes(raw[16..24].try_into().ok()?);
        let payload = &raw[HEADER..];
        if payload.len() != len || hash64(payload) != checksum {
            return None;
        }
        Some(payload)
    }

    /// Number of record files currently in the store (diagnostics only;
    /// order-independent).
    pub fn num_records(&self) -> usize {
        fs::read_dir(&self.dir)
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .filter(|e| e.path().extension().is_some_and(|x| x == "ckpt"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Corrupt every record in the store for torn-write testing: truncate
    /// records at `truncate_at` fraction of their length, or bit-flip one
    /// payload byte when `truncate_at` is `None`. Returns how many records
    /// were damaged. Test/bench harness API — the pipeline never calls this.
    pub fn corrupt_all_records(&self, truncate_at: Option<f64>) -> usize {
        let mut n = 0;
        let Ok(rd) = fs::read_dir(&self.dir) else {
            return 0;
        };
        let mut paths: Vec<PathBuf> = rd
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
            .collect();
        paths.sort();
        for p in paths {
            let Ok(mut bytes) = fs::read(&p) else {
                continue;
            };
            match truncate_at {
                Some(frac) => {
                    let keep = ((bytes.len() as f64) * frac) as usize;
                    bytes.truncate(keep);
                }
                None => {
                    if bytes.len() > HEADER {
                        let mid = HEADER + (bytes.len() - HEADER) / 2;
                        bytes[mid] ^= 0x20;
                    } else {
                        bytes.clear();
                    }
                }
            }
            // Direct (non-atomic) write on purpose: we are *simulating* the
            // torn state the atomic path prevents.
            if fs::write(&p, &bytes).is_ok() {
                n += 1;
            }
        }
        n
    }
}

/// Builder for stage content keys: stage id + pass fingerprint + input
/// payload hashes, mixed through the canonical hasher. Key equality is the
/// replay condition, so every ingredient that can change a stage's output
/// must be absorbed.
#[derive(Debug, Clone)]
pub struct ContentKey {
    h: Hasher64,
}

impl ContentKey {
    /// Start a key for `stage` under `pass_fingerprint`.
    pub fn stage(stage: &str, pass_fingerprint: u64) -> ContentKey {
        let mut h = Hasher64::new();
        h.write_str(stage).write_u64(pass_fingerprint);
        ContentKey { h }
    }

    /// Absorb one upstream payload/content hash.
    pub fn input(mut self, hash: u64) -> ContentKey {
        self.h.write_u64(hash);
        self
    }

    /// Absorb a labelled hash (label disambiguates ingredient kinds).
    pub fn labelled(mut self, label: &str, hash: u64) -> ContentKey {
        self.h.write_str(label).write_u64(hash);
        self
    }

    /// The finished 64-bit key.
    pub fn finish(&self) -> u64 {
        self.h.finish()
    }
}

/// Where an injected crash fires, named after the seam it follows. The
/// sites mirror the five checkpoint seams in `Wrangler::wrangle` plus one
/// mid-stage site inside ER (after blocking, before any pair is decided) —
/// the "process died with a checkpoint prefix on disk but the current stage
/// incomplete" case. A stage without a seam (`map_apply` and fuse among
/// them) has no site: it writes no record, so a crash after it leaves the
/// store a crash after the seam before it leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashSite {
    /// After source selection is checkpointed.
    AfterSelect,
    /// After acquisition is checkpointed.
    AfterAcquire,
    /// After mapping generation is checkpointed.
    AfterMapGenerate,
    /// After the union is checkpointed.
    AfterUnion,
    /// Inside the ER stage, mid-computation.
    MidEr,
    /// After ER is checkpointed.
    AfterEr,
}

impl CrashSite {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            CrashSite::AfterSelect => "after-select",
            CrashSite::AfterAcquire => "after-acquire",
            CrashSite::AfterMapGenerate => "after-map-generate",
            CrashSite::AfterUnion => "after-union",
            CrashSite::MidEr => "mid-er",
            CrashSite::AfterEr => "after-er",
        }
    }

    /// Every site, in pipeline order (the E17 sweep axis).
    pub fn all() -> [CrashSite; 6] {
        [
            CrashSite::AfterSelect,
            CrashSite::AfterAcquire,
            CrashSite::AfterMapGenerate,
            CrashSite::AfterUnion,
            CrashSite::MidEr,
            CrashSite::AfterEr,
        ]
    }

    /// Parse a site from its `name()` (the E17 parent→child env protocol).
    pub fn parse(s: &str) -> Option<CrashSite> {
        CrashSite::all().into_iter().find(|c| c.name() == s)
    }
}

/// How the injected crash manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    /// Panic with a recognizable payload — library-level tests catch the
    /// unwind and then resume in a fresh session, simulating process death
    /// without needing a child process.
    Panic,
    /// `std::process::exit` with this code — the E17 bench's child really
    /// dies at the seam; the parent observes the exit code.
    Exit(i32),
}

/// A one-shot injected crash at a pipeline seam. Deterministic: fires at
/// exactly the armed site, every time, so crash/resume experiments are
/// seeded by *which* site is armed rather than by a probability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPolicy {
    /// Where to crash.
    pub site: CrashSite,
    /// How to crash.
    pub mode: CrashMode,
}

/// Panic message prefix of `CrashMode::Panic` firings; tests match on it to
/// distinguish an injected crash from a real defect.
pub const CRASH_PANIC_PREFIX: &str = "injected crash:";

impl CrashPolicy {
    /// Crash at `site` by panicking (for in-process tests).
    pub fn panic_at(site: CrashSite) -> CrashPolicy {
        CrashPolicy {
            site,
            mode: CrashMode::Panic,
        }
    }

    /// Crash at `site` by exiting with `code` (for the process-level E17
    /// harness).
    pub fn exit_at(site: CrashSite, code: i32) -> CrashPolicy {
        CrashPolicy {
            site,
            mode: CrashMode::Exit(code),
        }
    }

    /// Fire if `site` is the armed site. `Exit` does not return; `Panic`
    /// unwinds with [`CRASH_PANIC_PREFIX`] in the message.
    pub fn fire(&self, site: CrashSite) {
        if site != self.site {
            return;
        }
        match self.mode {
            CrashMode::Panic => {
                // The whole point of the crash harness is to die here.
                panic!("{CRASH_PANIC_PREFIX} {}", site.name()); // lint-allow: injected crash
            }
            CrashMode::Exit(code) => std::process::exit(code),
        }
    }
}

/// A scratch directory for checkpoint tests/benches, inside the workspace
/// `target/` tree (never outside the repo). Unique per label + process so
/// parallel tests do not collide; callers remove it when done.
pub fn scratch_dir(label: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("target")
        .join("ckpt-scratch");
    root.join(format!("{label}-{}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(label: &str) -> CheckpointStore {
        let dir = scratch_dir(label);
        let _ = fs::remove_dir_all(&dir);
        CheckpointStore::open(dir).unwrap()
    }

    #[test]
    fn put_get_roundtrip_and_stats() {
        let s = store("roundtrip");
        assert_eq!(s.get(1), None);
        s.put(1, b"hello checkpoint").unwrap();
        assert_eq!(s.get(1).as_deref(), Some(&b"hello checkpoint"[..]));
        let st = s.stats();
        assert_eq!((st.hits, st.misses, st.torn_detected), (1, 1, 0));
        assert_eq!(st.bytes_written, 16);
        let _ = fs::remove_dir_all(s.dir());
    }

    #[test]
    fn overwrite_replaces_payload() {
        let s = store("overwrite");
        s.put(9, b"v1").unwrap();
        s.put(9, b"v2-longer").unwrap();
        assert_eq!(s.get(9).as_deref(), Some(&b"v2-longer"[..]));
        let _ = fs::remove_dir_all(s.dir());
    }

    #[test]
    fn truncated_record_is_detected_never_loaded() {
        let s = store("torn");
        s.put(7, b"payload-that-will-be-torn").unwrap();
        assert_eq!(s.corrupt_all_records(Some(0.5)), 1);
        assert_eq!(s.get(7), None, "torn record must read as absent");
        assert_eq!(s.stats().torn_detected, 1);
        // The torn file was unlinked; the next read is a plain miss.
        assert_eq!(s.get(7), None);
        assert_eq!(s.stats().torn_detected, 1);
        assert_eq!(s.stats().misses, 1);
        let _ = fs::remove_dir_all(s.dir());
    }

    #[test]
    fn bitflipped_record_is_detected_never_loaded() {
        let s = store("flip");
        s.put(3, b"some payload bytes with room to flip").unwrap();
        assert_eq!(s.corrupt_all_records(None), 1);
        assert_eq!(s.get(3), None);
        assert_eq!(s.stats().torn_detected, 1);
        let _ = fs::remove_dir_all(s.dir());
    }

    #[test]
    fn empty_and_garbage_files_are_torn() {
        let s = store("garbage");
        fs::write(s.dir().join(format!("{:016x}.ckpt", 5u64)), b"").unwrap();
        assert_eq!(s.get(5), None);
        fs::write(s.dir().join(format!("{:016x}.ckpt", 6u64)), b"not a checkpoint").unwrap();
        assert_eq!(s.get(6), None);
        assert_eq!(s.stats().torn_detected, 2);
        let _ = fs::remove_dir_all(s.dir());
    }

    #[test]
    fn version_mismatch_is_torn() {
        let s = store("version");
        s.put(4, b"versioned").unwrap();
        let p = s.dir().join(format!("{:016x}.ckpt", 4u64));
        let mut raw = fs::read(&p).unwrap();
        raw[4] = raw[4].wrapping_add(1);
        fs::write(&p, &raw).unwrap();
        assert_eq!(s.get(4), None);
        assert_eq!(s.stats().torn_detected, 1);
        let _ = fs::remove_dir_all(s.dir());
    }

    #[test]
    fn content_keys_are_input_sensitive() {
        let key = |stage, plan, inputs: [u64; 2]| {
            let k = ContentKey::stage(stage, plan);
            k.input(inputs[0]).input(inputs[1]).finish()
        };
        let base = key("union", 42, [10, 20]);
        assert_eq!(base, key("union", 42, [10, 20]));
        assert_ne!(base, key("union", 42, [10, 21]), "payload change must change the key");
        assert_ne!(base, key("union", 43, [10, 20]), "plan change must change the key");
        assert_ne!(base, key("er", 42, [10, 20]), "stage id must change the key");
        assert_ne!(base, key("union", 42, [20, 10]), "input order must change the key");
    }

    #[test]
    fn crash_sites_parse_back() {
        for site in CrashSite::all() {
            assert_eq!(CrashSite::parse(site.name()), Some(site));
        }
        assert_eq!(CrashSite::parse("nope"), None);
    }

    #[test]
    fn crash_policy_panics_only_at_armed_site() {
        let p = CrashPolicy::panic_at(CrashSite::AfterUnion);
        p.fire(CrashSite::AfterSelect); // no-op
        let caught = std::panic::catch_unwind(|| p.fire(CrashSite::AfterUnion));
        let msg = match caught {
            Err(e) => e
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default(),
            Ok(()) => String::new(),
        };
        assert!(msg.starts_with(CRASH_PANIC_PREFIX), "got: {msg}");
    }
}
