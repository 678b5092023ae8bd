#!/usr/bin/env bash
# Source-level lint gate (the repo-side twin of `wrangler-lint`'s artifact
# analysis). Thirteen rules, all enforced in CI via scripts/verify.sh:
#
#   1. No `.unwrap()` / `.expect(` in library crate `src/` outside test code.
#      Library code must propagate errors; a deliberate invariant may stay if
#      the line carries a `lint-allow: <reason>` comment.
#
#   2. No `HashMap` / `HashSet` in determinism-critical modules — the files
#      whose iteration order feeds ordered output, per the plan determinism
#      audit (`wrangler_lint::audit_steps`, `Plan::describe`). Use `BTreeMap`/
#      `BTreeSet`, or justify a pure-lookup map with a `hash-ok: <reason>`
#      comment.
#
#   3. No `partial_cmp` inside sort/extremum comparators in library code.
#      `partial_cmp(..).unwrap_or(Equal)` makes float orderings silently
#      input-order-dependent under NaN (the PR-3 bug class); use `total_cmp`
#      plus a stable tie-break, or justify with `lint-allow: <reason>`.
#
#   4. No bare `panic!` / `unreachable!` / `todo!` / `unimplemented!` in
#      library `src/` outside test code. A panic in one source's data must
#      not kill the whole pass (the containment layer exists to absorb it);
#      return a structured `TableError` instead, or justify a true
#      invariant with a `lint-allow: <reason>` comment.
#
#   5. No `OpKind::` in `wrangler-core` outside the lowering module. Plan
#      IR nodes built ad hoc bypass the analyzer and the proof-carrying
#      optimizer's fact base; `crates/core/src/lower.rs` is the single
#      sanctioned constructor site (the rest of the core consumes the
#      compiled program through its decision API, never raw nodes).
#      Justify a true exception with a `lint-allow: <reason>` comment.
#
#   6. No direct `std::fs::write` / `File::create` in library `src/`
#      outside `wrangler-ckpt`. A raw write is not atomic: a crash between
#      create and flush leaves a torn file that a later reader may trust.
#      All persistence goes through `wrangler_ckpt::write_atomic` (temp +
#      rename) or the checkpoint store built on it. Justify a true
#      exception with a `lint-allow: <reason>` comment.
#
#   7. The seam protocol's primitives — `ckpt_load(`, `ckpt_save(`,
#      `crash_fire(CrashSite::After` and `seam_key(` — appear in library
#      `src/` only in `crates/core/src/wrangler/pass.rs`, the module that
#      defines `Wrangler::seam`. A stage that loads, saves, keys or fires a
#      seam by hand is a second spelling of the protocol that the next
#      change to it will miss. (`crash_fire(CrashSite::MidEr)` inside the ER
#      stage is not a seam and is allowed.) Justify a true exception with a
#      `lint-allow: <reason>` comment.
#
#   8. `pack_pair`, `PairScoreCache` and `content_keys` have no caller under
#      `crates/`, `src/` or `examples/` — tests, benches and experiment
#      binaries included. They are stubs the session stopped using, kept
#      only because `bench/` (frozen outside `[benchmark]` PRs) still builds
#      against them; the `[benchmark]` follow-up deletes them, and until
#      then none may quietly regain a production use. Only the defining
#      file may name one: at its definition and in its own unit tests.
#
#   9. The row-major union — `(usize, Vec<Value>)` inside a `Vec<…>` or a
#      slice — does not appear in `wrangler-core` outside test code. The
#      union is held once, as `crate::union::Union` (a columnar table plus
#      per-source runs); a second, row-major holder is a copy of every cell
#      that each stage then has to keep in step with the first.
#
#  10. No caller of `fuse_attribute(` under `crates/*/src` or `src/` outside
#      `crates/fusion/src` (where it is defined) and `crates/bench` (E14
#      times it as the serial baseline). Production fuses through
#      `FuseKernel`, which reads the pass's one claim index; the uncompiled
#      function is the reference the tests compare the kernel against, and a
#      second production spelling of "fuse one slot" is one the next change
#      to fusion will miss.
#
#  11. `hash64(format!(` and `write_str(&format!(` do not appear in
#      `crates/core/src/wrangler/stages.rs`. A stage loop that renders a
#      value with `Debug` to key it pays for the rendering per source and
#      per pass, and rests a reuse decision on text that is no stability
#      contract. A stage keys by typed fields and by hashes taken where the
#      data was derived (`incr::Mapped`). The pass-level `Debug` keys in
#      `wrangler/pass.rs` (once per pass) wait for the typed-keys item.
#
#  12. No call of `score_pairs*(`, `match_pairs*(`, `filter_matches(` or
#      `candidates_union(` in `crates/core/src` outside test code. The ER
#      stage asks the kernel *which candidates match*
#      (`ErKernel::decide_union` over `UnionBlocks`): no candidate list, no
#      score vector. Listing, scoring and filtering is the reference
#      spelling — tests, `crates/bench` and `bench/` may call it; a
#      production caller brings the O(candidates) allocations back.
#
#  13. `std::sync::atomic`, `RwLock` and `Mutex` do not appear in
#      `crates/resolve/src` outside test code. ER workers share immutable
#      data only — the compiled kernel and the blocks — and own everything
#      they write (scratch buffers, memos, their strip of matches), which is
#      why the output is the same for any pool width with no argument about
#      who wins a race. A new shared table needs a `lint-allow: <reason>`
#      and a measurement that the sharing pays (the one this crate had was
#      built for a text evaluation per candidate; the stage now opens a text
#      field for about one candidate in a hundred).
#
# Scanning stops at the first `#[cfg(test)]` in a file: this repo keeps test
# modules at the end of each source file.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# --- Rule 1: panics in library code -----------------------------------------
# Library sources only: crates/*/src plus the root src/, excluding bin/
# targets (experiment drivers print and panic freely) and the test shims.
lib_sources() {
  find crates/*/src src -name '*.rs' -not -path '*/src/bin/*' 2>/dev/null | sort
}

scan_panics() {
  local f="$1"
  awk -v file="$f" '
    /#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// { next }  # comment / doc-example lines
    /\.unwrap\(\)|\.expect\(/ {
      if ($0 !~ /lint-allow:/) {
        printf "%s:%d: %s\n", file, FNR, $0
      }
    }
  ' "$f"
}

panic_hits=$(for f in $(lib_sources); do scan_panics "$f"; done)
if [ -n "$panic_hits" ]; then
  echo "lint: unwrap()/expect( in library code (add \`// lint-allow: <reason>\` only for true invariants):"
  echo "$panic_hits"
  fail=1
fi

# --- Rule 2: hash collections in determinism-critical modules ---------------
DETERMINISM_CRITICAL=(
  crates/quality/src/fd.rs
  crates/quality/src/repair.rs
  crates/resolve/src/blocking.rs
  crates/resolve/src/cluster.rs
  crates/resolve/src/kernel.rs
  crates/extract/src/induce.rs
  crates/extract/src/repair.rs
  crates/fusion/src/claims.rs
  crates/fusion/src/truthfinder.rs
  crates/table/src/ops.rs
  crates/core/src/wrangler.rs
  crates/core/src/wrangler/pass.rs
  crates/core/src/wrangler/stages.rs
)

scan_hash() {
  local f="$1"
  awk -v file="$f" '
    /#\[cfg\(test\)\]/ { exit }
    /HashMap|HashSet/ {
      if ($0 !~ /hash-ok:/ && prev !~ /hash-ok:/) {
        printf "%s:%d: %s\n", file, FNR, $0
      }
    }
    { prev = $0 }
  ' "$f"
}

hash_hits=$(for f in "${DETERMINISM_CRITICAL[@]}"; do
  [ -f "$f" ] && scan_hash "$f" || true
done)
if [ -n "$hash_hits" ]; then
  echo "lint: HashMap/HashSet in determinism-critical module (use BTreeMap/BTreeSet or add \`// hash-ok: <reason>\`):"
  echo "$hash_hits"
  fail=1
fi

# --- Rule 3: NaN-unsafe comparators in sorts ---------------------------------
# A `.sort_by(` / `.sort_unstable_by(` / `.max_by(` / `.min_by(` call opens a
# short window (the comparator closure, in this codebase at most 6 lines)
# within which `partial_cmp` is forbidden unless the line carries
# `lint-allow: <reason>`. `fn partial_cmp` definitions (PartialOrd impls)
# outside such a window are untouched.
scan_nan_sorts() {
  local f="$1"
  awk -v file="$f" '
    /#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// { next }  # comment / doc-example lines
    /\.sort_by\(|\.sort_unstable_by\(|\.sort_by_key\(|\.max_by\(|\.min_by\(/ { window = 6 }
    window > 0 {
      if ($0 ~ /partial_cmp/ && $0 !~ /lint-allow:/) {
        printf "%s:%d: %s\n", file, FNR, $0
      }
      window--
    }
  ' "$f"
}

nan_hits=$(for f in $(lib_sources); do scan_nan_sorts "$f"; done)
if [ -n "$nan_hits" ]; then
  echo "lint: partial_cmp inside a sort comparator (NaN makes the order input-dependent; use total_cmp + a stable tie-break, or add \`// lint-allow: <reason>\`):"
  echo "$nan_hits"
  fail=1
fi

# --- Rule 4: bare panics in library code --------------------------------------
# `panic!`/`unreachable!`/`todo!`/`unimplemented!` outside test modules turn
# one source's bad data into a whole-pass crash; library code must return a
# structured error and let the containment layer decide.
scan_bare_panics() {
  local f="$1"
  awk -v file="$f" '
    /#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// { next }  # comment / doc-example lines
    /(^|[^_[:alnum:]])(panic!|unreachable!|todo!|unimplemented!)/ {
      if ($0 !~ /lint-allow:/) {
        printf "%s:%d: %s\n", file, FNR, $0
      }
    }
  ' "$f"
}

bare_panic_hits=$(for f in $(lib_sources); do scan_bare_panics "$f"; done)
if [ -n "$bare_panic_hits" ]; then
  echo "lint: bare panic!/unreachable!/todo!/unimplemented! in library code (return a structured TableError, or add \`// lint-allow: <reason>\` for a true invariant):"
  echo "$bare_panic_hits"
  fail=1
fi

# --- Rule 5: OpKind construction outside the lowering module ------------------
# The typed plan IR has exactly one constructor site in the core; everything
# else consumes the compiled PlanProgram through its decision API. A raw
# OpKind anywhere else in wrangler-core means a node the analyzer never saw.
scan_opkind() {
  local f="$1"
  awk -v file="$f" '
    /#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// { next }  # comment / doc-example lines
    /OpKind::/ {
      if ($0 !~ /lint-allow:/) {
        printf "%s:%d: %s\n", file, FNR, $0
      }
    }
  ' "$f"
}

opkind_hits=$(for f in $(find crates/core/src -name '*.rs' | sort); do
  [ "$f" = "crates/core/src/lower.rs" ] && continue
  scan_opkind "$f"
done)
if [ -n "$opkind_hits" ]; then
  echo "lint: OpKind:: constructed in wrangler-core outside crates/core/src/lower.rs (lower there, or add \`// lint-allow: <reason>\`):"
  echo "$opkind_hits"
  fail=1
fi

# --- Rule 6: non-atomic file writes outside wrangler-ckpt ---------------------
# `std::fs::write` / `File::create` in library code can tear on a crash;
# wrangler-ckpt owns the atomic temp+rename primitive and is the only crate
# allowed to touch the raw APIs (it is what makes everyone else safe).
scan_raw_writes() {
  local f="$1"
  awk -v file="$f" '
    /#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// { next }  # comment / doc-example lines
    /fs::write[[:space:](]|File::create[[:space:](]/ {
      if ($0 !~ /lint-allow:/) {
        printf "%s:%d: %s\n", file, FNR, $0
      }
    }
  ' "$f"
}

raw_write_hits=$(for f in $(lib_sources); do
  case "$f" in crates/ckpt/src/*) continue ;; esac
  scan_raw_writes "$f"
done)
if [ -n "$raw_write_hits" ]; then
  echo "lint: direct fs::write/File::create in library code (use wrangler_ckpt::write_atomic, or add \`// lint-allow: <reason>\`):"
  echo "$raw_write_hits"
  fail=1
fi

# --- Rule 7: seam-protocol primitives outside the seam module -----------------
# What happens at a stage boundary is decided in one function; its building
# blocks must not be callable-by-copy from anywhere else.
SEAM_MODULE=crates/core/src/wrangler/pass.rs
scan_seam_primitives() {
  local f="$1"
  awk -v file="$f" '
    /#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// { next }  # comment / doc-example lines
    /ckpt_load\(|ckpt_save\(|crash_fire\(CrashSite::After|seam_key\(/ {
      if ($0 !~ /lint-allow:/) {
        printf "%s:%d: %s\n", file, FNR, $0
      }
    }
  ' "$f"
}

seam_hits=$(for f in $(lib_sources); do
  [ "$f" = "$SEAM_MODULE" ] && continue
  scan_seam_primitives "$f"
done)
if [ -n "$seam_hits" ]; then
  echo "lint: seam-protocol primitive outside $SEAM_MODULE (go through Wrangler::seam, or add \`// lint-allow: <reason>\`):"
  echo "$seam_hits"
  fail=1
fi

# --- Rule 8: bench-only stubs stay bench-only ----------------------------------
# Every Rust file under crates/, src/ and examples/ is scanned whole, except
# that a stub's defining file may name it on its definition line and in its
# own test module.
stub_hits=$(find crates src examples -name '*.rs' | sort | xargs awk '
  BEGIN {
    home["pack_pair"] = "crates/core/src/incr.rs"
    home["PairScoreCache"] = "crates/core/src/working.rs"
    home["content_keys"] = "crates/resolve/src/kernel.rs"
  }
  FNR == 1 { in_tests = 0 }
  /#\[cfg\(test\)\]/ { in_tests = 1 }
  /^[[:space:]]*\/\// { next }  # comment / doc lines
  {
    for (sym in home) {
      if ($0 !~ "(^|[^_[:alnum:]])" sym "([^_[:alnum:]]|$)") continue
      if (FILENAME == home[sym] && (in_tests || $0 ~ "(fn|struct|impl) " sym "[^_[:alnum:]]")) continue
      printf "%s:%d: %s\n", FILENAME, FNR, $0
    }
  }
')
if [ -n "$stub_hits" ]; then
  echo "lint: bench-only stub used in the workspace (pack_pair, PairScoreCache and content_keys exist for bench/ alone until the [benchmark] PR deletes them):"
  echo "$stub_hits"
  fail=1
fi

# --- Rule 9: no row-major twin of the union -----------------------------------
scan_row_major_union() {
  local f="$1"
  awk -v file="$f" '
    /#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// { next }  # comment / doc lines
    /(Vec<|\[)[[:space:]]*\(usize, Vec<Value>\)/ {
      printf "%s:%d: %s\n", file, FNR, $0
    }
  ' "$f"
}

row_major_hits=$(for f in $(find crates/core/src -name '*.rs' | sort); do
  scan_row_major_union "$f"
done)
if [ -n "$row_major_hits" ]; then
  echo "lint: row-major union type in wrangler-core (hold the union as crate::union::Union):"
  echo "$row_major_hits"
  fail=1
fi

# --- Rule 10: one fuse in production --------------------------------------------
scan_fuse_attribute() {
  local f="$1"
  awk -v file="$f" '
    /#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// { next }  # comment / doc lines
    /(^|[^_[:alnum:]])fuse_attribute\(/ {
      printf "%s:%d: %s\n", file, FNR, $0
    }
  ' "$f"
}

fuse_attribute_hits=$(for f in $(find crates/*/src src -name '*.rs' | sort); do
  case "$f" in crates/fusion/src/* | crates/bench/*) continue ;; esac
  scan_fuse_attribute "$f"
done)
if [ -n "$fuse_attribute_hits" ]; then
  echo "lint: fuse_attribute( called outside crates/fusion/src and crates/bench (fuse through FuseKernel; fuse_attribute is the test reference):"
  echo "$fuse_attribute_hits"
  fail=1
fi

# --- Rule 11: no Debug-printed keys in the stage loops ---------------------------
debug_key_hits=$(awk '
  /#\[cfg\(test\)\]/ { exit }
  /^[[:space:]]*\/\// { next }  # comment / doc lines
  /hash64\(format!\(|write_str\(&format!\(/ {
    printf "%s:%d: %s\n", FILENAME, FNR, $0
  }
' crates/core/src/wrangler/stages.rs)
if [ -n "$debug_key_hits" ]; then
  echo "lint: Debug-printed key in crates/core/src/wrangler/stages.rs (key by typed fields and by hashes taken where the data was derived):"
  echo "$debug_key_hits"
  fail=1
fi

# --- Rule 12: production ER decides, it does not list and score ------------------
list_and_score_hits=$(for f in $(find crates/core/src -name '*.rs' | sort); do
  awk -v file="$f" '
    /#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// { next }  # comment / doc lines
    /(^|[^_[:alnum:]])((score_pairs|match_pairs)[_[:alnum:]]*|filter_matches|candidates_union)\(/ {
      printf "%s:%d: %s\n", file, FNR, $0
    }
  ' "$f"
done)
if [ -n "$list_and_score_hits" ]; then
  echo "lint: list-and-score ER spelling in crates/core/src (ask ErKernel::decide_union which candidates match; score_pairs/match_pairs/filter_matches/candidates_union are the test reference):"
  echo "$list_and_score_hits"
  fail=1
fi

# --- Rule 13: ER workers share nothing mutable -----------------------------------
shared_state_hits=$(for f in $(find crates/resolve/src -name '*.rs' | sort); do
  awk -v file="$f" '
    /#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// { next }  # comment / doc lines
    /std::sync::atomic|(^|[^_[:alnum:]])(RwLock|Mutex)([^_[:alnum:]]|$)/ {
      if ($0 !~ /lint-allow:/) {
        printf "%s:%d: %s\n", file, FNR, $0
      }
    }
  ' "$f"
done)
if [ -n "$shared_state_hits" ]; then
  echo "lint: shared mutable state in crates/resolve/src (ER workers share immutable data only; measure first, then add \`// lint-allow: <reason>\`):"
  echo "$shared_state_hits"
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "lint: FAILED"
  exit 1
fi
echo "lint: clean"
