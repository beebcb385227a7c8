#!/usr/bin/env bash
# Guard against dangling docs: every cargo target that README.md, the CI
# workflow, the scripts here or the verify skill name after `--bin`,
# `--bench` or `--example` must exist as crates/*/src/bin/<name>.rs,
# crates/*/benches/<name>.rs or examples/<name>.rs respectively, and
# every package they name after `-p` or `--package` must be the
# [package] name of the root Cargo.toml or of a crate under crates/.
# Every paper or ablation bin that README.md, the crate docs, the CI
# workflow or the verify skill name bare, backticked (`ablation_x`,
# `figN_x`, `tableN_x`), must exist as crates/*/src/bin/<name>.rs too.
# Every binary that README.md, the CI workflow, the scripts here or the
# verify skill run as target/release/<name> must be built by one: a
# crates/*/src/bin/<name>.rs, a [[bin]] of a crate's Cargo.toml
# (`corrsketch`) or the benchmark package (`ledger`).
# Every HTTP route that README.md or the sketch-server and CLI crate
# docs name as `GET /x` or `POST /x` must be served: an entry
# ("/x", "METHOD") of SHARED in crates/server/src/pipeline.rs or of
# Local::EXTRA in crates/server/src/server.rs.
# Every span name README.md's request-tracing paragraph lists (a
# backticked lower_snake word) must be recorded by the code: a
# trace.begin / trace.begin_indexed / trace.record call in crates/ with
# that name, or a trace.note call for the coordinator's notes — stage
# costs are read from those spans, so a renamed span must not leave the
# docs pointing at nothing.
# Every metric family README.md's `GET /metrics` and slow-query
# paragraphs or crates/server/src/lib.rs name (a sketch_ word that is not
# a crate path like sketch_stats::kernel) must be rendered by the code: a
# "sketch_…" string outside the tests of crates/server/src/stats.rs (the
# counter table) or crates/server/src/metrics.rs (gauges, histogram).
# Deleting a target, a route, a span or a family without its mentions (or
# documenting one that was never written) fails here instead of in
# front of a reader.
#
# Used by CI (.github/workflows/ci.yml, `check` job) and runnable
# locally from the repo root:  bash scripts/check_doc_bins.sh
set -euo pipefail

FILES=(README.md .github/workflows/ci.yml scripts/*.sh .claude/skills/verify/SKILL.md)
status=0

# check <flag> <path with NAME standing for the target name>
check() {
  local flag=$1 pattern=$2 name
  while read -r name; do
    if ! compgen -G "${pattern/NAME/$name}" > /dev/null; then
      echo "check_doc_bins: FAIL: cargo $flag '$name' is named in:" >&2
      grep -lE -- "--$flag[ =]+$name\b" "${FILES[@]}" | sed 's/^/  /' >&2
      echo "  but no ${pattern/NAME/$name} exists" >&2
      status=1
    fi
  done < <(grep -ohE -- "--$flag[ =]+[A-Za-z0-9_-]+" "${FILES[@]}" | sed -E "s/^--$flag[ =]+//" | sort -u)
}
check bin 'crates/*/src/bin/NAME.rs'
check bench 'crates/*/benches/NAME.rs'
check example 'examples/NAME.rs'

BIN_DOCS=(README.md crates/*/src/lib.rs .github/workflows/ci.yml .claude/skills/verify/SKILL.md)
while read -r name; do
  if ! compgen -G "crates/*/src/bin/$name.rs" > /dev/null; then
    echo "check_doc_bins: FAIL: bin '$name' is named in:" >&2
    grep -lF -- "\`$name\`" "${BIN_DOCS[@]}" | sed 's/^/  /' >&2
    echo "  but no crates/*/src/bin/$name.rs exists" >&2
    status=1
  fi
done < <(grep -ohE '`(ablation_[a-z]+|fig[0-9]+_[a-z]+|table[0-9]+_[a-z]+)`' "${BIN_DOCS[@]}" |
  tr -d '`' | sort -u)

built=$(awk '/^\[/ { bin = ($0 == "[[bin]]") }
    bin && /^name *=/ { gsub(/^name *= *"|"$/, ""); print }' crates/*/Cargo.toml
  awk '/^\[/ { pkg = ($0 == "[package]") }
    pkg && /^name *=/ { gsub(/^name *= *"|"$/, ""); print }' benchmark/Cargo.toml)
while read -r name; do
  if ! compgen -G "crates/*/src/bin/$name.rs" > /dev/null && ! grep -qxF -- "$name" <<< "$built"; then
    echo "check_doc_bins: FAIL: target/release/$name is run in:" >&2
    grep -lE -- "target/release/$name\b" "${FILES[@]}" | sed 's/^/  /' >&2
    echo "  but no crates/*/src/bin/$name.rs, crate [[bin]] or benchmark package builds it" >&2
    status=1
  fi
done < <(grep -ohE 'target/release/[A-Za-z0-9_-]+/?' "${FILES[@]}" | grep -v '/$' |
  sed 's|^target/release/||' | sort -u)

packages=$(awk '/^\[/ { pkg = ($0 == "[package]") }
    pkg && /^name *=/ { gsub(/^name *= *"|"$/, ""); print }' \
    Cargo.toml crates/*/Cargo.toml crates/shims/*/Cargo.toml)
while read -r name; do
  if ! grep -qxF -- "$name" <<< "$packages"; then
    echo "check_doc_bins: FAIL: cargo -p '$name' is named in:" >&2
    grep -lE -- "(-p|--package)[ =]+$name\b" "${FILES[@]}" | sed 's/^/  /' >&2
    echo "  but no workspace Cargo.toml has a package of that name" >&2
    status=1
  fi
done < <(grep -ohE -- "(^|[[:space:]\`])(-p|--package)[ =]+[A-Za-z][A-Za-z0-9_-]*" "${FILES[@]}" |
  sed -E 's/^.*(-p|--package)[ =]+//' | sort -u)

ROUTE_DOCS=(README.md crates/server/src/lib.rs crates/cli/src/lib.rs)
routes=$({ awk '/^const SHARED/,/^\];/' crates/server/src/pipeline.rs
  awk '/const EXTRA.*= &\[$/,/\];/' crates/server/src/server.rs; } |
  grep -v '^ *//' | sed -nE 's/.*\("(\/[A-Za-z0-9_]+)", "([A-Z]+)"\).*/\2 \1/p')
while read -r route; do
  if ! grep -qxF -- "$route" <<< "$routes"; then
    echo "check_doc_bins: FAIL: route '$route' is named in:" >&2
    grep -lE -- "$route\b" "${ROUTE_DOCS[@]}" | sed 's/^/  /' >&2
    echo "  but neither SHARED (pipeline.rs) nor Local::EXTRA (server.rs) serves it" >&2
    status=1
  fi
done < <(grep -ohE -- "\b(GET|POST) /[A-Za-z0-9_]+" "${ROUTE_DOCS[@]}" | sort -u)

emitted=$(grep -rhoE 'trace\.(begin|begin_indexed|record|note)\("[a-z_]+"' crates --include='*.rs' |
  sed -E 's/^.*\("//; s/"$//' | sort -u)
while read -r span; do
  if ! grep -qxF -- "$span" <<< "$emitted"; then
    echo "check_doc_bins: FAIL: span '$span' is named in README.md's request-tracing paragraph" >&2
    echo "  but no trace.begin/begin_indexed/record/note call in crates/ records it" >&2
    status=1
  fi
done < <(awk '/^\*\*Request tracing\.\*\*/,/^$/' README.md | grep -oE '`[a-z_]+`' | tr -d '`' | sort -u)

FAMILY_DOCS=(README.md crates/server/src/lib.rs)
rendered=$(for f in crates/server/src/stats.rs crates/server/src/metrics.rs; do
  sed '/^#\[cfg(test)\]/,$d' "$f"; done | grep -oE '"sketch_[a-z_]+"' | tr -d '"' | sort -u)
while read -r family; do
  if ! grep -qxF -- "$family" <<< "$rendered"; then
    echo "check_doc_bins: FAIL: metric family '$family' is named in:" >&2
    grep -lE -- "\b$family\b" "${FAMILY_DOCS[@]}" | sed 's/^/  /' >&2
    echo "  but no counter-table row (stats.rs) or gauge (metrics.rs) renders it" >&2
    status=1
  fi
done < <({ awk '/^\*\*`GET \/metrics`\*\*/,/^$/; /^\*\*Slow-query log\.\*\*/,/^$/' README.md
  cat crates/server/src/lib.rs; } | grep -oE '\bsketch_[a-z_]+(::)?' | grep -v '::$' | sort -u)

[ "$status" -eq 0 ] && echo "check_doc_bins: OK"
exit "$status"
