#!/usr/bin/env bash
# Guard against dangling docs: every cargo target that README.md, the CI
# workflow, the scripts here or the verify skill name after `--bin`,
# `--bench` or `--example` must exist as crates/*/src/bin/<name>.rs,
# crates/*/benches/<name>.rs or examples/<name>.rs respectively, and
# every package they name after `-p` or `--package` must be the
# [package] name of the root Cargo.toml or of a crate under crates/.
# Deleting a target without its mentions (or documenting one that was
# never written) fails here instead of in front of a reader.
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

[ "$status" -eq 0 ] && echo "check_doc_bins: OK"
exit "$status"
