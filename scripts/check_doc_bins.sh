#!/usr/bin/env bash
# Guard against dangling docs: every cargo binary that README.md, the CI
# workflow, the scripts here or the verify skill name after a `--bin`
# flag must exist as crates/*/src/bin/<name>.rs. Deleting a binary
# without its mentions (or documenting one that was never written)
# fails here instead of in front of a reader.
#
# Used by CI (.github/workflows/ci.yml, `lint` job) and runnable
# locally from the repo root:  bash scripts/check_doc_bins.sh
set -euo pipefail

FILES=(README.md .github/workflows/ci.yml scripts/*.sh .claude/skills/verify/SKILL.md)
status=0
while read -r bin; do
  if ! compgen -G "crates/*/src/bin/$bin.rs" > /dev/null; then
    echo "check_doc_bins: FAIL: cargo binary '$bin' is named in:" >&2
    grep -lE -- "--bin[ =]+$bin\b" "${FILES[@]}" | sed 's/^/  /' >&2
    echo "  but no crates/*/src/bin/$bin.rs exists" >&2
    status=1
  fi
done < <(grep -ohE -- '--bin[ =]+[A-Za-z0-9_-]+' "${FILES[@]}" | sed -E 's/^--bin[ =]+//' | sort -u)
[ "$status" -eq 0 ] && echo "check_doc_bins: OK"
exit "$status"
