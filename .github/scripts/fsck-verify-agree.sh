#!/usr/bin/env bash
# CLI-driven check that `mmm verify` and `mmm fsck` agree, and that
# `mmm fsck --repair` never takes a recoverable set with it.
#
# For each approach on the plain and the content-addressed backend: save
# two versions, damage the directory the way real stores get damaged
# (a chunk file vanishes; a document-log record rots and is salvaged),
# then require that
#   * `mmm fsck` exits non-zero exactly when `mmm verify` does for some
#     set the fleet saved, and
#   * after `mmm fsck --repair` (to convergence) every set `mmm list --all`
#     still shows passes `mmm verify` and `mmm recover`.
#
# Run from the repository root after `cargo build --release`.
set -euo pipefail
M=./target/release/mmm
ROOT=$(mktemp -d)
trap 'rm -rf "$ROOT"' EXIT

# exit status of a command as 0/1, without tripping `set -e`
code() { "$@" >/dev/null 2>&1 && echo 0 || echo 1; }
# every catalogued set of a directory, and every set its fleet ever saved
sets() { "$M" list --dir "$1" --all | awk '{print $1}'; }
history() { "$M" list --dir "$1" | awk '$1 ~ /^U/ {print $2}'; }

# fsck is clean exactly when every saved set verifies
agree() {
  local d=$1 id unhealthy=0 fsck
  for id in $(history "$d"); do
    [ "$(code "$M" verify --dir "$d" "$id")" = 0 ] || unhealthy=1
  done
  fsck=$(code "$M" fsck --dir "$d")
  if [ "$fsck" != "$unhealthy" ]; then
    echo "DISAGREE in $d: fsck exit $fsck, a saved set is unhealthy: $unhealthy"
    "$M" fsck --dir "$d" || true
    exit 1
  fi
}

# remove the first chunk file that exactly one saved set needs (chunks
# dedup across sets, and the CLI's own state blob is chunked too)
lose_a_chunk_of_one_set() {
  local d=$1 chunk id bad
  for chunk in "$d"/blobs/cas/chunks/*; do
    mv "$chunk" "$chunk.gone"
    bad=0
    for id in $(history "$d" 2>/dev/null); do
      [ "$(code "$M" verify --dir "$d" "$id")" = 0 ] || bad=$((bad + 1))
    done
    if [ "$bad" = 1 ]; then rm "$chunk.gone"; return 0; fi
    mv "$chunk.gone" "$chunk"
  done
  echo "no chunk of $d belongs to exactly one set"
  exit 1
}

# repair to convergence; what is still listed must verify and recover
repaired() {
  local d=$1 id
  for _ in 1 2 3 4; do
    if "$M" fsck --dir "$d" --repair >/dev/null 2>&1; then break; fi
  done
  "$M" fsck --dir "$d" >/dev/null
  for id in $(sets "$d"); do
    "$M" verify --dir "$d" "$id" >/dev/null
    "$M" recover --dir "$d" "$id" >/dev/null
  done
}

for backend in plain cas; do
  for approach in mmlib-base baseline update provenance; do
    d="$ROOT/$backend-$approach"
    "$M" init --dir "$d" --models 4 --approach "$approach" --backend "$backend" >/dev/null
    # every model retrained, so the two versions do not share every chunk
    "$M" update --dir "$d" --rate 1.0 >/dev/null
    agree "$d" # healthy: both say so
    if [ "$backend" = cas ]; then # damage 1: one chunk file vanishes
      lose_a_chunk_of_one_set "$d"
      agree "$d"
      test "$(code "$M" fsck --dir "$d")" = 1
    fi
    if [ "$approach" = mmlib-base ]; then # damage 2: the second batch's head record rots
      sed -i '5s/"batch_head":true/"batch_head":trux/' "$d/docs/models.jsonl"
      test "$(code "$M" list --dir "$d" --all)" = 1 # the strict open refuses
      "$M" fsck --dir "$d" --salvage >/dev/null 2>&1 || true
      agree "$d"
    fi
    before=$(sets "$d" | wc -l)
    repaired "$d"
    echo "$backend/$approach: $before set(s) listed before repair, $(sets "$d" | wc -l) after"
    if [ "$backend/$approach" = plain/mmlib-base ]; then
      # only the decapitated batch may go; the one before it is healthy
      sets "$d" | grep -qx "mmlib-base:0:4"
    fi
  done
done
echo "ok: verify and fsck agree; every set still listed after repair recovers"
