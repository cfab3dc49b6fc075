#!/usr/bin/env bash
# Mutant twins of the frame-word guards in internal/physmem, of the
# page-table spare list's one rule (a published table is never reused),
# of the fault's §5.2 recheck under the PTE lock, of the Figure 10
# split's order across a span boundary (the trim before the top part's
# insert, which lands in another tree of the region index; the twin
# publishes the top part first, closing the window the fault retries
# in), of a non-fixed mmap's re-check of its gap under the held range,
# of the range manager's stripe lock order (those four killed by the
# schedule explorer, which runs the fill, split, gap and stripe races
# through every interleaving), of the mapping operations' range check,
# which must refuse a length within a page of 2^64 before rounding it up
# wraps it to zero, of Close's
# unregistering of its fault contexts' RCU readers, of the file
# registry's user count (a retiring tenant drops a shared file's page
# cache only when no other live tenant maps the file; the twin drops it
# whatever the count says, so the first tenant to retire takes it), of
# Hybrid's tree lock around every region-index edit (the twin edits
# without it, so only the read side still pays §5.2's lock), of
# FaultLock's mutation phase (the twin never write-locks the fault lock,
# so faults run beside the mutation too; those two killed by the test
# that shows each design's operations waiting on the locks its row of
# sync.go's table names), and of the grace period every reclaim scan
# ends with (the twin waits only after a scan that evicted something, so
# direct reclaim takes a few free frames for progress while the frames a
# caller needs stay queued, and a limited tenant whose freed charge is
# still queued runs out of memory it has already freed; two tests, one
# twin each) — fifteen twins in all:
# each guard test passes on the checkout as it stands and must fail on a
# copy of it with that one guard removed — the proof that the test sees
# the guard. Each test runs in the package of the file its twin mutates,
# or in the one its name is prefixed with (pkg:Test).
#
#   scripts/mutants.sh
#
# The copies go under MUTANTS_DIR (default: a fresh mktemp -d), which is
# removed on exit. A mutation whose source text no longer occurs exactly
# once fails the script, so a twin cannot go stale silently.
set -euo pipefail

root=$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)
if [ -n "${MUTANTS_DIR:-}" ]; then
	work=$MUTANTS_DIR
	mkdir -p "$work"
	trap 'rm -rf "$work/pristine" "$work/mutant" "$work/mutant.log"' EXIT
else
	work=$(mktemp -d)
	trap 'rm -rf "$work"' EXIT
fi

# test @@ file @@ guard as written @@ the guard removed
mutants=(
	'TestFreeOfUnsplitRunFramePanics@@internal/physmem/physmem.go@@switch low := uint32(w); {@@switch low := uint32(w) & refsMask; {'
	'TestStampOfShapedFramePanics@@internal/physmem/physmem.go@@if uint32(a.meta[f].Add(1<<32|1)) != 1 {@@if uint32(a.meta[f].Add(1<<32|1))&refsMask != 1 {'
	'TestFreeRunTwicePanics@@internal/physmem/physmem.go@@if w&refsMask != 0 || shapeOrder(w) != order {@@if false {'
	'TestSplitTableNeverSpare@@internal/pagetable/pagetable.go@@t.retireStructure(g, pt.frame)@@t.retireStructure(g, pt.frame); t.spare(pt)'
	'TestExploreFillRace@@internal/vm/fault.go@@recheck = func() bool { return v.Contains(page) }@@recheck = func() bool { return true }'
	'TestExploreCrossingSplitRace@@internal/vm/mmap.go@@nv := as.sliceVMA(v, cutHi, vHi, v.Prot())@@nv := as.sliceVMA(v, cutHi, vHi, v.Prot()); as.idx.edit([]regionEdit{{Key: cutHi, Val: nv}})'
	'TestExploreGapRace@@internal/vm/sync.go@@if p.gapFree(op, base, base+length) {@@if true {'
	'internal/vm:TestExploreStripeRace@@internal/ranges/ranges.go@@i := bits.TrailingZeros16(mask)@@i := (bits.TrailingZeros16(bits.RotateLeft16(mask, -int(lo>>StripeShift%StripeCount))) + int(lo>>StripeShift%StripeCount)) % StripeCount'
	'TestMmapInvalidArgs@@internal/vm/vm.go@@length == 0 || length > MaxAddress {@@length == 0 {'
	'TestClosedSpacesLeaveNoReaders@@internal/vm/vm.go@@as.dom.Unregister(rd)@@_ = rd'
	'TestSharedFileOutlivesFirstTenant@@internal/vm/filecache.go@@if h.fileUsers[f] > 0 {@@if false {'
	$'TestDesignLockTable@@internal/vm/index.go@@\tif i.sem != nil {\n\t\ti.sem.Lock()\n\t\tdefer i.sem.Unlock()\n\t}\n@@'
	'TestDesignLockTable@@internal/vm/sync.go@@if mg.p.readSem == &mg.p.faultSem && !mg.mutating {@@if false {'
	$'TestDirectReclaimWaitsOutTheBacklog@@internal/reclaim/reclaim.go@@\tr.dom.Synchronize()\n\treturn evicted\n}@@\tif evicted > 0 {\n\t\tr.dom.Synchronize()\n\t}\n\treturn evicted\n}'
	$'internal/vm:TestTenantWaitsOutTheRCUBacklog@@internal/reclaim/reclaim.go@@\tr.dom.Synchronize()\n\treturn evicted\n}@@\tif evicted > 0 {\n\t\tr.dom.Synchronize()\n\t}\n\treturn evicted\n}'
)

mkdir -p "$work/pristine"
# Tracked files deleted in the working tree are left out.
git -C "$root" ls-files -co --exclude-standard | while IFS= read -r f; do
	if [ -e "$root/$f" ]; then printf '%s\n' "$f"; fi
done | tar -C "$root" -T - -c | tar -x -C "$work/pristine"

# mutate <file> <from> <to>: replace the one occurrence of from.
mutate() {
	# shellcheck disable=SC2016 # the program's variables are perl's
	perl -e '
		my ($f, $from, $to) = @ARGV;
		local $/;
		open(my $h, "<", $f) or die "$f: $!\n";
		my $s = <$h>;
		close $h;
		my $n = () = $s =~ /\Q$from\E/g;
		die "$f: the guard occurs $n times, want 1: $from\n" unless $n == 1;
		$s =~ s/\Q$from\E/$to/;
		open($h, ">", $f) or die "$f: $!\n";
		print $h $s;
		close $h;
	' "$@"
}

# unpack <mutant>: set test, pkg, file, from and to.
unpack() {
	test=${1%%@@*}
	local rest=${1#*@@}
	file=${rest%%@@*}
	rest=${rest#*@@}
	from=${rest%%@@*}
	to=${rest#*@@}
	pkg=./$(dirname "$file")
	if [[ $test == *:* ]]; then
		pkg=./${test%%:*}
		test=${test#*:}
	fi
}

tests=()
pkgs=()
for m in "${mutants[@]}"; do
	unpack "$m"
	tests+=("$test")
	pkgs+=("$pkg")
done
pattern="^($(
	IFS='|'
	echo "${tests[*]}"
))\$"
echo "== the guard tests on the checkout (must pass)"
# shellcheck disable=SC2046 # one word per package
(cd "$work/pristine" && go test -count=1 -run "$pattern" $(printf '%s\n' "${pkgs[@]}" | sort -u))

survivors=0
for m in "${mutants[@]}"; do
	unpack "$m"
	rm -rf "$work/mutant"
	cp -a "$work/pristine" "$work/mutant"
	mutate "$work/mutant/$file" "$from" "$to"
	# Killed means the test itself failed: a mutant that does not build
	# proves nothing.
	if (cd "$work/mutant" && go test -count=1 -run "^$test\$" "$pkg" >"$work/mutant.log" 2>&1) ||
		! grep -q -- "--- FAIL: $test " "$work/mutant.log"; then
		echo "SURVIVED  $test ($file: $to)"
		cat "$work/mutant.log"
		survivors=$((survivors + 1))
	else
		echo "killed    $test ($file: $to)"
	fi
done
if [ "$survivors" -gt 0 ]; then
	echo "$survivors mutant(s) survived" >&2
	exit 1
fi
