package physmem

import (
	"testing"

	"bonsai/internal/fail"
)

// TestCarveCoversPoolExactly checks the initial carving: maximal
// size-aligned blocks tiling [1, Frames] with no gaps or overlaps.
func TestCarveCoversPoolExactly(t *testing.T) {
	for _, frames := range []uint64{1, 2, 3, 7, 64, 513, 768, 1024, 1 << 14} {
		next := uint64(1)
		for _, b := range carve(frames) {
			if uint64(b.base) != next {
				t.Fatalf("frames=%d: block at %d, want %d", frames, b.base, next)
			}
			size := uint64(1) << b.order
			if uint64(b.base)%size != 0 {
				t.Fatalf("frames=%d: block %d misaligned for order %d", frames, b.base, b.order)
			}
			next += size
		}
		if next != frames+1 {
			t.Fatalf("frames=%d: carving covers [1,%d), want [1,%d)", frames, next, frames+1)
		}
	}
}

// TestAllocRunAlignedAndDisjoint allocates runs of every order and
// checks alignment, range, and pairwise disjointness; frames of a run
// must each look like ordinary allocated frames (refcount 1, bumped
// generation, state bit set).
func TestAllocRunAlignedAndDisjoint(t *testing.T) {
	a := New(Config{Frames: 1 << 12, CPUs: 2})
	type run struct {
		base  Frame
		order int
	}
	var runs []run
	used := map[Frame]bool{}
	for order := 0; order <= MaxOrder; order++ {
		base, err := a.AllocRun(0, order)
		if err != nil {
			t.Fatalf("AllocRun(order=%d): %v", order, err)
		}
		if uint64(base)%(1<<order) != 0 {
			t.Fatalf("order-%d run at %d not size-aligned", order, base)
		}
		runs = append(runs, run{base, order})
		for f := base; f < base+Frame(1)<<order; f++ {
			if used[f] {
				t.Fatalf("frame %d handed out twice", f)
			}
			used[f] = true
			if !a.Allocated(f) {
				t.Fatalf("run frame %d not marked allocated", f)
			}
			if got := a.Refs(f); got != 1 {
				t.Fatalf("run frame %d refs = %d, want 1", f, got)
			}
			if got := a.Gen(f); got != 1 {
				t.Fatalf("run frame %d gen = %d, want 1", f, got)
			}
		}
	}
	if err := a.AuditBuddy(); err != nil {
		t.Fatalf("audit with runs live: %v", err)
	}
	for _, r := range runs {
		a.FreeRun(r.base, r.order)
	}
	if got := a.InUse(); got != 0 {
		t.Fatalf("in-use after freeing all runs = %d", got)
	}
	if err := a.AuditBuddy(); err != nil {
		t.Fatalf("audit after free: %v", err)
	}
}

// TestFreeBatchReassemblesRun splits a run and frees its frames one at
// a time through FreeBatch (the path a split huge mapping's zap takes)
// and checks the buddy lists coalesce them back into an order-9 block.
func TestFreeBatchReassemblesRun(t *testing.T) {
	a := New(Config{Frames: 1 << 11, CPUs: 1})
	base, err := a.AllocRun(0, MaxOrder)
	if err != nil {
		t.Fatalf("AllocRun: %v", err)
	}
	a.SplitRun(base, MaxOrder)
	runs := a.FreeRuns(MaxOrder)
	var frames []Frame
	for f := base; f < base+Frame(1)<<MaxOrder; f++ {
		frames = append(frames, f)
	}
	a.FreeBatch(frames)
	if err := a.AuditBuddy(); err != nil {
		t.Fatalf("audit: %v", err)
	}
	if got := a.FreeRuns(MaxOrder); got != runs+1 {
		t.Fatalf("order-9 blocks after scattered free = %d, want %d", got, runs+1)
	}
}

// TestAllocRunDrainsMagazines checks that frames stranded in per-CPU
// magazines cannot hold a coalesceable run hostage: with every frame
// free but scattered through magazines, AllocRun must still succeed.
func TestAllocRunDrainsMagazines(t *testing.T) {
	a := New(Config{Frames: 1 << 10, CPUs: 4, MagazineSize: 512})
	// Pull frames through the magazines so free frames are cached
	// order-0 singles, then free them back into the magazines.
	var frames []Frame
	for i := 0; i < 1<<9; i++ {
		f, err := a.Alloc(i % 4)
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		frames = append(frames, f)
	}
	for i, f := range frames {
		a.Free(i%4, f)
	}
	if _, err := a.AllocRun(0, MaxOrder); err != nil {
		t.Fatalf("AllocRun with magazine-cached frames: %v", err)
	}
}

// TestAllocRunShortageTyped exhausts contiguity (not frames) and checks
// the failure is ErrNoRun, not ErrOutOfMemory: the pool below holds
// plenty of free frames but no order-9 block once every 512-aligned run
// has one pinned frame.
func TestAllocRunShortageTyped(t *testing.T) {
	a := New(Config{Frames: 1 << 12, CPUs: 1})
	var pins []Frame
	for {
		base, err := a.AllocRun(0, MaxOrder)
		if err != nil {
			break
		}
		// Keep one frame of the split run, free the rest: the survivor
		// blocks re-coalescing to order 9.
		a.SplitRun(base, MaxOrder)
		for f := base + 1; f < base+Frame(1)<<MaxOrder; f++ {
			a.FreeRemote(f)
		}
		pins = append(pins, base)
	}
	if len(pins) == 0 {
		t.Fatal("never allocated a run")
	}
	_, err := a.AllocRun(0, MaxOrder)
	if err != ErrNoRun {
		t.Fatalf("fragmented AllocRun error = %v, want ErrNoRun", err)
	}
	if a.FreeFrames() < int64(len(pins))*511 {
		t.Fatalf("free frames = %d; fragmentation test did not leave frames free", a.FreeFrames())
	}
	// Order-0 allocation must still succeed from the fragments.
	if _, err := a.Alloc(0); err != nil {
		t.Fatalf("order-0 alloc amid fragmentation: %v", err)
	}
}

// TestAccountChargesRunAtomically: a run must charge all its frames or
// none — an account one frame under its limit cannot take a 512-frame
// run, and the refusal must leave the charge untouched.
func TestAccountChargesRunAtomically(t *testing.T) {
	a := New(Config{Frames: 1 << 11, CPUs: 1})
	ac := NewAccount("t", 600)
	a.BindAccount(0, ac)
	base, err := a.AllocRun(0, MaxOrder)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	if got := ac.Charged(); got != 512 {
		t.Fatalf("charged = %d, want 512", got)
	}
	if _, err := a.AllocRun(0, MaxOrder); err != ErrOverLimit {
		t.Fatalf("over-limit run error = %v, want ErrOverLimit", err)
	}
	if got := ac.Charged(); got != 512 {
		t.Fatalf("charged after refused run = %d, want 512 (refusal must not leak charge)", got)
	}
	a.FreeRun(base, MaxOrder)
	if got := ac.Charged(); got != 0 {
		t.Fatalf("charged after free = %d, want 0", got)
	}
}

// TestRunAllocFailpoint arms physmem.run-alloc and checks the typed
// shortage comes out of AllocRun without consuming frames or charge.
func TestRunAllocFailpoint(t *testing.T) {
	if err := fail.Enable(1, "physmem.run-alloc", fail.Config{OneIn: 1}); err != nil {
		t.Fatalf("enable failpoint: %v", err)
	}
	defer fail.Disable("physmem.run-alloc")
	a := New(Config{Frames: 1 << 11, CPUs: 1})
	ac := NewAccount("t", 0)
	a.BindAccount(0, ac)
	if _, err := a.AllocRun(0, MaxOrder); err != ErrNoRun {
		t.Fatalf("failpoint AllocRun error = %v, want ErrNoRun", err)
	}
	if got := ac.Charged(); got != 0 {
		t.Fatalf("charged after failpoint = %d, want 0", got)
	}
	if got := a.InUse(); got != 0 {
		t.Fatalf("in-use after failpoint = %d, want 0", got)
	}
	if got := a.Stats().RunFailures; got != 1 {
		t.Fatalf("run failures = %d, want 1", got)
	}
}

// TestFreeRunUnchargesOnce: an accounted run whose frames all drop
// their last reference returns its whole charge and clears every owner
// stamp; with one frame still shared, that frame keeps its stamp and
// its one frame of charge until its own last reference drops.
func TestFreeRunUnchargesOnce(t *testing.T) {
	a := New(Config{Frames: 1 << 11, CPUs: 1})
	ac := NewAccount("t", 0)
	a.BindAccount(0, ac)
	noOwners := func(base, except Frame) {
		t.Helper()
		for f := base; f < base+1<<MaxOrder; f++ {
			if f != except && a.Owner(f) != nil {
				t.Fatalf("frame %d still stamped after its last reference dropped", f)
			}
		}
	}
	base, err := a.AllocRun(0, MaxOrder)
	if err != nil {
		t.Fatal(err)
	}
	a.FreeRun(base, MaxOrder)
	if got := ac.Charged(); got != 0 {
		t.Fatalf("charged after a whole-run free = %d, want 0", got)
	}
	noOwners(base, NoFrame)

	if base, err = a.AllocRun(0, MaxOrder); err != nil {
		t.Fatal(err)
	}
	// The path a split huge mapping takes: split, share one frame, and
	// zap the mapping, which drops one reference from every frame.
	a.SplitRun(base, MaxOrder)
	shared := base + 77
	a.Ref(shared)
	a.FreeBatch(runFrames(base, MaxOrder))
	if got := ac.Charged(); got != 1 || a.Owner(shared) != ac {
		t.Fatalf("charged %d, shared frame's owner %v; want 1 and the account", got, a.Owner(shared))
	}
	noOwners(base, shared)
	a.FreeRemote(shared)
	if got := ac.Charged(); got != 0 || a.Owner(shared) != nil {
		t.Fatalf("charged %d after the straggler's free, want 0", got)
	}
	if err := a.AuditBuddy(); err != nil {
		t.Fatal(err)
	}
}

// TestBuddyLockHoldsPerFrameOp pins the frame round trip's buddy-lock
// acquisitions by count: an Alloc that refills an empty magazine takes
// the lock once, a magazine hit never, and a FreeBatch once whenever any
// frame's last reference drops — whatever the batch size — and never
// otherwise. A change that adds a hold fails here, not only in a
// benchmark.
func TestBuddyLockHoldsPerFrameOp(t *testing.T) {
	a := New(Config{Frames: 1 << 12, CPUs: 1}) // default magazine: 64, refills of 32
	holds := func(what string, want uint64, op func()) {
		t.Helper()
		before, _ := a.mu.Stats()
		op()
		if after, _ := a.mu.Stats(); after-before != want {
			t.Fatalf("%s: %d buddy-lock acquisitions, want %d", what, after-before, want)
		}
	}
	var fs []Frame
	alloc := func(n int) func() {
		return func() {
			for i := 0; i < n; i++ {
				f, err := a.Alloc(0)
				if err != nil {
					t.Fatal(err)
				}
				fs = append(fs, f)
			}
		}
	}
	freeBatch := func(frames []Frame) func() {
		return func() { a.FreeBatch(append([]Frame(nil), frames...)) }
	}
	refs := func(frames []Frame) {
		for _, f := range frames {
			a.Ref(f)
		}
	}

	holds("Alloc on an empty magazine", 1, alloc(1))
	holds("31 magazine hits", 0, alloc(31))
	holds("Alloc on the emptied magazine", 1, alloc(1))
	alloc(255 - len(fs))()

	refs(fs)
	holds("FreeBatch of 255 shared frames", 0, freeBatch(fs))
	refs(fs[1:])
	holds("FreeBatch of 255 frames, one dropping its last reference", 1, freeBatch(fs))
	holds("FreeBatch of one final frame", 1, freeBatch(fs[1:2]))
	holds("FreeBatch of 253 final frames", 1, freeBatch(fs[2:]))
	if n := a.InUse(); n != 0 {
		t.Fatalf("InUse = %d after every frame's last reference dropped", n)
	}
	if err := a.AuditBuddy(); err != nil {
		t.Fatal(err)
	}
}
