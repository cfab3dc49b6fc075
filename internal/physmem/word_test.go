package physmem

import (
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// mustPanic runs fn and fails the test unless it panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// mustPanicWith is mustPanic for a panic whose message contains want.
func mustPanicWith(t *testing.T, what, want string, fn func()) {
	t.Helper()
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, want) {
			t.Fatalf("%s: panic %q, want one containing %q", what, msg, want)
		}
	}()
	fn()
}

// TestRunIsOneWord settles what an unsplit run's frames report: every
// frame reads as allocated with the head's one reference, generation and
// owner, while AllocRun and FreeRun write the head alone — a run reused
// at its order touches no tail. A Ref of a tail splits the run once, and
// the buddy lists splitting a shaped free block materialize it once more;
// each frame's generation is constant while the run is live and strictly
// greater after every recycle.
func TestRunIsOneWord(t *testing.T) {
	a := New(Config{Frames: 1023, CPUs: 1}) // one order-9 block, at 512
	ac := NewAccount("t", 0)
	a.BindAccount(0, ac)
	tails := func() (shaped, materialized uint64) {
		st := a.Stats()
		return st.TailsShaped, st.TailsMaterialized
	}
	reads := func(base Frame, refs int32, gen uint64, owner *Account) {
		t.Helper()
		for f := base; f < base+1<<MaxOrder; f++ {
			if a.Allocated(f) != (refs > 0) || a.Refs(f) != refs || a.Gen(f) != gen || a.Owner(f) != owner {
				t.Fatalf("frame %d: allocated %v refs %d gen %d owner %v; want refs %d gen %d owner %v",
					f, a.Allocated(f), a.Refs(f), a.Gen(f), a.Owner(f), refs, gen, owner)
			}
		}
	}

	base, err := a.AllocRun(0, MaxOrder)
	if err != nil || base != 512 {
		t.Fatalf("AllocRun = %d, %v", base, err)
	}
	if s, m := tails(); s != 511 || m != 0 {
		t.Fatalf("first use of the block: %d tails shaped, %d materialized; want 511, 0", s, m)
	}
	gen := a.Gen(base)
	reads(base, 1, gen, ac)
	a.FreeRun(base, MaxOrder)
	reads(base, 0, gen, nil)
	if ac.Charged() != 0 {
		t.Fatalf("charged %d after the run's free", ac.Charged())
	}

	// Reused at its own order: the head's word is all that changes.
	if again, err := a.AllocRun(0, MaxOrder); err != nil || again != base {
		t.Fatalf("AllocRun again = %d, %v", again, err)
	}
	if s, m := tails(); s != 511 || m != 0 {
		t.Fatalf("reuse of the shaped block: %d tails shaped, %d materialized; want 511, 0", s, m)
	}
	reads(base, 1, gen+1, ac)

	// A sharer of one tail splits the run: the frames read the same, and
	// then go their own ways.
	shared := base + 300
	a.Ref(shared)
	if _, m := tails(); m != 511 {
		t.Fatalf("Ref of a tail materialized %d tails, want 511", m)
	}
	if a.Refs(shared) != 2 || a.Refs(shared-1) != 1 || a.Gen(shared) != gen+1 || a.Owner(shared) != ac {
		t.Fatalf("after the Ref: refs %d / %d, gen %d, owner %v", a.Refs(shared), a.Refs(shared-1), a.Gen(shared), a.Owner(shared))
	}
	a.SplitRun(base, MaxOrder) // already split: nothing to do
	if _, m := tails(); m != 511 {
		t.Fatalf("SplitRun of a split run materialized %d more tails", m-511)
	}
	a.FreeRun(base, MaxOrder)
	if !a.Allocated(shared) || a.Allocated(base) || ac.Charged() != 1 {
		t.Fatalf("shared frame allocated %v, head %v, charged %d", a.Allocated(shared), a.Allocated(base), ac.Charged())
	}
	a.Free(0, shared)
	a.DrainMagazines()

	// The buddy lists break a shaped free block: an order-8 run when the
	// only order-8 block is taken splits the order-9 one.
	base, _ = a.AllocRun(0, MaxOrder)
	gen = a.Gen(base)
	a.FreeRun(base, MaxOrder)
	s0, m0 := tails()
	low, err := a.AllocRun(0, MaxOrder-1)
	if err != nil || low != 256 {
		t.Fatalf("AllocRun(8) = %d, %v", low, err)
	}
	high, err := a.AllocRun(0, MaxOrder-1)
	if err != nil || high != base {
		t.Fatalf("AllocRun(8) = %d, %v; want the order-9 block's low half", high, err)
	}
	if s, m := tails(); m-m0 != 511 || s-s0 != 255+255 {
		t.Fatalf("breaking the shaped block: %d tails materialized, %d shaped; want 511, 510", m-m0, s-s0)
	}
	for f := high; f < high+256; f++ {
		if a.Gen(f) <= gen {
			t.Fatalf("frame %d recycled at generation %d, was %d", f, a.Gen(f), gen)
		}
	}
	a.FreeRun(low, MaxOrder-1)
	a.FreeRun(high, MaxOrder-1)
	if err := a.AuditBuddy(); err != nil {
		t.Fatal(err)
	}
	if err := auditShapes(a); err != nil {
		t.Fatal(err)
	}
	if a.InUse() != 0 || a.FreeRuns(MaxOrder) != 1 || ac.Charged() != 0 {
		t.Fatalf("InUse %d, order-9 blocks %d, charged %d", a.InUse(), a.FreeRuns(MaxOrder), ac.Charged())
	}
}

// TestRunSplitUnderConcurrentReaders: while goroutines take sharers on
// tails of one live run and a SplitRun runs beside them, readers of every
// frame see it allocated with the run's generation and owner throughout
// and never a count the frame did not have; the run materializes once and
// each sharer lands on its own frame.
func TestRunSplitUnderConcurrentReaders(t *testing.T) {
	const sharers = 4
	a := New(Config{Frames: 1 << 10, CPUs: 1})
	ac := NewAccount("t", 0)
	a.BindAccount(0, ac)
	base, err := a.AllocRun(0, MaxOrder)
	if err != nil {
		t.Fatal(err)
	}
	gen := a.Gen(base)
	shared := func(i int) Frame { return base + Frame(1+100*i) }
	var stop atomic.Bool
	var readers, writers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for !stop.Load() {
				f := base + Frame(rng.Intn(1<<MaxOrder))
				if !a.Allocated(f) || a.Gen(f) != gen || a.Owner(f) != ac {
					t.Errorf("frame %d mid-split: allocated %v gen %d (want %d) owner %v",
						f, a.Allocated(f), a.Gen(f), gen, a.Owner(f))
					return
				}
				if n := a.Refs(f); n != 1 && n != 2 {
					t.Errorf("frame %d mid-split: refs %d", f, n)
					return
				}
			}
		}(r)
	}
	for i := 0; i < sharers; i++ {
		writers.Add(1)
		go func(i int) {
			defer writers.Done()
			a.Ref(shared(i))
		}(i)
	}
	writers.Add(1)
	go func() {
		defer writers.Done()
		a.SplitRun(base, MaxOrder)
	}()
	writers.Wait()
	stop.Store(true)
	readers.Wait()
	if m := a.Stats().TailsMaterialized; m != 511 {
		t.Fatalf("%d tails materialized, want 511 (once)", m)
	}
	for f := base; f < base+1<<MaxOrder; f++ {
		want := int32(1)
		for i := 0; i < sharers; i++ {
			if f == shared(i) {
				want = 2
			}
		}
		if a.Refs(f) != want || a.Owner(f) != ac || a.Gen(f) != gen {
			t.Fatalf("frame %d: refs %d (want %d) owner %v gen %d", f, a.Refs(f), want, a.Owner(f), a.Gen(f))
		}
	}
	a.FreeRun(base, MaxOrder)
	for i := 0; i < sharers; i++ {
		a.FreeRemote(shared(i))
	}
	if a.InUse() != 0 || ac.Charged() != 0 {
		t.Fatalf("InUse %d, charged %d", a.InUse(), ac.Charged())
	}
	if err := a.AuditBuddy(); err != nil {
		t.Fatal(err)
	}
}

// TestOwnerDuringSplit: a run's tails keep reporting the run's account
// while SplitRun materializes them. The split stamps every tail's owner
// before it clears the tail bits, so Owner must read the frame word
// first: read the other way round, a reader that loads a tail's owner
// before its stamp and its word after the clear sees no owner at all.
func TestOwnerDuringSplit(t *testing.T) {
	a := New(Config{Frames: 1 << 10, CPUs: 1})
	ac := NewAccount("t", 0)
	a.BindAccount(0, ac)
	wrong := 0
	for round := 0; round < 3000; round++ {
		base, err := a.AllocRun(0, MaxOrder)
		if err != nil {
			t.Fatal(err)
		}
		last := base + 1<<MaxOrder - 1
		var stop atomic.Bool
		done := make(chan int)
		for r := 0; r < 2; r++ {
			go func() {
				n := 0
				for i := 0; !stop.Load(); i++ {
					if a.Owner(last-Frame(i%4)) != ac {
						n++
					}
				}
				done <- n
			}()
		}
		a.SplitRun(base, MaxOrder)
		stop.Store(true)
		wrong += <-done + <-done
		a.FreeRun(base, MaxOrder)
	}
	if wrong != 0 {
		t.Fatalf("Owner reported a wrong account %d times while the run split", wrong)
	}
	if a.InUse() != 0 || ac.Charged() != 0 {
		t.Fatalf("InUse %d, charged %d", a.InUse(), ac.Charged())
	}
}

// The three guards below each have a mutant twin in scripts/mutants.sh:
// the same test run against a copy of the package with that guard
// removed, which must fail.

// TestFreeOfUnsplitRunFramePanics: Free, FreeRemote and FreeBatch of a
// frame of an unsplit run panic — a tail has no references of its own,
// and the head's one reference is the whole run's — and leave the run as
// it was, so it still frees whole.
func TestFreeOfUnsplitRunFramePanics(t *testing.T) {
	a := New(Config{Frames: 1 << 10, CPUs: 1})
	base, err := a.AllocRun(0, MaxOrder)
	if err != nil {
		t.Fatal(err)
	}
	gen := a.Gen(base)
	frees := map[string]func(Frame){
		"Free":       func(f Frame) { a.Free(0, f) },
		"FreeRemote": a.FreeRemote,
		"FreeBatch":  func(f Frame) { a.FreeBatch([]Frame{f}) },
	}
	for name, free := range frees {
		mustPanicWith(t, name+" of a tail", "with no references", func() { free(base + 7) })
		mustPanicWith(t, name+" of the head", "head of an unsplit run", func() { free(base) })
	}
	for _, f := range []Frame{base, base + 7} {
		if !a.Allocated(f) || a.Refs(f) != 1 || a.Gen(f) != gen {
			t.Fatalf("frame %d after the panics: allocated %v refs %d gen %d (was %d)",
				f, a.Allocated(f), a.Refs(f), a.Gen(f), gen)
		}
	}
	a.FreeRun(base, MaxOrder)
	if a.InUse() != 0 || a.Stats().TailsMaterialized != 0 {
		t.Fatalf("InUse %d, %d tails materialized", a.InUse(), a.Stats().TailsMaterialized)
	}
	if err := auditShapes(a); err != nil {
		t.Fatal(err)
	}
}

// TestStampOfShapedFramePanics: a buddy bug that hands out a tail of a
// shaped free block as a frame of its own — here, a refill that forgot to
// unshape — is caught by the order-0 allocation's one Add.
func TestStampOfShapedFramePanics(t *testing.T) {
	a := New(Config{Frames: 1 << 10, CPUs: 1})
	base, err := a.AllocRun(0, MaxOrder)
	if err != nil {
		t.Fatal(err)
	}
	a.FreeRun(base, MaxOrder)
	a.mu.Lock()
	a.removeBlockLocked(base, MaxOrder)
	a.mu.Unlock()
	a.mags[0].frames = append(a.mags[0].frames, base+5)
	mustPanicWith(t, "Alloc of a shaped tail", "allocated twice", func() { a.Alloc(0) })
}

// TestFreeRunTwicePanics: a second FreeRun of an unsplit run panics and
// leaves the freed block as it was, so it is allocated again normally.
func TestFreeRunTwicePanics(t *testing.T) {
	a := New(Config{Frames: 1 << 10, CPUs: 1})
	base, err := a.AllocRun(0, MaxOrder)
	if err != nil {
		t.Fatal(err)
	}
	gen := a.Gen(base)
	a.FreeRun(base, MaxOrder)
	runs := a.FreeRuns(MaxOrder)
	mustPanicWith(t, "a second FreeRun", "with no references", func() { a.FreeRun(base, MaxOrder) })
	if a.Allocated(base) || a.Gen(base) != gen || a.FreeRuns(MaxOrder) != runs || a.InUse() != 0 {
		t.Fatalf("after the panic: allocated %v gen %d (was %d), order-9 blocks %d (was %d), InUse %d",
			a.Allocated(base), a.Gen(base), gen, a.FreeRuns(MaxOrder), runs, a.InUse())
	}
	if err := auditShapes(a); err != nil {
		t.Fatal(err)
	}
	if again, err := a.AllocRun(0, MaxOrder); err != nil || again != base || a.Gen(base) != gen+1 {
		t.Fatalf("AllocRun after the panic = %d, %v; gen %d, want %d", again, err, a.Gen(base), gen+1)
	}
}

// TestFrameWordPanics: every way of dropping or taking a reference the
// frame does not have panics, and leaves the packed word as it found it
// (the borrow a bad Add(-1) takes from the generation half is undone),
// so the frame allocates normally afterwards.
func TestFrameWordPanics(t *testing.T) {
	cases := []struct {
		name string
		bad  func(a *Allocator, f Frame)
	}{
		{"Free", func(a *Allocator, f Frame) { a.Free(0, f) }},
		{"FreeRemote", func(a *Allocator, f Frame) { a.FreeRemote(f) }},
		{"FreeBatch", func(a *Allocator, f Frame) { a.FreeBatch([]Frame{f}) }},
		{"FreeRun", func(a *Allocator, f Frame) { a.FreeRun(f, 0) }},
		{"Ref", func(a *Allocator, f Frame) { a.Ref(f) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := New(Config{Frames: 1, CPUs: 1})
			const f = Frame(1)
			mustPanic(t, tc.name+" of a never-allocated frame", func() { tc.bad(a, f) })
			got, err := a.Alloc(0)
			if err != nil || got != f {
				t.Fatalf("Alloc = %d, %v", got, err)
			}
			a.Free(0, f)
			gen := a.Gen(f)
			mustPanic(t, tc.name+" of a freed frame", func() { tc.bad(a, f) })
			if a.Allocated(f) || a.Refs(f) != 0 || a.Gen(f) != gen {
				t.Fatalf("after the panic: allocated %v, refs %d, gen %d (was %d)",
					a.Allocated(f), a.Refs(f), a.Gen(f), gen)
			}
			if got, err := a.Alloc(0); err != nil || got != f || a.Gen(f) != gen+1 || a.Refs(f) != 1 {
				t.Fatalf("realloc = %d, %v; gen %d (want %d), refs %d", got, err, a.Gen(f), gen+1, a.Refs(f))
			}
			a.Free(0, f)
			if a.InUse() != 0 {
				t.Fatalf("InUse = %d", a.InUse())
			}
		})
	}
}

// TestGenAndRefsExactUnderRefStorm: workers take and drop extra
// references on a shared set of frames while one goroutine recycles a
// private frame. One word carries both halves, so the storm must leave
// every shared frame's generation untouched and its count exactly
// 1 + the references still held; the recycled frame's generation must
// have advanced once per allocation.
func TestGenAndRefsExactUnderRefStorm(t *testing.T) {
	const workers, shared, iters = 8, 16, 4000
	a := New(Config{Frames: 256, CPUs: workers + 1, MagazineSize: 8})
	frames := make([]Frame, shared)
	gens := make([]uint64, shared)
	for i := range frames {
		f, err := a.Alloc(0)
		if err != nil {
			t.Fatal(err)
		}
		frames[i], gens[i] = f, a.Gen(f)
	}
	var wg sync.WaitGroup
	extra := make([][shared]int32, workers) // references each worker still holds
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				k := rng.Intn(shared)
				switch op := rng.Intn(4); {
				case op < 2 || extra[w][k] == 0:
					a.Ref(frames[k])
					extra[w][k]++
				case op == 2:
					a.Free(w, frames[k])
					extra[w][k]--
				default:
					a.FreeBatch([]Frame{frames[k]})
					extra[w][k]--
				}
			}
		}(w)
	}
	// The recycler shares the metadata array (and, at first, cache lines
	// of it) with the storm.
	const cycles = 2000
	wg.Add(1)
	var recycled Frame
	var recycledGen uint64
	go func() {
		defer wg.Done()
		f, err := a.Alloc(workers)
		if err != nil {
			t.Error(err)
			return
		}
		recycled, recycledGen = f, a.Gen(f)
		for i := 0; i < cycles; i++ {
			a.Free(workers, f)
			g, err := a.Alloc(workers) // LIFO magazine: the same frame comes back
			if err != nil || g != f {
				t.Errorf("recycle %d: got %d, %v; want %d", i, g, err, f)
				return
			}
		}
	}()
	wg.Wait()
	if got := a.Gen(recycled); got != recycledGen+cycles {
		t.Fatalf("recycled frame: gen %d after %d allocations from %d", got, cycles, recycledGen)
	}
	a.Free(workers, recycled)
	for k, f := range frames {
		want := int32(1)
		for w := range extra {
			want += extra[w][k]
		}
		if got := a.Refs(f); got != want {
			t.Fatalf("frame %d: refs %d at quiesce, want %d", f, got, want)
		}
		if a.Gen(f) != gens[k] || !a.Allocated(f) {
			t.Fatalf("frame %d: gen %d -> %d, allocated %v", f, gens[k], a.Gen(f), a.Allocated(f))
		}
		for ; want > 0; want-- {
			a.FreeRemote(f)
		}
		if a.Allocated(f) {
			t.Fatalf("frame %d allocated after its last reference dropped", f)
		}
	}
	if a.InUse() != 0 {
		t.Fatalf("InUse = %d", a.InUse())
	}
	a.DrainMagazines()
	if err := a.AuditBuddy(); err != nil {
		t.Fatal(err)
	}
}

// TestRefillTakesOneBlock: from a fresh pool a refill is one aligned
// block of half a magazine, so two CPUs' magazines never share a line
// of the metadata array (eight words to 64 bytes), and it costs one
// buddy step's worth of splits, not one walk per frame.
func TestRefillTakesOneBlock(t *testing.T) {
	a := New(Config{Frames: 1 << 12, CPUs: 2}) // default magazine: 64, refill order 5
	lines := map[Frame]int{}
	for cpu := 0; cpu < 2; cpu++ {
		for i := 0; i < 32; i++ {
			f, err := a.Alloc(cpu)
			if err != nil {
				t.Fatal(err)
			}
			if owner, ok := lines[f>>3]; ok && owner != cpu {
				t.Fatalf("frame %d (cpu %d) shares metadata line %d with cpu %d", f, cpu, f>>3, owner)
			}
			lines[f>>3] = cpu
		}
	}
	if st := a.Stats(); st.Refills != 2 || st.BuddySplits > 2*MaxOrder {
		t.Fatalf("64 allocations on 2 CPUs: %d refills, %d splits", st.Refills, st.BuddySplits)
	}
	if len(lines) != 8 {
		t.Fatalf("64 frames spread over %d metadata lines, want 8", len(lines))
	}
}

// TestRefillOnCheckerboard: with every other frame pinned the buddy
// lists hold nothing but order-0 blocks. Refills fall back to single
// frames, hand out every free frame exactly once — the last one too —
// and only then report ErrOutOfMemory.
func TestRefillOnCheckerboard(t *testing.T) {
	const frames = 1 << 10
	a := New(Config{Frames: frames, CPUs: 2, MagazineSize: 16})
	var all []Frame
	for i := 0; i < frames; i++ {
		f, err := a.Alloc(0)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, f)
	}
	free := map[Frame]bool{}
	for _, f := range all {
		if f%2 == 1 { // odd frames: each one's buddy stays pinned
			a.FreeRemote(f)
			free[f] = true
		}
	}
	for order := 1; order <= MaxOrder; order++ {
		if n := a.FreeRuns(order); n != 0 {
			t.Fatalf("checkerboard left %d order-%d blocks", n, order)
		}
	}
	refills := a.Stats().Refills
	for i := 0; i < frames/2; i++ {
		f, err := a.Alloc(i % 2)
		if err != nil {
			t.Fatalf("allocation %d of %d free frames: %v", i+1, frames/2, err)
		}
		if !free[f] {
			t.Fatalf("frame %d handed out twice or never freed", f)
		}
		delete(free, f)
	}
	if got := a.Stats().Refills - refills; got != frames/2 {
		t.Fatalf("%d refills for %d single-frame blocks", got, frames/2)
	}
	if _, err := a.Alloc(0); err != ErrOutOfMemory {
		t.Fatalf("allocation past the last frame: %v", err)
	}
	if err := a.AuditBuddy(); err != nil {
		t.Fatal(err)
	}
	a.FreeBatch(all)
	if err := a.AuditBuddy(); err != nil {
		t.Fatal(err)
	}
	if a.InUse() != 0 || a.FreeRuns(MaxOrder) != 1 {
		t.Fatalf("InUse %d, order-9 blocks %d after freeing everything", a.InUse(), a.FreeRuns(MaxOrder))
	}
}

// TestFreeRunWithSharedFrame: a run one of whose frames is still shared
// frees the rest (as single frames — the block is not whole), and the
// run reassembles once the last reference to the straggler drops. A run
// with no sharer goes back as one block: no coalescing steps at all.
func TestFreeRunWithSharedFrame(t *testing.T) {
	a := New(Config{Frames: 1 << 10, CPUs: 1})
	runs := a.FreeRuns(MaxOrder)
	base, err := a.AllocRun(0, MaxOrder)
	if err != nil {
		t.Fatal(err)
	}
	coalesces := a.Stats().BuddyCoalesces
	a.FreeRun(base, MaxOrder)
	if st := a.Stats(); st.BuddyCoalesces != coalesces || a.FreeRuns(MaxOrder) != runs {
		t.Fatalf("whole-run free: %d coalesces, %d order-9 blocks (want 0 more, %d)",
			st.BuddyCoalesces-coalesces, a.FreeRuns(MaxOrder), runs)
	}

	if base, err = a.AllocRun(0, MaxOrder); err != nil {
		t.Fatal(err)
	}
	shared := base + 200
	a.Ref(shared)
	a.FreeRun(base, MaxOrder)
	if got := a.InUse(); got != 1 {
		t.Fatalf("InUse = %d with one frame still shared", got)
	}
	if !a.Allocated(shared) || a.Refs(shared) != 1 || a.Allocated(shared-1) || a.Allocated(shared+1) {
		t.Fatalf("shared frame: allocated %v refs %d; neighbours allocated %v %v",
			a.Allocated(shared), a.Refs(shared), a.Allocated(shared-1), a.Allocated(shared+1))
	}
	if got := a.FreeRuns(MaxOrder); got != runs-1 {
		t.Fatalf("order-9 blocks = %d while the run is pinned, want %d", got, runs-1)
	}
	if err := a.AuditBuddy(); err != nil {
		t.Fatal(err)
	}
	a.Free(0, shared)
	a.DrainMagazines()
	if got := a.FreeRuns(MaxOrder); got != runs || a.InUse() != 0 {
		t.Fatalf("order-9 blocks = %d, InUse %d after the last Free; want %d, 0", got, a.InUse(), runs)
	}
	if err := a.AuditBuddy(); err != nil {
		t.Fatal(err)
	}
}

// TestSpillKeepsNewestFrames: an overflowing magazine hands its older
// half to the buddy lists and keeps the frames freed last, which the
// next allocations then get back newest first without a refill.
func TestSpillKeepsNewestFrames(t *testing.T) {
	a := New(Config{Frames: 64, CPUs: 1, MagazineSize: 4})
	var fs []Frame
	for i := 0; i < 8; i++ { // four refills of two: the magazine ends empty
		f, err := a.Alloc(0)
		if err != nil {
			t.Fatal(err)
		}
		fs = append(fs, f)
	}
	buddy := a.buddyFree
	for _, f := range fs[:5] { // the fifth free overflows: fs[0], fs[1] spill
		a.Free(0, f)
	}
	if a.buddyFree != buddy+2 {
		t.Fatalf("spill moved %d frames to the buddy lists, want 2", a.buddyFree-buddy)
	}
	refills := a.Stats().Refills
	for _, want := range []Frame{fs[4], fs[3], fs[2]} {
		if got, err := a.Alloc(0); err != nil || got != want {
			t.Fatalf("after the spill Alloc = %d, %v; want %d (newest first)", got, err, want)
		}
	}
	if a.Stats().Refills != refills {
		t.Fatal("the kept half did not serve three allocations without a refill")
	}
	if err := a.AuditBuddy(); err != nil {
		t.Fatal(err)
	}
}
