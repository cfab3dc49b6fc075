package physmem

import (
	"fmt"
	"testing"
)

// FuzzBuddyAllocator drives random AllocRun/FreeRun/SplitRun/Alloc/Free/
// FreeBatch/Ref/drain sequences against an oracle of every frame's
// reference count, owner and generation and asserts, at every step, that
// no two live allocations overlap and that Allocated/Refs/Owner of each
// frame touched agree with the oracle exactly; periodically, that every
// frame and both accounts' charges agree and that every run shape is
// consistent with the buddy lists (auditShapes); and at quiesce
// (everything freed, magazines drained) that no frame leaked and the
// buddy lists have coalesced back to the initial maximal carving. The op
// stream is the fuzz input: each byte pair is (opcode, argument).
//
// Generations are checked as the package comment states them, not as
// exact counts: a frame's Gen is constant while it is live, never falls
// while it is free, and is strictly greater at each allocation than at
// the one before. A frame that was a run's tail takes the run's
// generation, which may be any higher value.
func FuzzBuddyAllocator(f *testing.F) {
	f.Add([]byte{0x09, 0x00, 0x13, 0x00, 0x20, 0x00})          // run, free run, drain
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x10, 0x00, 0x30, 0}) // singles
	f.Add([]byte{0x09, 0x01, 0x05, 0x02, 0x13, 0x01, 0x40, 0})
	f.Add([]byte{0x03, 0x00, 0x60, 0x00, 0x60, 0x00, 0x10, 0x00, 0x40, 0x00, 0x50, 0x00}) // shared frame outlives its run
	f.Add([]byte{0x09, 0x01, 0x10, 0x00, 0x08, 0x02, 0x08, 0x01, 0x10, 0x00, 0x10, 0x00}) // a shaped free block split for two smaller runs
	f.Add([]byte{0x09, 0x02, 0x70, 0x00, 0x10, 0x00, 0x09, 0x02, 0x40, 0x00})             // split a live run, reuse its block as a run again
	f.Add([]byte{0x04, 0x01, 0x10, 0x00, 0x30, 0x00, 0x20, 0x00, 0x04, 0x02, 0x61, 0x05}) // a shaped block merges and is refilled
	f.Fuzz(func(t *testing.T, ops []byte) {
		const frames = 3 << 10 // odd-shaped pool: not a power of two
		const cpus = 3
		a := New(Config{Frames: frames, CPUs: cpus, MagazineSize: 16})
		accounts := []*Account{nil, NewAccount("a", 0), NewAccount("b", 0)}
		for cpu, ac := range accounts {
			a.BindAccount(cpu, ac)
		}

		// run is one live allocation the oracle tracks: it holds one
		// reference on each of its frames. split says the allocator's run
		// is independent frames (SplitRun, or a Ref of one of its frames).
		type run struct {
			base  Frame
			order int
			split bool
		}
		var live []run
		refs := make([]int32, frames+1) // the oracle: references held, 0 = free
		gens := make([]uint64, frames+1)
		owners := make([]*Account, frames+1)

		check := func(t *testing.T, f Frame) {
			t.Helper()
			if a.Allocated(f) != (refs[f] > 0) || a.Refs(f) != refs[f] || a.Owner(f) != owners[f] {
				t.Fatalf("frame %d: allocated %v refs %d owner %v; oracle refs %d owner %v",
					f, a.Allocated(f), a.Refs(f), a.Owner(f), refs[f], owners[f])
			}
			if g := a.Gen(f); g != gens[f] && (refs[f] > 0 || g < gens[f]) {
				t.Fatalf("frame %d (refs %d): gen %d, was %d", f, refs[f], g, gens[f])
			}
		}
		materialized := func() uint64 { return a.Stats().TailsMaterialized }

		claim := func(t *testing.T, base Frame, order int, ac *Account) {
			size := Frame(1) << order
			if uint64(base)%uint64(size) != 0 {
				t.Fatalf("order-%d run at %d misaligned", order, base)
			}
			if uint64(base)+uint64(size)-1 > frames {
				t.Fatalf("order-%d run at %d out of range", order, base)
			}
			for f := base; f < base+size; f++ {
				if refs[f] != 0 {
					t.Fatalf("frame %d handed out while still live", f)
				}
				if g := a.Gen(f); g <= gens[f] {
					t.Fatalf("frame %d recycled at generation %d, was %d", f, g, gens[f])
				}
				refs[f], gens[f], owners[f] = 1, a.Gen(f), ac
				check(t, f)
			}
			live = append(live, run{base, order, order == 0})
		}
		// take removes live[idx]; release is the oracle's side of freeing
		// it: one reference less on each frame, and a frame somebody else
		// still references stays live as a single.
		take := func(idx int) run {
			r := live[idx]
			live[idx] = live[len(live)-1]
			live = live[:len(live)-1]
			return r
		}
		release := func(t *testing.T, r run) {
			for f := r.base; f < r.base+Frame(1)<<r.order; f++ {
				if refs[f]--; refs[f] > 0 {
					live = append(live, run{f, 0, true})
				} else {
					owners[f] = nil
				}
				check(t, f)
			}
		}
		// split is the oracle's side of SplitRun and of a Ref of a frame
		// of an unsplit run: the run's tails materialize once, and every
		// frame reads as it did.
		split := func(t *testing.T, idx int, do func()) {
			r := &live[idx]
			before := materialized()
			do()
			want := uint64(0)
			if !r.split {
				want = 1<<r.order - 1
			}
			if got := materialized() - before; got != want {
				t.Fatalf("splitting order-%d run %d (split %v) materialized %d tails, want %d",
					r.order, r.base, r.split, got, want)
			}
			r.split = true
		}

		audit := func(t *testing.T, when string) {
			if err := a.AuditBuddy(); err != nil {
				t.Fatalf("%s audit: %v", when, err)
			}
			if err := auditShapes(a); err != nil {
				t.Fatalf("%s shape audit: %v", when, err)
			}
			var inUse int64
			charged := make(map[*Account]int64)
			for f := Frame(1); f <= frames; f++ {
				check(t, f)
				if refs[f] > 0 {
					inUse++
					charged[owners[f]]++
				}
			}
			if got := a.InUse(); got != inUse {
				t.Fatalf("%s: InUse %d, oracle %d", when, got, inUse)
			}
			for _, ac := range accounts[1:] {
				if ac.Charged() != charged[ac] {
					t.Fatalf("%s: account %s charged %d, oracle %d", when, ac.Name(), ac.Charged(), charged[ac])
				}
			}
		}

		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], int(ops[i+1])
			cpu := arg % cpus
			switch op >> 4 {
			case 0: // alloc a run; low nibble picks the order
				order := int(op & 0x0f)
				if order > MaxOrder {
					order -= MaxOrder
				}
				base, err := a.AllocRun(cpu, order)
				if err != nil {
					continue // shortage is legal; leaking on it is not
				}
				claim(t, base, order, accounts[cpu])
			case 1: // free a live run (whole-run FreeRun)
				if len(live) == 0 {
					continue
				}
				r := take(arg % len(live))
				a.FreeRun(r.base, r.order)
				release(t, r)
			case 2: // drain magazines back into the buddy lists
				a.DrainMagazines()
			case 3: // single-frame alloc through the magazine path
				f, err := a.Alloc(cpu)
				if err != nil {
					continue
				}
				claim(t, f, 0, accounts[cpu])
			case 4: // split a live run and free it frame by frame via FreeBatch
				if len(live) == 0 {
					continue
				}
				idx := arg % len(live)
				split(t, idx, func() { a.SplitRun(live[idx].base, live[idx].order) })
				r := take(idx)
				var batch []Frame
				for f := r.base; f < r.base+Frame(1)<<r.order; f++ {
					batch = append(batch, f)
				}
				a.FreeBatch(batch)
				release(t, r)
			case 5: // free a live order-0 run via the magazine path
				if len(live) == 0 {
					continue
				}
				idx := arg % len(live)
				if live[idx].order != 0 {
					continue
				}
				r := take(idx)
				a.Free(cpu, r.base)
				release(t, r)
			case 6: // share a frame of a live run: it outlives the run's free
				if len(live) == 0 {
					continue
				}
				idx := arg % len(live)
				r := live[idx]
				f := r.base + Frame(arg)%(Frame(1)<<r.order)
				split(t, idx, func() { a.Ref(f) })
				refs[f]++
				for g := r.base; g < r.base+Frame(1)<<r.order; g++ {
					check(t, g)
				}
			case 7: // split a live run, keeping it
				if len(live) == 0 {
					continue
				}
				idx := arg % len(live)
				r := live[idx]
				split(t, idx, func() { a.SplitRun(r.base, r.order) })
				for g := r.base; g < r.base+Frame(1)<<r.order; g++ {
					check(t, g)
				}
			}
			if i%32 == 0 {
				audit(t, "mid-run")
			}
		}

		// Quiesce: free everything, drain the magazines, and check the
		// allocator returned to its initial state.
		for len(live) > 0 {
			r := take(0)
			a.FreeRun(r.base, r.order)
			release(t, r)
		}
		a.DrainMagazines()
		if got := a.InUse(); got != 0 {
			t.Fatalf("leaked %d frames at quiesce", got)
		}
		audit(t, "quiesce")
		// Full coalescing: the free lists must match the maximal
		// carving exactly — same block count at every order.
		want := map[int]int{}
		for _, b := range carve(frames) {
			want[b.order]++
		}
		for order := 0; order <= MaxOrder; order++ {
			if got := a.FreeRuns(order); got != want[order] {
				t.Fatalf("order-%d blocks at quiesce = %d, want %d (incomplete coalescing)",
					order, got, want[order])
			}
		}
	})
}

// auditShapes checks every frame word against the buddy lists: a tail
// points at a head of its own order, a head's run is shaped throughout,
// and a free block is either shaped at exactly its own order (a run freed
// whole that has not merged since) or holds no shape at all. The
// allocator must be quiescent apart from the caller.
func auditShapes(a *Allocator) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	for f := Frame(1); uint64(f) <= a.cfg.Frames; f++ {
		w := a.meta[f].Load()
		switch low := uint32(w); {
		case low&tailBit != 0:
			h := headOf(f, w)
			if hw := a.meta[h].Load(); uint32(hw)&headBit == 0 || shapeOrder(hw) != shapeOrder(w) || h == f {
				return fmt.Errorf("tail %d (order %d): head %d has word %#x", f, shapeOrder(w), h, hw)
			}
			if low&^(tailBit|orderMask<<orderShift) != 0 {
				return fmt.Errorf("tail %d holds references: %#x", f, w)
			}
		case low&headBit != 0:
			order := shapeOrder(w)
			if order == 0 || uint64(f)%(1<<order) != 0 {
				return fmt.Errorf("head %d of a misaligned order-%d run", f, order)
			}
			for g := f + 1; g < f+Frame(1)<<order; g++ {
				if gw := a.meta[g].Load(); uint32(gw) != uint32(tailBit|order<<orderShift) {
					return fmt.Errorf("frame %d of run %d (order %d) has word %#x", g, f, order, gw)
				}
			}
		case low > refsMask:
			return fmt.Errorf("frame %d: word %#x", f, w)
		}
	}
	for order := 0; order <= MaxOrder; order++ {
		for _, base := range a.freeLists[order] {
			hw := a.meta[base].Load()
			shaped := uint32(hw) == uint32(headBit|order<<orderShift)
			if !shaped && uint32(hw) != 0 {
				return fmt.Errorf("free order-%d block %d: head word %#x", order, base, hw)
			}
			if !shaped {
				for f := base + 1; f < base+Frame(1)<<order; f++ {
					if w := a.meta[f].Load(); uint32(w) != 0 {
						return fmt.Errorf("free unshaped order-%d block %d: frame %d has word %#x", order, base, f, w)
					}
				}
			}
		}
	}
	return nil
}
