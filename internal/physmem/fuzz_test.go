package physmem

import (
	"testing"
)

// FuzzBuddyAllocator drives random AllocRun/FreeRun/Alloc/Free/Ref/drain
// sequences against an oracle of every frame's reference count and
// generation and asserts, at every step, that no two live allocations
// overlap and that Allocated/Refs/Gen of each frame touched agree with
// the oracle, and at quiesce (everything freed, magazines drained) that
// no frame leaked and the buddy lists have coalesced back to the initial
// maximal carving. The op stream is the fuzz input: each byte pair is
// (opcode, argument).
func FuzzBuddyAllocator(f *testing.F) {
	f.Add([]byte{0x09, 0x00, 0x13, 0x00, 0x20, 0x00})          // run, free run, drain
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x10, 0x00, 0x30, 0}) // singles
	f.Add([]byte{0x09, 0x01, 0x05, 0x02, 0x13, 0x01, 0x40, 0})
	f.Add([]byte{0x03, 0x00, 0x60, 0x00, 0x60, 0x00, 0x10, 0x00, 0x40, 0x00, 0x50, 0x00}) // shared frame outlives its run
	f.Fuzz(func(t *testing.T, ops []byte) {
		const frames = 3 << 10 // odd-shaped pool: not a power of two
		const cpus = 3
		a := New(Config{Frames: frames, CPUs: cpus, MagazineSize: 16})

		type run struct {
			base  Frame
			order int
		}
		var live []run
		refs := make([]int32, frames+1) // the oracle: references held, 0 = free
		gens := make([]uint64, frames+1)

		check := func(t *testing.T, f Frame) {
			if a.Allocated(f) != (refs[f] > 0) || a.Refs(f) != refs[f] || a.Gen(f) != gens[f] {
				t.Fatalf("frame %d: allocated %v refs %d gen %d; oracle refs %d gen %d",
					f, a.Allocated(f), a.Refs(f), a.Gen(f), refs[f], gens[f])
			}
		}

		claim := func(t *testing.T, base Frame, order int) {
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
				refs[f] = 1
				gens[f]++
				check(t, f)
			}
			live = append(live, run{base, order})
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
					live = append(live, run{f, 0})
				}
				check(t, f)
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
				claim(t, base, order)
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
				claim(t, f, 0)
			case 4: // free a live run frame-by-frame via FreeBatch
				if len(live) == 0 {
					continue
				}
				r := take(arg % len(live))
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
				r := live[arg%len(live)]
				f := r.base + Frame(arg)%(Frame(1)<<r.order)
				a.Ref(f)
				refs[f]++
				check(t, f)
			}
			if i%32 == 0 {
				if err := a.AuditBuddy(); err != nil {
					t.Fatalf("mid-run audit: %v", err)
				}
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
		if err := a.AuditBuddy(); err != nil {
			t.Fatalf("quiesce audit: %v", err)
		}
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
