package vm

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bonsai/internal/pagetable"
	"bonsai/internal/vma"
)

// TestTLBStatsBatched pins the batching acceptance numbers
// deterministically: one munmap of a faulted N-page region pays
// exactly one flush covering all N translations (pages-per-flush == N,
// not 1), and the frames come back to the pool only after the flush's
// grace period.
func TestTLBStatsBatched(t *testing.T) {
	forEachDesign(t, Config{CPUs: 1}, func(t *testing.T, as *AddressSpace) {
		const pages = 256
		cpu := as.NewCPU(0)
		base := mustMmap(t, as, 0, pages*PageSize, vma.ProtRead|vma.ProtWrite, 0)
		for p := uint64(0); p < pages; p++ {
			if err := cpu.Fault(base+p*PageSize, true); err != nil {
				t.Fatal(err)
			}
		}
		before := as.Stats()
		if err := as.Munmap(base, pages*PageSize); err != nil {
			t.Fatal(err)
		}
		after := as.Stats()
		if flushes := after.TLBFlushes - before.TLBFlushes; flushes != 1 {
			t.Fatalf("munmap of %d pages paid %d flushes, want 1", pages, flushes)
		}
		if flushed := after.TLBPagesFlushed - before.TLBPagesFlushed; flushed != pages {
			t.Fatalf("flush covered %d translations, want %d", flushed, pages)
		}
		as.Domain().Synchronize()
		if inUse := as.Allocator().InUse(); inUse >= pages {
			t.Fatalf("%d frames still in use after the flush's grace period", inUse)
		}
	})
}

// TestTLBGatherFlushInvariant is the -race storm behind the pipeline's
// hard invariant — no frame is reusable while any translation to it
// may be live. One goroutine batch-zaps a shared file mapping while
// sibling address spaces fault the same file pages; every faulter
// continuously audits its own translations using the allocator's frame
// generation stamps: inside an RCU read-side critical section, a
// present PTE's frame must be allocated (its release is deferred past
// the flush and a grace period no in-section reader can be concurrent
// with), and its generation must not move while the translation stays
// visible — a moved generation means the frame was freed and recycled
// before the flush that revoked it completed.
func TestTLBGatherFlushInvariant(t *testing.T) {
	const (
		spaces    = 2
		faulters  = 2 // per space
		filePages = 64
	)
	duration := 400 * time.Millisecond
	if testing.Short() {
		duration = 100 * time.Millisecond
	}
	armFlushDelay(t, time.Microsecond)
	forEachDesign(t, Config{CPUs: faulters + 1, Frames: 1 << 14, MaxFamily: spaces}, func(t *testing.T, as *AddressSpace) {
		f := vma.NewFile("storm.dat", 99)
		all := []*AddressSpace{as}
		for i := 1; i < spaces; i++ {
			all = append(all, sibling(t, as))
		}
		bases := make([]uint64, spaces)
		for i, sp := range all {
			b, err := sp.Mmap(0, filePages*PageSize, vma.ProtRead|vma.ProtWrite, vma.Shared, f, 0)
			if err != nil {
				t.Fatal(err)
			}
			bases[i] = b
		}

		var (
			wg      sync.WaitGroup
			stop    = make(chan struct{})
			audits  atomic.Uint64
			zapOK   atomic.Uint64
			faultOK atomic.Uint64
		)
		// The zapper: batch-unmap the whole file range of space 0, over
		// and over. Each MadviseDontNeed is one gather batch — many
		// pages, one flush.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := all[0].MadviseDontNeed(bases[0], filePages*PageSize); err != nil {
					t.Errorf("zap: %v", err)
					return
				}
				zapOK.Add(1)
			}
		}()

		for si, sp := range all {
			for w := 0; w < faulters; w++ {
				wg.Add(1)
				go func(sp *AddressSpace, base uint64, id int) {
					defer wg.Done()
					cpu := sp.NewCPU(id)
					alloc := sp.Allocator()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						page := base + uint64(i%filePages)*PageSize
						if err := cpu.Fault(page, i%4 == 0); err != nil {
							if errors.Is(err, ErrNoMemory) {
								continue
							}
							t.Errorf("fault %#x: %v", page, err)
							return
						}
						faultOK.Add(1)
						// Audit the translation just installed (or any
						// translation a racing faulter left): the read
						// section pins every frame whose release is
						// correctly ordered after its revoking flush.
						cpu.rd.Lock()
						if pte, ok := sp.Tables().Walk(page); ok {
							frame := pagetable.PTEFrame(pte)
							gen := alloc.Gen(frame)
							if !alloc.Allocated(frame) {
								t.Errorf("live translation %#x maps freed frame %d", page, frame)
							}
							if pte2, ok2 := sp.Tables().Walk(page); ok2 && pte2 == pte {
								if now := alloc.Gen(frame); now != gen {
									t.Errorf("frame %d recycled (gen %d -> %d) under a live translation", frame, gen, now)
								}
							}
							audits.Add(1)
						}
						cpu.rd.Unlock()
					}
				}(sp, bases[si], w)
			}
		}

		time.Sleep(duration)
		// On a fully loaded machine the fixed window can elapse before
		// every role has run; hold it open until the storm has
		// demonstrably exercised the race (zaps, faults, audits, and at
		// least one paid flush) or a generous deadline passes.
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
			if zapOK.Load() > 0 && faultOK.Load() > 0 && audits.Load() > 0 && as.Stats().TLBFlushes > 0 {
				break
			}
		}
		close(stop)
		wg.Wait()
		if t.Failed() {
			return
		}
		if zapOK.Load() == 0 || faultOK.Load() == 0 || audits.Load() == 0 {
			t.Fatalf("storm did not exercise the race: zaps=%d faults=%d audits=%d",
				zapOK.Load(), faultOK.Load(), audits.Load())
		}
		st := as.Stats()
		if st.TLBFlushes == 0 {
			t.Fatal("storm paid no flushes")
		}
		t.Logf("zaps=%d faults=%d audits=%d flushes=%d pages/flush=%.1f", zapOK.Load(), faultOK.Load(),
			audits.Load(), st.TLBFlushes, float64(st.TLBPagesFlushed)/float64(st.TLBFlushes))
	})
}
