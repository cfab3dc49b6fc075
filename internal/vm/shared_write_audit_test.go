package vm

import (
	"maps"
	"reflect"
	"testing"

	"bonsai/internal/physmem"
	"bonsai/internal/vma"
)

// auditReading is everything the shared-write audit watches, read
// before and after a burst of fast-path faults on CPU 0: the public
// Stats() of each layer (whose deltas must be exactly the expected
// ones, so a counter that is not per-CPU and moved names itself), and
// CPU 0's and CPU 1's own cells of every per-CPU counter and histogram.
type auditReading struct {
	vm     Stats
	tables reflect.Value // pagetable.Stats
	phys   reflect.Value // physmem.Stats
	cache  reflect.Value // pagecache.Stats
	ranges reflect.Value // ranges.Stats

	cells       [2]map[string]uint64 // per-CPU cells of CPU 0 and CPU 1
	faultSample [2]uint64            // per-CPU fault histogram counts
	mapSamples  uint64
}

func readAudit(as *AddressSpace, cpus [2]*CPU) auditReading {
	r := auditReading{
		vm:     as.Stats(),
		tables: reflect.ValueOf(as.tables.Stats()),
		phys:   reflect.ValueOf(as.alloc.Stats()),
		cache:  reflect.ValueOf(as.PageCacheStats()),
		ranges: reflect.ValueOf(as.RangeStats()),
	}
	for row := range as.stats.slot.All() {
		r.mapSamples += row.hist.Count()
	}
	for i, c := range cpus {
		m := make(map[string]uint64)
		rowCells(m, as.stats.cpu.At(c.id))
		m["pagetable.ptesFilled"] = as.tables.PTEsFilledOn(c.id)
		m["physmem.allocs"], m["physmem.frees"] = as.alloc.CPUCounts(c.id)
		as.fam.ms.filesMu.Lock()
		for _, f := range as.fam.files {
			m["pagecache.hits"] += f.PageCache().HitsOn(c.id)
		}
		as.fam.ms.filesMu.Unlock()
		r.cells[i] = m
		r.faultSample[i] = as.stats.cpu.At(c.id).hist.Count()
	}
	return r
}

// rowCells reads one stats row's counts into m, each under "vm.<Field>".
func rowCells(m map[string]uint64, row *statRow) {
	var c Counts
	c.Add(&row.Counts)
	for i, w := range c.words() {
		m["vm."+reflect.TypeOf(c).Field(i).Name] = w
	}
}

// structDeltas returns after−before for every integer field of two
// readings of the same Stats struct, embedded structs' fields included,
// skipping zero deltas.
func structDeltas(before, after reflect.Value) map[string]int64 {
	d := make(map[string]int64)
	for i := 0; i < before.NumField(); i++ {
		var delta int64
		switch b, a := before.Field(i), after.Field(i); b.Kind() {
		case reflect.Uint64, reflect.Uint:
			delta = int64(a.Uint() - b.Uint())
		case reflect.Int64, reflect.Int:
			delta = a.Int() - b.Int()
		case reflect.Struct:
			if before.Type().Field(i).Anonymous {
				maps.Copy(d, structDeltas(b, a))
			}
			continue // otherwise nested latency percentiles: not counters
		default:
			continue
		}
		if delta != 0 {
			d[before.Type().Field(i).Name] = delta
		}
	}
	return d
}

func wantDeltas(t *testing.T, layer string, got, want map[string]int64) {
	t.Helper()
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: counters moved by %v, want exactly %v", layer, got, want)
	}
}

// TestFastPathFaultWritesOnlyItsOwnCells is ROADMAP item 2's proof,
// counter edition. For each design, N fast-path anonymous faults and N
// shared-file (page-cache hit) faults run on CPU 0 only; every counter
// and histogram in vm, pagetable, physmem and pagecache that moved must
// have moved in CPU 0's cells — CPU 1's cells and every counter that
// is still shared read zero delta. The documented exceptions are lock
// words, and only for the designs that take a lock: the reader count of
// mmap_sem (RWLock), of the fault lock (FaultLock) and of the tree lock
// (Hybrid). PureRCU has none. They count nothing, so which lock a
// fault takes is shown by what it waits for (TestDesignLockTable).
//
// One step covers a plain write the counters cannot see (ROADMAP 2(a)):
// every allocation writes its frame's word of physmem's metadata array,
// eight words to a 64-byte line, so the frames two CPUs' magazines take
// from a fresh pool must not share a line.
func TestFastPathFaultWritesOnlyItsOwnCells(t *testing.T) {
	const n = 16 // fits in what a just-refilled magazine holds
	forEachDesign(t, Config{CPUs: 2, Frames: 4096}, func(t *testing.T, as *AddressSpace) {
		cpus := [2]*CPU{as.NewCPU(0), as.NewCPU(1)}
		cellWant := func(t *testing.T, before, after auditReading, want map[string]int64) {
			t.Helper()
			got := make(map[string]int64)
			for name, b := range before.cells[0] {
				if d := int64(after.cells[0][name] - b); d != 0 {
					got[name] = d
				}
			}
			wantDeltas(t, "CPU 0's cells", got, want)
			if !reflect.DeepEqual(before.cells[1], after.cells[1]) {
				t.Errorf("CPU 1's cells moved: %v -> %v", before.cells[1], after.cells[1])
			}
			if s := after.faultSample[0] - before.faultSample[0]; s < 1 || s > n {
				t.Errorf("CPU 0's fault histogram took %d samples of %d faults", s, n)
			}
			if after.faultSample[1] != before.faultSample[1] || after.mapSamples != before.mapSamples {
				t.Errorf("another histogram moved: cpu1 %d -> %d, map ops %d -> %d",
					before.faultSample[1], after.faultSample[1], before.mapSamples, after.mapSamples)
			}
		}
		// Every fault counts itself and its page; with the mmap cache on
		// (the lock-based designs) it also counts a cache hit. plus adds
		// a scenario's own expectations to those.
		plus := func(base map[string]int64, more map[string]int64) map[string]int64 {
			out := make(map[string]int64)
			for _, m := range []map[string]int64{base, more} {
				for k, v := range m {
					out[k] = v
				}
			}
			return out
		}
		statsWant := map[string]int64{"Faults": n, "PagesMapped": n}
		cellsWant := map[string]int64{"vm.Faults": n, "vm.PagesMapped": n, "pagetable.ptesFilled": n}
		if !as.cfg.Design.UsesRCU() {
			statsWant["MmapCacheHits"] = n
			cellsWant["vm.MmapCacheHits"] = n
		}

		t.Run("frame metadata lines", func(t *testing.T) {
			// takeMagazine allocates on c until its magazine refills a
			// second time: one refill's worth of frames and the first of
			// the next, all of them from c's own blocks.
			takeMagazine := func(c *CPU) (frames []physmem.Frame) {
				first := as.alloc.Stats().Refills
				for as.alloc.Stats().Refills <= first+1 {
					f, err := as.alloc.Alloc(c.id)
					if err != nil {
						t.Fatal(err)
					}
					frames = append(frames, f)
				}
				return frames
			}
			// Three of CPU 0's first frames go straight back to the buddy
			// lists, as a grace-period callback returns them: loose frames
			// in the middle of CPU 0's lines, which a refill gathering the
			// lowest free frames one by one would hand to CPU 1.
			var mine []physmem.Frame
			for i := 0; i < 5; i++ {
				f, err := as.alloc.Alloc(cpus[0].id)
				if err != nil {
					t.Fatal(err)
				}
				mine = append(mine, f)
			}
			for _, f := range mine[:3] {
				as.alloc.FreeRemote(f)
			}
			mine = append(mine[3:], takeMagazine(cpus[0])...)
			theirs := takeMagazine(cpus[1])
			if len(mine) <= 8 || len(theirs) <= 8 {
				t.Errorf("refills of %d and %d frames: no more than a metadata line", len(mine)-1, len(theirs)-1)
			}
			lines := make(map[physmem.Frame]bool)
			for _, f := range mine {
				lines[f>>3] = true
				defer as.alloc.Free(cpus[0].id, f)
			}
			for _, f := range theirs {
				if lines[f>>3] {
					t.Errorf("CPU 1's frame %d shares metadata line %d with a frame of CPU 0's magazine", f, f>>3)
				}
				defer as.alloc.Free(cpus[1].id, f)
			}
		})

		t.Run("anonymous", func(t *testing.T) {
			base := mustMmap(t, as, 0, 128*PageSize, vma.ProtRead|vma.ProtWrite, 0) // too small to be huge-eligible
			// Warm up on CPU 0 until a fault refills its magazine: the
			// page-table levels exist, and the magazine then holds more
			// than n frames, so the measured faults are pure hits.
			page := base
			for refills := as.alloc.Stats().Refills; ; page += PageSize {
				if err := cpus[0].Fault(page, true); err != nil {
					t.Fatal(err)
				}
				if r := as.alloc.Stats().Refills; r != refills && page > base {
					page += PageSize
					break
				}
			}
			before := readAudit(as, cpus)
			for i := uint64(0); i < n; i++ {
				if err := cpus[0].Fault(page+i*PageSize, true); err != nil {
					t.Fatal(err)
				}
			}
			after := readAudit(as, cpus)

			wantDeltas(t, "vm.Stats", structDeltas(reflect.ValueOf(before.vm), reflect.ValueOf(after.vm)), statsWant)
			wantDeltas(t, "pagetable.Stats", structDeltas(before.tables, after.tables), map[string]int64{"PTEsFilled": n})
			wantDeltas(t, "physmem.Stats", structDeltas(before.phys, after.phys),
				map[string]int64{"Allocs": n, "InUse": n, "Free": -n})
			wantDeltas(t, "ranges.Stats", structDeltas(before.ranges, after.ranges), nil)
			cellWant(t, before, after, plus(cellsWant, map[string]int64{"physmem.allocs": n}))
		})

		t.Run("shared file", func(t *testing.T) {
			f := vma.NewFile("audit.dat", 7)
			const pages = 2 * n
			base, err := as.Mmap(0, pages*PageSize, vma.ProtRead|vma.ProtWrite, vma.Shared, f, 0)
			if err != nil {
				t.Fatal(err)
			}
			// CPU 1 fills the cache and builds the page tables, then the
			// translations are zapped: the pages stay resident, so CPU
			// 0's faults below are cache hits that allocate nothing.
			for i := uint64(0); i < pages; i++ {
				if err := cpus[1].Fault(base+i*PageSize, false); err != nil {
					t.Fatal(err)
				}
			}
			if err := as.MadviseDontNeed(base, pages*PageSize); err != nil {
				t.Fatal(err)
			}
			as.dom.Synchronize()
			if err := cpus[0].Fault(base, false); err != nil { // warm CPU 0's path
				t.Fatal(err)
			}
			before := readAudit(as, cpus)
			for i := uint64(1); i <= n; i++ {
				if err := cpus[0].Fault(base+i*PageSize, false); err != nil {
					t.Fatal(err)
				}
			}
			after := readAudit(as, cpus)

			wantDeltas(t, "vm.Stats", structDeltas(reflect.ValueOf(before.vm), reflect.ValueOf(after.vm)), statsWant)
			wantDeltas(t, "pagetable.Stats", structDeltas(before.tables, after.tables), map[string]int64{"PTEsFilled": n})
			wantDeltas(t, "physmem.Stats", structDeltas(before.phys, after.phys), nil)
			wantDeltas(t, "pagecache.Stats", structDeltas(before.cache, after.cache), map[string]int64{"Hits": n})
			wantDeltas(t, "ranges.Stats", structDeltas(before.ranges, after.ranges), nil)
			cellWant(t, before, after, plus(cellsWant, map[string]int64{"pagecache.hits": n}))
		})
	})
}
