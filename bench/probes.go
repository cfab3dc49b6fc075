package main

import (
	"fmt"
	"time"

	"bonsai/internal/core"
	"bonsai/internal/locks"
	"bonsai/internal/pagecache"
	"bonsai/internal/pagetable"
	"bonsai/internal/physmem"
	"bonsai/internal/ranges"
	"bonsai/internal/rcu"
	"bonsai/internal/stats"
	"bonsai/internal/tlb"
	"bonsai/internal/trace"
	"bonsai/internal/vm"
	"bonsai/internal/vma"
)

// Source (C) of the per-layer metrics: single-thread loops that call
// each layer's public API directly, at the shapes the workloads
// produce. Each reports the median of probeReps repetitions, in ns (or
// µs) per call. Together the fast-path probes form the fault cost
// budget: their sum over vm.fault_ns.purercu is bench.budget_coverage,
// and the remainder is glue and bookkeeping inside internal/vm. They
// are uncontended, so they bound a saving only at one worker.

const probeReps = 5

// probe calibrates an op count whose run takes about rep, then returns
// the median cost per op over probeReps runs. fn performs n ops and
// returns the time spent in the part it measures.
func probe(rep time.Duration, fn func(n int) time.Duration) float64 {
	n := 64
	for {
		d := fn(n)
		if d >= rep/4 {
			n = max(int(float64(n)*float64(rep)/float64(d)), 1)
			break
		}
		n *= 4
	}
	costs := make([]float64, probeReps)
	for i := range costs {
		costs[i] = float64(fn(n)) / float64(n)
	}
	return median(costs)
}

// timed measures a plain loop of n calls.
func timed(n int, op func(i int)) time.Duration {
	t0 := now()
	for i := 0; i < n; i++ {
		op(i)
	}
	return time.Duration(now() - t0)
}

// probeSink keeps the compiler from discarding a probed call's result.
var probeSink int64

// prober runs the layer probes into one metric map.
type prober struct {
	m    map[string]metric
	z    sizing
	errs int // calls that failed inside a probe loop
}

func (p *prober) put(name string, v float64, unit string) {
	p.m[name] = metric{Value: v, Unit: unit, Samples: probeReps}
}

// ns reports a probe in nanoseconds per call, us in microseconds.
func (p *prober) ns(name string, fn func(n int) time.Duration) {
	p.put(name, probe(p.z.probeRep, fn), "ns")
}
func (p *prober) us(name string, fn func(n int) time.Duration) {
	p.put(name, probe(p.z.probeRep, fn)/1e3, "us")
}

// check counts a failed call: a probe that measures error paths
// measures nothing, so runProbes reports it.
func (p *prober) check(err error) {
	if err != nil {
		p.errs++
	}
}

// probeShape is the region layout the fault_storm workload gives one
// worker: what the vm, core and pagetable probes reproduce.
type probeShape struct {
	bases   []uint64 // region bases, seeded order
	queries []uint64 // seeded page addresses inside the regions
}

func newProbeShape(seed uint64, regions int) probeShape {
	r := newRNG(seed, 200)
	arena := seededBase(r)
	var s probeShape
	for _, i := range r.Perm(regions) {
		s.bases = append(s.bases, arena+uint64(i)*stormStride)
	}
	for i := 0; i < 4096; i++ {
		s.queries = append(s.queries, s.bases[r.IntN(regions)]+uint64(r.IntN(stormRegionPages))*pageSize)
	}
	return s
}

// runProbes fills m with every (C) metric.
func runProbes(m map[string]metric, z sizing) error {
	p := &prober{m: m, z: z}

	p.ns("bench.timer_ns", func(n int) time.Duration {
		return timed(n, func(int) { t0 := now(); probeSink += now() - t0 })
	})
	var hist stats.LatencyHist
	p.ns("stats.hist_record_ns", func(n int) time.Duration {
		return timed(n, func(i int) { hist.Record(time.Duration(300 + i&63)) })
	})
	p.ns("trace.emit_disarmed_ns", func(n int) time.Duration {
		return timed(n, func(i int) { trace.Emit(0, trace.EvFaultEnter, uint64(i), 1, 3) })
	})
	var sem locks.RWSem
	p.ns("locks.rwsem_rlock_ns", func(n int) time.Duration {
		return timed(n, func(int) { sem.RLock(); sem.RUnlock() })
	})
	var rl ranges.Manager
	p.ns("ranges.lock_unlock_ns", func(n int) time.Duration {
		return timed(n, func(i int) {
			lo := uint64(i&63) * churnStride
			rl.Lock(lo, lo+churnArenaPages*pageSize).Unlock()
		})
	})

	p.rcu()
	p.physmem()
	p.core()
	if err := p.pagetable(); err != nil {
		return err
	}
	if err := p.vm(); err != nil {
		return err
	}

	// The fast-path budget: what one PureRCU anonymous fault calls, one
	// of each — the read section, the region lookup, the walk that rules
	// out a huge entry, the table fill, half an alloc+free pair (the
	// free belongs to the zap), the latency histogram, two disarmed
	// trace points and the fault's own time.Now pair, for which
	// bench.timer_ns stands.
	sum := m["physmem.alloc_free_ns"].Value/2 + 2*m["trace.emit_disarmed_ns"].Value
	for _, name := range []string{"rcu.read_section_ns", "core.floor_ns", "pagetable.walk_ns", "pagetable.fill_ns",
		"stats.hist_record_ns", "bench.timer_ns"} {
		sum += m[name].Value
	}
	p.put("bench.budget_coverage", ratio(sum, p.m["vm.fault_ns.purercu"].Value), "ratio")
	if p.errs != 0 {
		return fmt.Errorf("layer probes: %d calls failed", p.errs)
	}
	return nil
}

func (p *prober) rcu() {
	dom := rcu.NewDomain(rcu.Options{})
	defer dom.Close()
	rd := dom.Register()
	p.ns("rcu.read_section_ns", func(n int) time.Duration {
		return timed(n, func(int) { rd.Lock(); rd.Unlock() })
	})
	noop := func() {}
	p.ns("rcu.defer_ns", func(n int) time.Duration {
		// Timed in batches, with the backlog drained off the clock so
		// the probe never measures the backpressure path.
		var total time.Duration
		for done := 0; done < n; done += 1024 {
			total += timed(min(1024, n-done), func(int) { dom.Defer(noop) })
			dom.Synchronize()
		}
		return total
	})
	p.us("rcu.sync_us_mean", func(n int) time.Duration {
		return timed(n, func(int) { dom.Synchronize() })
	})
}

func (p *prober) physmem() {
	alloc := physmem.New(physmem.Config{Frames: 1 << 14, CPUs: 1})
	p.ns("physmem.alloc_free_ns", func(n int) time.Duration {
		return timed(n, func(int) {
			f, err := alloc.Alloc(0)
			p.check(err)
			alloc.Free(0, f)
		})
	})
	p.ns("physmem.alloc_run_ns", func(n int) time.Duration {
		return timed(n, func(int) {
			f, err := alloc.AllocRun(0, pagetable.HugeOrder)
			p.check(err)
			alloc.FreeRun(f, pagetable.HugeOrder)
		})
	})
}

func (p *prober) core() {
	shape := newProbeShape(p.z.seed, stormRegions*p.z.workers)
	tree := core.New[int]()
	for i, b := range shape.bases {
		tree.Insert(b, i)
	}
	p.ns("core.floor_ns", func(n int) time.Duration {
		return timed(n, func(i int) {
			k, _, _ := tree.Floor(shape.queries[i&4095])
			probeSink += int64(k)
		})
	})
	// Insert and delete a batch of extra keys between the resident ones;
	// each probe times its own half of the round trip.
	const batch = 64
	extra := func(i int) uint64 { return shape.bases[i%len(shape.bases)] + stormStride/2 }
	churn := func(n int, timeInsert bool) time.Duration {
		var total time.Duration
		for done := 0; done < n; done += batch {
			k := min(batch, n-done)
			ins := timed(k, func(i int) { tree.Insert(extra(i), i) })
			del := timed(k, func(i int) { tree.Delete(extra(i)) })
			if timeInsert {
				total += ins
			} else {
				total += del
			}
		}
		return total
	}
	var inserts, allocs uint64
	p.ns("core.insert_ns", func(n int) time.Duration {
		a0 := tree.Stats().Allocs
		d := churn(n, true)
		allocs += tree.Stats().Allocs - a0
		inserts += uint64(n)
		return d
	})
	p.put("core.nodealloc_per_insert", ratio(float64(allocs), float64(inserts)), "ratio")
	p.ns("core.delete_ns", func(n int) time.Duration { return churn(n, false) })
}

func (p *prober) pagetable() error {
	alloc := physmem.New(physmem.Config{Frames: 1 << 16, CPUs: 1})
	dom := rcu.NewDomain(rcu.Options{})
	defer dom.Close()
	shoot := tlb.NewDomain(alloc, dom, tlb.CostModel{})
	tables, err := pagetable.New(alloc, dom, 0, pagetable.Config{})
	if err != nil {
		return err
	}
	shape := newProbeShape(p.z.seed, stormRegions)
	frames := make([]physmem.Frame, stormRegionPages)

	// fillRegion installs a region's 255 PTEs (frames allocated off the
	// clock); unmapRegion zaps them through one gather.
	fillRegion := func(base uint64) time.Duration {
		for i := range frames {
			var err error
			frames[i], err = alloc.Alloc(0)
			p.check(err)
		}
		return timed(len(frames), func(i int) {
			addr := base + uint64(i)*pageSize
			pt, err := tables.EnsureTable(0, addr)
			if err != nil {
				p.errs++
				return
			}
			_, _, err = tables.FillPTE(addr, pt, nil, func() (uint64, error) {
				return pagetable.MakePTE(frames[i], true), nil
			})
			p.check(err)
		})
	}
	unmapRegion := func(base uint64) time.Duration {
		t0 := now()
		g := shoot.Gather(0)
		tables.UnmapRange(g, base, base+stormRegionPages*pageSize, nil)
		g.Flush()
		return time.Duration(now() - t0)
	}
	cycle := func(n int, timeFill bool) time.Duration {
		var total time.Duration
		for done, r := 0, 0; done < n; done, r = done+stormRegionPages, r+1 {
			base := shape.bases[r%len(shape.bases)]
			fill, unmap := fillRegion(base), unmapRegion(base)
			if timeFill {
				total += fill
			} else {
				total += unmap
			}
			if r%32 == 31 {
				dom.Synchronize() // return the zapped frames to the pool
			}
		}
		dom.Synchronize()
		// n is rounded up to whole regions; charge what actually ran.
		whole := (n + stormRegionPages - 1) / stormRegionPages * stormRegionPages
		return total * time.Duration(n) / time.Duration(whole)
	}
	p.ns("pagetable.fill_ns", func(n int) time.Duration { return cycle(n, true) })
	p.ns("pagetable.unmap_ns_per_page", func(n int) time.Duration { return cycle(n, false) })

	for _, base := range shape.bases {
		fillRegion(base)
	}
	p.ns("pagetable.walk_ns", func(n int) time.Duration {
		return timed(n, func(i int) {
			pte, _ := tables.Walk(shape.queries[i&4095])
			probeSink += int64(pte)
		})
	})
	for _, base := range shape.bases {
		unmapRegion(base)
	}
	dom.Synchronize()

	hugeBase := shape.bases[0] + uint64(len(shape.bases))*stormStride
	p.ns("pagetable.install_huge_ns", func(n int) time.Duration {
		var total time.Duration
		for i := 0; i < n; i++ {
			run, err := alloc.AllocRun(0, pagetable.HugeOrder)
			if err != nil {
				p.errs++
				continue
			}
			t0 := now()
			res, err := tables.InstallHuge(0, hugeBase, run, true, nil)
			total += time.Duration(now() - t0)
			if res != pagetable.HugeInstalled {
				p.errs++
				p.check(err)
				alloc.FreeRun(run, pagetable.HugeOrder)
				continue
			}
			g := shoot.Gather(0)
			tables.UnmapRange(g, hugeBase, hugeBase+pagetable.HugeSpan, nil)
			g.Flush()
			dom.Synchronize()
		}
		return total
	})

	p.ns("tlb.gather_flush_ns", func(n int) time.Duration {
		var total time.Duration
		batch := make([]physmem.Frame, churnArenaPages)
		for i := 0; i < n; i++ {
			for j := range batch {
				var err error
				batch[j], err = alloc.Alloc(0)
				p.check(err)
			}
			t0 := now()
			g := shoot.Gather(0)
			for j, f := range batch {
				g.Page(hugeBase+uint64(j)*pageSize, f)
			}
			g.Flush()
			total += time.Duration(now() - t0)
			if i%32 == 31 {
				dom.Synchronize()
			}
		}
		dom.Synchronize()
		return total
	})

	cache := pagecache.New(1, "probe.dat", alloc, dom, pagecache.NewRegistry(alloc.NumFrames()))
	rd := dom.Register()
	rd.Lock()
	for pg := uint64(0); pg < fileChunkPages; pg++ {
		if _, err := cache.FindOrCreate(0, pg*pageSize, func(physmem.Frame) {}); err != nil {
			rd.Unlock()
			return err
		}
	}
	rd.Unlock()
	p.ns("pagecache.lookup_ns", func(n int) time.Duration {
		rd.Lock()
		defer rd.Unlock()
		return timed(n, func(i int) {
			if cache.Lookup(uint64(i&(fileChunkPages-1))*pageSize) != nil {
				probeSink++
			}
		})
	})
	cache.DropAll()
	tables.ReleaseRoot(0)
	return nil
}

var designSuffix = map[vm.Design]string{
	vm.RWLock: "rwlock", vm.FaultLock: "faultlock", vm.Hybrid: "hybrid", vm.PureRCU: "purercu",
}

// probeVM measures the single-thread soft fault and the
// mmap+fault+munmap cycle on each of the four §5 designs.
func (p *prober) vm() error {
	shape := newProbeShape(p.z.seed, stormRegions)
	for _, d := range vm.Designs {
		as, err := vm.New(vm.Config{Design: d, CPUs: 1, Frames: 1 << 16})
		if err != nil {
			return err
		}
		cpu := as.NewCPU(0)
		for _, base := range shape.bases {
			if _, err := as.Mmap(base, stormRegionPages*pageSize, protRW, vma.Fixed, nil, 0); err != nil {
				return err
			}
		}
		p.ns("vm.fault_ns."+designSuffix[d], func(n int) time.Duration {
			var total time.Duration
			for done, r := 0, 0; done < n; done, r = done+stormRegionPages, r+1 {
				base := shape.bases[r%len(shape.bases)]
				k := min(stormRegionPages, n-done)
				total += timed(k, func(i int) { p.check(cpu.Fault(base+uint64(i)*pageSize, true)) })
				p.check(as.MadviseDontNeed(base, stormRegionPages*pageSize))
			}
			return total
		})

		arena := shape.bases[0] + uint64(len(shape.bases))*stormStride
		p.us("vm.mapcycle_us."+designSuffix[d], func(n int) time.Duration {
			return timed(n, func(int) {
				_, err := as.Mmap(arena, churnArenaPages*pageSize, protRW, vma.Fixed, nil, 0)
				p.check(err)
				for pg := uint64(0); pg < churnFaultPages; pg++ {
					p.check(cpu.Fault(arena+pg*pageSize, true))
				}
				p.check(as.Munmap(arena, churnArenaPages*pageSize))
			})
		})
		if err := as.Close(); err != nil {
			return err
		}
	}
	return nil
}
