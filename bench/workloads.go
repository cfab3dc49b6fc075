package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync/atomic"

	"bonsai/internal/machine"
	"bonsai/internal/vm"
	"bonsai/internal/vma"
)

// The six workloads. Names are fixed: later issues cite them. Every
// one runs the PureRCU design with the default vm.Config (no simulated
// shootdown charge: on two cores the calibrated spin measures the
// scheduler, not the program); the other three designs are covered by
// the vm.*.<design> probes.

const pageSize = vm.PageSize

// workloadDef is one workload: its name, its nominal segment size and
// its builder. Why each one exists is recorded in BENCHMARK.json and
// README.md.
type workloadDef struct {
	name string
	// unitsPerSecond is how many of the workload's own units (sweeps,
	// cycles, rounds) each fixed-work worker gets through per second on
	// the 2-core host: a segment planned to last t seconds is
	// unitsPerSecond·t units, whatever the host then makes of it.
	unitsPerSecond float64
	unit           string
	// scales marks workloads with a one-worker variant, used for
	// vm.fault_scale_x / vm.mapop_scale_x.
	scales bool
	sizes  string
	build  func(z sizing, workers int) (*instance, error)
}

// defaultSeconds is run_seconds in BENCHMARK.json.
const defaultSeconds = 8

var workloads = []*workloadDef{
	{
		name:           "fault_storm",
		unitsPerSecond: 75, unit: "sweeps/worker",
		scales: true,
		sizes:  "W workers x 64 regions x 255 pages at 2 MiB stride, 262144 frames; sweep = 16320 write faults + 64 MADV_DONTNEED",
		build:  buildFaultStorm,
	},
	{
		name:           "map_churn",
		unitsPerSecond: 98000, unit: "cycles/worker",
		scales: true,
		sizes:  "W workers, 64-page arena each 1 GiB apart, 65536 frames; cycle = mmap + 4 write faults + mprotect(RO, 4 pages) + munmap",
		build:  buildMapChurn,
	},
	{
		name:           "fault_vs_churn",
		unitsPerSecond: 7000, unit: "sweeps/faulter",
		sizes: "one 448-page VMA, W-1 faulters (min 1) sweep the lower 224 pages + every 16th fault to the upper half, 1 mapper loops munmap+mmap of the VMA's last 8-40 pages; 65536 frames",
		build: buildFaultVsChurn,
	},
	{
		name:           "file_shared",
		unitsPerSecond: 6650, unit: "sweeps/worker",
		scales: true,
		sizes:  "2 sibling spaces, W workers split across them, 256-page chunk per worker pair, 16384 frames with backing; sweep = 256 faults (every 8th a write) + MADV_DONTNEED",
		build:  buildFileShared,
	},
	{
		name:           "tenant_pressure",
		unitsPerSecond: 175, unit: "hog sweeps",
		sizes: "1 machine of 8192 backed frames, 2 tenants limited to 1024 frames, 1 worker each; hog sweeps a 2048-page file (every 8th fault a write), quiet does 36 refault+zap sweeps of a 256-page file per hog sweep",
		build: buildTenantPressure,
	},
	{
		name:           "huge_populate",
		unitsPerSecond: 700, unit: "rounds",
		sizes: "1 worker, 32 x 2 MiB chunks, 65536 frames; round = 32 mmap + 32 write faults + 1 munmap + Synchronize (on the clock)",
		build: buildHugePopulate,
	},
}

// seededBase places a workload's address range: the seed picks which
// 1 GiB-aligned slot it starts in. Only the addresses change with the
// seed — the range sits the same way in the leaf tables and
// directories every time, so no seed is structurally cheaper.
func seededBase(r *rand.Rand) uint64 {
	return vm.UnmappedBase + uint64(1+r.IntN(1<<12))<<30
}

// seededFileOffset is seededBase for file offsets: 16 MiB-aligned, so
// the mapped pages sit the same way in the page cache's radix tree.
func seededFileOffset(r *rand.Rand) uint64 { return uint64(r.IntN(1<<12)) << 24 }

func findWorkload(name string) *workloadDef {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

func auditTHP(spaces []*vm.AddressSpace) []error {
	var errs []error
	for _, as := range spaces {
		if err := as.AuditTHP(); err != nil {
			errs = append(errs, fmt.Errorf("AuditTHP: %w", err))
		}
	}
	return errs
}

// closeSpaces audits, then closes the spaces in the order given (a
// family's root last: its Close runs the frame-leak check).
func closeSpaces(spaces ...*vm.AddressSpace) func() []error {
	return func() []error {
		errs := auditTHP(spaces)
		for _, as := range spaces {
			if err := as.Close(); err != nil {
				errs = append(errs, fmt.Errorf("Close: %w", err))
			}
		}
		return errs
	}
}

// checkTranslate faults [base, base+pages) in and checks that a seeded
// sample translates, to distinct frames, and that nothing translates
// after the zap.
func checkTranslate(as *vm.AddressSpace, cpu *vm.CPU, r *rand.Rand, base uint64, pages int) []string {
	var bad []string
	for p := 0; p < pages; p++ {
		if err := cpu.Fault(base+uint64(p)*pageSize, true); err != nil {
			return []string{fmt.Sprintf("verify fault %#x: %v", base+uint64(p)*pageSize, err)}
		}
	}
	seen := map[uint64]uint64{}
	for i := 0; i < 16; i++ {
		addr := base + uint64(r.IntN(pages))*pageSize
		pa, ok := as.Translate(addr)
		if !ok {
			bad = append(bad, fmt.Sprintf("Translate(%#x) missing after fault", addr))
			continue
		}
		if other, dup := seen[pa]; dup && other != addr {
			bad = append(bad, fmt.Sprintf("Translate(%#x) and (%#x) share frame %#x", addr, other, pa))
		}
		seen[pa] = addr
	}
	if err := as.MadviseDontNeed(base, uint64(pages)*pageSize); err != nil {
		return append(bad, fmt.Sprintf("verify madvise: %v", err))
	}
	for _, addr := range seen {
		if _, ok := as.Translate(addr); ok {
			bad = append(bad, fmt.Sprintf("Translate(%#x) still present after MADV_DONTNEED", addr))
		}
	}
	return bad
}

// ---- fault_storm ----------------------------------------------------

const (
	stormRegions     = 64
	stormRegionPages = 255 // one page short of huge-eligible, so no NoTHP knob
	stormStride      = uint64(2 << 20)
)

func buildFaultStorm(z sizing, workers int) (*instance, error) {
	as, err := vm.New(vm.Config{Design: vm.PureRCU, CPUs: workers, Frames: 1 << 18})
	if err != nil {
		return nil, err
	}
	place := newRNG(z.seed, 100)
	arena := seededBase(place)
	in := &instance{spaces: []*vm.AddressSpace{as}, close: closeSpaces(as)}
	regions := make([][]uint64, workers)
	for w := 0; w < workers; w++ {
		wk := &worker{id: w, as: as, cpu: as.NewCPU(w), rng: newRNG(z.seed, w)}
		for _, i := range wk.rng.Perm(stormRegions) {
			base := arena + uint64(w*stormRegions+i)*stormStride
			if _, err := as.Mmap(base, stormRegionPages*pageSize, protRW, vma.Fixed, nil, 0); err != nil {
				return nil, err
			}
			regions[w] = append(regions[w], base)
		}
		in.workers = append(in.workers, wk)
	}
	in.body = func(w *worker, sweeps int) {
		for s := 0; s < sweeps; s++ {
			sw := w.beginSweep()
			for _, base := range regions[w.id] {
				for p := uint64(0); p < stormRegionPages; p++ {
					w.mustFault(base+p*pageSize, true)
				}
				w.madvise(base, stormRegionPages*pageSize)
			}
			w.endSweep(sw)
		}
	}
	in.planned = func(_ *worker, sweeps int) (uint64, uint64) {
		return uint64(sweeps) * stormRegions * stormRegionPages, uint64(sweeps) * stormRegions
	}
	in.verify = func() []string {
		var bad []string
		if n := as.RegionCount(); n != workers*stormRegions {
			bad = append(bad, fmt.Sprintf("%d regions, want %d", n, workers*stormRegions))
		}
		for _, w := range in.workers {
			bad = append(bad, checkTranslate(as, w.cpu, w.rng, regions[w.id][0], stormRegionPages)...)
		}
		return bad
	}
	return in, nil
}

// ---- map_churn ------------------------------------------------------

const (
	churnArenaPages = 64
	churnFaultPages = 4
	churnStride     = uint64(1 << 30)
)

func buildMapChurn(z sizing, workers int) (*instance, error) {
	as, err := vm.New(vm.Config{Design: vm.PureRCU, CPUs: workers, Frames: 1 << 16})
	if err != nil {
		return nil, err
	}
	in := &instance{spaces: []*vm.AddressSpace{as}, close: closeSpaces(as)}
	bases := make([]uint64, workers)
	for w := 0; w < workers; w++ {
		wk := &worker{id: w, as: as, cpu: as.NewCPU(w), rng: newRNG(z.seed, w)}
		// A seeded arena-aligned offset inside the worker's own 1 GiB
		// slot: the arena never straddles two leaf tables.
		bases[w] = vm.UnmappedBase + uint64(w+1)*churnStride + uint64(wk.rng.IntN(1<<12))*churnArenaPages*pageSize
		in.workers = append(in.workers, wk)
	}
	const size = churnArenaPages * pageSize
	in.body = func(w *worker, cycles int) {
		base := bases[w.id]
		for c := 0; c < cycles; c++ {
			sw := w.beginSweep()
			w.mmapFixed(base, size)
			for p := uint64(0); p < churnFaultPages; p++ {
				w.mustFault(base+p*pageSize, true)
			}
			w.mprotect(base, churnFaultPages*pageSize, vma.ProtRead)
			w.munmap(base, size)
			w.endSweep(sw)
		}
	}
	in.planned = func(_ *worker, cycles int) (uint64, uint64) {
		return uint64(cycles) * churnFaultPages, uint64(cycles) * 3
	}
	in.verify = func() []string {
		var bad []string
		if n := as.RegionCount(); n != 0 {
			bad = append(bad, fmt.Sprintf("%d regions left after the last munmap, want 0", n))
		}
		for _, w := range in.workers {
			base := bases[w.id]
			if _, ok := as.Translate(base); ok {
				bad = append(bad, fmt.Sprintf("Translate(%#x) present after munmap", base))
			}
			if _, err := as.Mmap(base, size, protRW, vma.Fixed, nil, 0); err != nil {
				return append(bad, fmt.Sprintf("verify mmap: %v", err))
			}
			bad = append(bad, checkTranslate(as, w.cpu, w.rng, base, churnArenaPages)...)
			if err := as.Mprotect(base, churnFaultPages*pageSize, vma.ProtRead); err != nil {
				bad = append(bad, fmt.Sprintf("verify mprotect: %v", err))
			}
			if err := w.cpu.Fault(base, true); !errors.Is(err, vm.ErrAccess) {
				bad = append(bad, fmt.Sprintf("write fault on a read-only page: %v, want ErrAccess", err))
			}
			if err := as.Munmap(base, size); err != nil {
				bad = append(bad, fmt.Sprintf("verify munmap: %v", err))
			}
		}
		return bad
	}
	return in, nil
}

// ---- fault_vs_churn -------------------------------------------------

const (
	fvcPages    = 448 // under 512: never huge-eligible
	fvcHalf     = fvcPages / 2
	fvcUpperGap = 16 // every 16th fault goes to the churned upper half
	fvcChunkMin = 8
	fvcChunkMax = 40
)

func buildFaultVsChurn(z sizing, workers int) (*instance, error) {
	faulters := max(workers-1, 1)
	as, err := vm.New(vm.Config{Design: vm.PureRCU, CPUs: faulters, Frames: 1 << 16})
	if err != nil {
		return nil, err
	}
	place := newRNG(z.seed, 100)
	base := seededBase(place)
	upper := base + fvcHalf*pageSize
	if _, err := as.Mmap(base, fvcPages*pageSize, protRW, vma.Fixed, nil, 0); err != nil {
		return nil, err
	}
	in := &instance{spaces: []*vm.AddressSpace{as}, close: closeSpaces(as)}
	for w := 0; w < faulters; w++ {
		in.workers = append(in.workers, &worker{id: w, as: as, cpu: as.NewCPU(w), rng: newRNG(z.seed, w)})
	}
	in.companion = &worker{id: faulters, as: as, rng: newRNG(z.seed, faulters)}
	in.body = func(w *worker, sweeps int) {
		for s := 0; s < sweeps; s++ {
			sw := w.beginSweep()
			for p := uint64(0); p < fvcHalf; p++ {
				w.mustFault(base+p*pageSize, true)
				if p%fvcUpperGap == fvcUpperGap-1 {
					// The mapper may have this page unmapped right now:
					// ErrSegv is a correct outcome, anything else is not.
					addr := upper + uint64(w.rng.IntN(fvcHalf))*pageSize
					if err := w.fault(addr, true); err != nil && !errors.Is(err, vm.ErrSegv) {
						w.fail("upper-half fault", err)
					}
				}
			}
			w.madvise(base, fvcHalf*pageSize)
			w.endSweep(sw)
		}
	}
	in.planned = func(_ *worker, sweeps int) (uint64, uint64) {
		return uint64(sweeps) * (fvcHalf + fvcHalf/fvcUpperGap), uint64(sweeps)
	}
	in.companionBody = func(w *worker, stop *atomic.Bool) {
		for !stop.Load() {
			sw := w.beginSweep()
			// The chunk is a seeded-length tail of the VMA: munmap trims the
			// VMA, mmap extends it back, so it is one region again after
			// every iteration and the contention pattern stays stationary.
			// (A chunk in the middle would leave the VMA in ever-changing
			// pieces, because Mmap merges only with a predecessor, and the
			// cost of the next operation would depend on that history.)
			n := fvcChunkMin + w.rng.IntN(fvcChunkMax-fvcChunkMin+1)
			off := uint64(fvcHalf-n) * pageSize
			w.munmap(upper+off, uint64(n)*pageSize)
			w.mmapFixed(upper+off, uint64(n)*pageSize)
			w.endSweep(sw)
		}
	}
	in.verify = func() []string {
		// Every mapper iteration ends remapped and merged back: the VMA
		// must be whole again.
		var bad []string
		regions := as.Regions()
		if len(regions) != 1 || regions[0].Start != base || regions[0].End != base+fvcPages*pageSize {
			bad = append(bad, fmt.Sprintf("regions %v after the churn, want the one original VMA (trim and extend must round-trip)", regions))
		}
		w := in.workers[0]
		return append(bad, checkTranslate(as, w.cpu, w.rng, base, fvcPages)...)
	}
	return in, nil
}

// ---- file_shared ----------------------------------------------------

const (
	fileChunkPages = 256
	fileWriteEvery = 8
)

// checkFile reads a seeded sample of a file mapping through the VM and
// compares it with the seeded file's contents.
func checkFile(cpu *vm.CPU, r *rand.Rand, file *vma.File, base, fileOff uint64, pages int, skip map[int]bool) []string {
	var bad []string
	buf := make([]byte, 64)
	for i := 0; i < 16; i++ {
		p := r.IntN(pages)
		if skip[p] {
			continue
		}
		at := uint64(r.IntN(pageSize - len(buf)))
		if err := cpu.ReadBytes(base+uint64(p)*pageSize+at, buf); err != nil {
			bad = append(bad, fmt.Sprintf("ReadBytes page %d: %v", p, err))
			continue
		}
		want := file.PageByte(fileOff + uint64(p)*pageSize)
		if !bytes.Equal(buf, bytes.Repeat([]byte{want}, len(buf))) {
			bad = append(bad, fmt.Sprintf("file page %d reads %#x..., want %#x", p, buf[0], want))
		}
	}
	return bad
}

func auditCaches(as *vm.AddressSpace) []string {
	var bad []string
	as.QuiesceReclaim(func() {
		if err := as.AuditPageCaches(); err != nil {
			bad = append(bad, fmt.Sprintf("AuditPageCaches: %v", err))
		}
	})
	return bad
}

func buildFileShared(z sizing, workers int) (*instance, error) {
	perSpace := (workers + 1) / 2
	root, err := vm.New(vm.Config{Design: vm.PureRCU, CPUs: perSpace, Frames: 1 << 14, Backing: true})
	if err != nil {
		return nil, err
	}
	sib, err := root.NewSibling()
	if err != nil {
		return nil, err
	}
	spaces := []*vm.AddressSpace{root, sib}
	place := newRNG(z.seed, 100)
	file := vma.NewFile("shared.dat", place.Uint64())
	fileOff := seededFileOffset(place)
	filePages := perSpace * fileChunkPages // well under Frames/8
	bases := make([]uint64, len(spaces))
	for i, as := range spaces {
		if bases[i], err = as.Mmap(seededBase(place), uint64(filePages)*pageSize, protRW, vma.Shared|vma.Fixed, file, fileOff); err != nil {
			return nil, err
		}
	}
	in := &instance{spaces: spaces, close: closeSpaces(sib, root)}
	chunks := make([]uint64, workers)
	for w := 0; w < workers; w++ {
		as := spaces[w%2]
		// Worker pairs (one per space) storm the same file chunk, so the
		// two spaces map the same frames at once.
		chunks[w] = bases[w%2] + uint64(w/2)*fileChunkPages*pageSize
		in.workers = append(in.workers, &worker{id: w, as: as, cpu: as.NewCPU(w / 2), rng: newRNG(z.seed, w)})
	}
	in.body = func(w *worker, sweeps int) {
		chunk := chunks[w.id]
		for s := 0; s < sweeps; s++ {
			sw := w.beginSweep()
			for p := uint64(0); p < fileChunkPages; p++ {
				w.mustFault(chunk+p*pageSize, p%fileWriteEvery == 0)
			}
			w.madvise(chunk, fileChunkPages*pageSize)
			w.endSweep(sw)
		}
	}
	in.planned = func(_ *worker, sweeps int) (uint64, uint64) {
		return uint64(sweeps) * fileChunkPages, uint64(sweeps)
	}
	in.verify = func() []string {
		var bad []string
		for _, w := range in.workers {
			bad = append(bad, checkFile(w.cpu, w.rng, file, bases[w.id%2], fileOff, filePages, nil)...)
		}
		if ev := root.PageCacheStats().Evictions; ev != 0 {
			bad = append(bad, fmt.Sprintf("%d page-cache evictions on a file that fits in memory", ev))
		}
		return append(bad, auditCaches(root)...)
	}
	in.moreCounters = func(c *counters) { c.addPageCache(root) }
	return in, nil
}

// ---- tenant_pressure ------------------------------------------------

const (
	tenantFrames     = 8192
	tenantLimit      = 1024
	hogFilePages     = 2 * tenantLimit
	quietFilePages   = 256
	quietSweepsPerHo = 36 // sized so quiet is busy for about 70% of a hog sweep on the 2-core host
	hogMarkedPages   = 32
)

func buildTenantPressure(z sizing, _ int) (*instance, error) {
	m := machine.New(machine.Config{
		VM:         vm.Config{Design: vm.PureRCU, CPUs: 1, Frames: tenantFrames, Backing: true},
		MaxTenants: 2,
	})
	hog, err := m.Admit("hog", tenantLimit)
	if err != nil {
		return nil, err
	}
	quiet, err := m.Admit("quiet", tenantLimit)
	if err != nil {
		return nil, err
	}
	place := newRNG(z.seed, 100)
	type mapping struct {
		file *vma.File
		base uint64
		off  uint64
	}
	mapFile := func(as *vm.AddressSpace, name string, pages int) (mapping, error) {
		mp := mapping{file: vma.NewFile(name, place.Uint64()), off: seededFileOffset(place)}
		var err error
		mp.base, err = as.Mmap(seededBase(place), uint64(pages)*pageSize, protRW, vma.Shared|vma.Fixed, mp.file, mp.off)
		return mp, err
	}
	hm, err := mapFile(hog.Root(), "hog.dat", hogFilePages)
	if err != nil {
		return nil, err
	}
	qm, err := mapFile(quiet.Root(), "quiet.dat", quietFilePages)
	if err != nil {
		return nil, err
	}
	hw := &worker{id: 0, as: hog.Root(), cpu: hog.Root().NewCPU(0), rng: newRNG(z.seed, 0)}
	qw := &worker{id: 1, as: quiet.Root(), cpu: quiet.Root().NewCPU(0), rng: newRNG(z.seed, 1)}

	// Stores the hog makes before the storm: they must survive any
	// number of evict → writeback → refault round trips.
	marked := map[int]bool{}
	marker := func(p int) []byte { return []byte(fmt.Sprintf("bench:%016x:%08d", z.seed, p)) }
	for len(marked) < hogMarkedPages {
		p := place.IntN(hogFilePages)
		if marked[p] {
			continue
		}
		marked[p] = true
		if err := hw.cpu.WriteBytes(hm.base+uint64(p)*pageSize, marker(p)); err != nil {
			return nil, err
		}
	}

	in := &instance{
		spaces:  []*vm.AddressSpace{hog.Root(), quiet.Root()},
		workers: []*worker{hw, qw},
		quiet:   qw,
	}
	in.body = func(w *worker, sweeps int) {
		if w == hw {
			for s := 0; s < sweeps; s++ {
				sw := w.beginSweep()
				for p := uint64(0); p < hogFilePages; p++ {
					w.mustFault(hm.base+p*pageSize, p%fileWriteEvery == 0)
				}
				w.endSweep(sw)
			}
			return
		}
		for s := 0; s < sweeps*quietSweepsPerHo; s++ {
			sw := w.beginSweep()
			for p := uint64(0); p < quietFilePages; p++ {
				w.mustFault(qm.base+p*pageSize, p%fileWriteEvery == 0)
			}
			w.madvise(qm.base, quietFilePages*pageSize)
			w.endSweep(sw)
		}
	}
	in.planned = func(w *worker, sweeps int) (uint64, uint64) {
		if w == hw {
			return uint64(sweeps) * hogFilePages, 0
		}
		n := uint64(sweeps) * quietSweepsPerHo
		return n * quietFilePages, n
	}
	in.verify = func() []string {
		var bad []string
		buf := make([]byte, len(marker(0)))
		for p := range marked {
			if err := hw.cpu.ReadBytes(hm.base+uint64(p)*pageSize, buf); err != nil {
				bad = append(bad, fmt.Sprintf("ReadBytes marked page %d: %v", p, err))
			} else if !bytes.Equal(buf, marker(p)) {
				bad = append(bad, fmt.Sprintf("hog page %d lost its store across writeback/refault: %q", p, buf))
			}
		}
		bad = append(bad, checkFile(hw.cpu, hw.rng, hm.file, hm.base, hm.off, hogFilePages, marked)...)
		bad = append(bad, checkFile(qw.cpu, qw.rng, qm.file, qm.base, qm.off, quietFilePages, nil)...)
		if n := quiet.Account().Stats().EvictionsUnderLimit; n != 0 {
			bad = append(bad, fmt.Sprintf("the under-limit tenant suffered %d evictions", n))
		}
		if hog.Account().Stats().LimitHits == 0 {
			bad = append(bad, "the hog never hit its frame limit: no pressure was applied")
		}
		bad = append(bad, auditCaches(hog.Root())...)
		return append(bad, auditCaches(quiet.Root())...)
	}
	in.close = func() []error {
		errs := auditTHP(in.spaces)
		if err := m.Close(); err != nil {
			errs = append(errs, fmt.Errorf("machine Close: %w", err))
		}
		return errs
	}
	in.moreCounters = func(c *counters) {
		c.addPageCache(hog.Root())
		c.addPageCache(quiet.Root())
		c.addTenants(hog, quiet)
	}
	return in, nil
}

// ---- huge_populate --------------------------------------------------

const hugeChunks = 32

func buildHugePopulate(z sizing, _ int) (*instance, error) {
	const chunkPages = int(vm.HugeSpan / pageSize)
	as, err := vm.New(vm.Config{Design: vm.PureRCU, CPUs: 1, Frames: uint64(4 * hugeChunks * chunkPages)})
	if err != nil {
		return nil, err
	}
	// 32 faults a round: few enough, and dear enough, to time them all.
	wk := &worker{id: 0, as: as, cpu: as.NewCPU(0), rng: newRNG(z.seed, 0), gapMean: 1}
	base := seededBase(wk.rng)
	// The page of each chunk that takes the fault is seeded.
	touch := make([]uint64, hugeChunks)
	for c := range touch {
		touch[c] = base + uint64(c)*vm.HugeSpan + uint64(wk.rng.IntN(chunkPages))*pageSize
	}
	in := &instance{spaces: []*vm.AddressSpace{as}, workers: []*worker{wk}, close: closeSpaces(as)}
	in.body = func(w *worker, rounds int) {
		for r := 0; r < rounds; r++ {
			sw := w.beginSweep()
			for c := uint64(0); c < hugeChunks; c++ {
				w.mmapFixed(base+c*vm.HugeSpan, vm.HugeSpan)
			}
			for _, addr := range touch {
				w.mustFault(addr, true)
			}
			w.munmap(base, hugeChunks*vm.HugeSpan)
			// On the clock: the round is not over until the freed runs
			// are reusable.
			w.synchronize()
			w.endSweep(sw)
		}
	}
	in.planned = func(_ *worker, rounds int) (uint64, uint64) {
		return uint64(rounds) * hugeChunks, uint64(rounds) * (hugeChunks + 1)
	}
	in.verify = func() []string {
		var bad []string
		if n := as.RegionCount(); n != 0 {
			bad = append(bad, fmt.Sprintf("%d regions left after the last munmap, want 0", n))
		}
		if _, err := as.Mmap(base, vm.HugeSpan, protRW, vma.Fixed, nil, 0); err != nil {
			return append(bad, fmt.Sprintf("verify mmap: %v", err))
		}
		if err := wk.cpu.Fault(touch[0], true); err != nil {
			return append(bad, fmt.Sprintf("verify fault: %v", err))
		}
		// One fault must have made the whole chunk resident.
		for i := 0; i < 16; i++ {
			addr := base + uint64(wk.rng.IntN(chunkPages))*pageSize
			if _, ok := as.Translate(addr); !ok {
				bad = append(bad, fmt.Sprintf("Translate(%#x) missing after the chunk's fault", addr))
			}
		}
		if err := as.AuditTHP(); err != nil {
			bad = append(bad, fmt.Sprintf("AuditTHP with a live huge entry: %v", err))
		}
		if err := as.Munmap(base, vm.HugeSpan); err != nil {
			bad = append(bad, fmt.Sprintf("verify munmap: %v", err))
		}
		if _, ok := as.Translate(touch[0]); ok {
			bad = append(bad, "Translate present after munmap")
		}
		return bad
	}
	return in, nil
}
