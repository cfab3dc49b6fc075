package torture

import (
	"errors"
	"fmt"
	"sync/atomic"

	"bonsai/internal/pagecache"
	"bonsai/internal/vm"
	"bonsai/internal/vma"
)

// opKind is one row of the operation table.
type opKind uint8

const (
	opArenaWrite   opKind = iota // stamp a page of the worker's arena
	opArenaRead                  // read an arena page back against its stamp
	opArenaDiscard               // MADV_DONTNEED an arena page
	opFile                       // fault, store or load a shared-file page via the root or its peer
	opFileDiscard                // MADV_DONTNEED a shared-file page
	opAudit                      // frame-generation audit of a hot address
	opTHPWrite                   // stamp a page of the worker's huge-region slice
	opTHPRead                    // read a slice page back against its stamp
	opTHPDiscard                 // MADV_DONTNEED a slice page: demotes a huge entry in place
	opCollapse                   // refill the slice, then MADV_COLLAPSE the huge region
	opChurnFault                 // fault a churn-region page
	opChurnUnmap                 // munmap a churn chunk
	opChurnRemap                 // MAP_FIXED remap a churn chunk
	opChurnProtect               // mprotect a churn chunk read-only or read-write
	opFork                       // fork; the child checks the arena snapshot and faults the churn region
	numKinds
)

var kindNames = [numKinds]string{
	"arena write", "arena read", "arena discard", "file access", "file discard", "audit",
	"thp write", "thp read", "thp discard", "collapse",
	"churn fault", "churn unmap", "churn remap", "churn protect", "fork",
}

// mix weighs the operation table. Huge-region writes outnumber its
// discards so every slice is often whole at once, the state a collapse
// needs.
var mix = [numKinds]uint64{
	opArenaWrite: 8, opArenaRead: 6, opArenaDiscard: 2,
	opFile: 10, opFileDiscard: 2, opAudit: 2,
	opTHPWrite: 4, opTHPRead: 3, opTHPDiscard: 1, opCollapse: 3,
	opChurnFault: 12, opChurnUnmap: 2, opChurnRemap: 2, opChurnProtect: 2,
	opFork: 2,
}

// op is one drawn operation: its kind and three argument words, whose
// meaning depends on the kind.
type op struct {
	kind    opKind
	a, b, c uint64
}

// opGen is a worker's operation stream: splitmix64 over the run's seed
// and the worker's key, four words per operation whatever the operation
// does with them.
type opGen func() uint64

func newOpGen(seed uint64, key string) opGen { return opGen(splitmix(seed ^ hash(key))) }

func (g opGen) next() op {
	r := g() % mixTotal
	k := opKind(0)
	for r >= mix[k] {
		r -= mix[k]
		k++
	}
	return op{kind: k, a: g(), b: g(), c: g()}
}

var mixTotal = func() (n uint64) {
	for _, w := range mix {
		n += w
	}
	return n
}()

// counts is what a worker, or a generation's setup, folds into its
// design's report.
type counts struct {
	ops       uint64
	oomErrors uint64
	ioErrors  uint64
	ok        [numKinds]uint64 // operations that returned no error
}

// classify is the one error classifier. Out-of-memory and (under fault
// injection) I/O errors are expected weather; inside the churn region,
// whose holes and read-only spans move under every worker, so are
// ErrSegv and ErrAccess. Anything else — including a raw
// ErrFrameShortage escaping the retry machinery — is a violation.
func (t *run) classify(c *counts, key, what string, err error, churn bool) {
	switch {
	case err == nil:
	case errors.Is(err, vm.ErrNoMemory):
		c.oomErrors++
	case errors.Is(err, pagecache.ErrIO):
		c.ioErrors++
		if !t.cfg.Faults {
			t.violate("%s: %s: I/O error with fault injection off: %v", key, what, err)
		}
	case churn && (errors.Is(err, vm.ErrSegv) || errors.Is(err, vm.ErrAccess)):
	default:
		t.violate("%s: %s: unexpected error: %v", key, what, err)
	}
}

// worker is one goroutine drawing operations against a generation's
// tenant. Its oracles are private: it alone writes its arena and its
// huge-region slice, so any worker's collapse or split, any fork and
// any eviction must preserve what it reads back.
type worker struct {
	counts
	g    *generation
	id   int
	cpus []*vm.CPU // one per generation space: the root, then the peer

	arena       uint64
	arenaStamps map[uint64]byte // page → stamp; absent means unknown
	slice       uint64
	slicePages  uint64
	sliceStamps map[uint64]byte
	buf         [stampLen]byte
}

// run draws and executes operations until stop, then files the kinds
// of the first logOps it drew under its key.
func (w *worker) run(stop *atomic.Bool) {
	t := w.g.dr.t
	key := fmt.Sprintf("%s/w%d", w.g.key, w.id)
	gen := newOpGen(t.cfg.Seed, key)
	log := make([]opKind, 0, logOps)
	for !stop.Load() {
		o := gen.next()
		if len(log) < logOps {
			log = append(log, o.kind)
		}
		w.do(o)
	}
	t.mu.Lock()
	t.report.opLogs[key] = log
	t.mu.Unlock()
}

// do executes one operation.
func (w *worker) do(o op) {
	g, geo := w.g, w.g.dr.t.geo
	root, cpu := g.root, w.cpus[0]
	churn := false
	var err error
	switch o.kind {
	case opArenaWrite:
		err = w.write(w.arena, o.a%geo.arena, byte(o.b), w.arenaStamps)
	case opArenaRead:
		err = w.verify(cpu, "arena", w.arena, o.a%geo.arena, w.arenaStamps)
	case opArenaDiscard:
		page := o.a % geo.arena
		if err = root.MadviseDontNeed(w.arena+page*vm.PageSize, vm.PageSize); err == nil {
			delete(w.arenaStamps, page)
		}
	case opFile:
		// No content oracle: sticky writeback injection may legitimately
		// drop file data. Bytes move through the root only — the peer's
		// page-table locks do not order its copies against the root's —
		// so the peer takes read and write faults.
		s := o.c % uint64(len(g.spaces))
		addr := g.fileLo[s] + (o.a%geo.file)*vm.PageSize
		switch {
		case s > 0 || o.b%3 == 0:
			err = w.cpus[s].Fault(addr, o.b%2 == 0)
		case o.b%3 == 1:
			err = cpu.WriteBytes(addr, w.buf[:4])
		default:
			err = cpu.ReadBytes(addr, w.buf[:4])
		}
	case opFileDiscard:
		s := o.c % uint64(len(g.spaces))
		err = g.spaces[s].MadviseDontNeed(g.fileLo[s]+(o.a%geo.file)*vm.PageSize, vm.PageSize)
	case opAudit:
		addr := w.arena + (o.a%geo.arena)*vm.PageSize
		switch o.b % 4 {
		case 1:
			addr = g.fileLo[0] + (o.a%geo.file)*vm.PageSize
		case 2:
			addr = geo.churnLo + (o.a%geo.churn)*vm.PageSize
		case 3:
			// Huge-region addresses audit the same invariant through a
			// 2 MB entry's synthesized translation.
			if geo.thp > 0 {
				addr = thpLo + (o.a%geo.thp)*vm.PageSize
			}
		}
		if aerr := cpu.AuditTranslation(addr); aerr != nil {
			g.dr.t.violate("%s: %v", g.key, aerr)
		}
	case opTHPWrite, opTHPRead, opTHPDiscard, opCollapse:
		if w.slicePages == 0 {
			return // no huge-page region in this geometry
		}
		err = w.thp(o)
	case opChurnFault:
		churn = true
		err = cpu.Fault(geo.churnLo+(o.a%geo.churn)*vm.PageSize, o.b%4 != 0)
	case opChurnUnmap, opChurnRemap, opChurnProtect:
		churn = true
		n := 1 + o.b%min(63, geo.churn/4)
		lo := geo.churnLo + (o.a%(geo.churn-n+1))*vm.PageSize
		switch o.kind {
		case opChurnUnmap:
			err = root.Munmap(lo, n*vm.PageSize)
		case opChurnRemap:
			_, err = root.Mmap(lo, n*vm.PageSize, vma.ProtRead|vma.ProtWrite, vma.Private|vma.Fixed, nil, 0)
		default:
			prot := vma.ProtRead
			if o.c%2 == 0 {
				prot |= vma.ProtWrite
			}
			err = root.Mprotect(lo, n*vm.PageSize, prot)
		}
	case opFork:
		err = w.fork(o)
	}
	w.ops++
	if err == nil {
		w.ok[o.kind]++
	}
	g.dr.t.classify(&w.counts, g.key, kindNames[o.kind], err, churn)
}

// thp runs the huge-region operations on the worker's slice of the
// shared 2 MB chunk: its first touch takes the huge fault path, a
// one-page discard inside a huge entry demotes it in place, and the
// collapse refills the slice and asks for promotion — which succeeds
// only when every slice happens to be whole, the MADV_COLLAPSE race the
// survey's double check absorbs.
func (w *worker) thp(o op) error {
	page := o.a % w.slicePages
	switch o.kind {
	case opTHPWrite:
		return w.write(w.slice, page, byte(o.b), w.sliceStamps)
	case opTHPRead:
		return w.verify(w.cpus[0], "thp", w.slice, page, w.sliceStamps)
	case opTHPDiscard:
		err := w.g.root.MadviseDontNeed(w.slice+page*vm.PageSize, vm.PageSize)
		if err == nil {
			delete(w.sliceStamps, page)
		}
		return err
	}
	for p := uint64(0); p < w.slicePages; p++ {
		if _, ok := w.g.root.Translate(w.slice + p*vm.PageSize); ok {
			continue
		}
		if err := w.write(w.slice, p, byte(o.b), w.sliceStamps); err != nil {
			return err
		}
	}
	w.g.root.CollapseRange(thpLo, thpLo+w.g.dr.t.geo.thp*vm.PageSize)
	return nil
}

// fork forks the root and, from inside the child, verifies the arena
// pages the operation names against their stamps — the COW snapshot
// guarantee — then write-faults one churn page (a COW break or a fresh
// page) and closes the child, whose Close must not leak.
func (w *worker) fork(o op) error {
	g, geo := w.g, w.g.dr.t.geo
	child, err := g.root.Fork()
	if err != nil {
		return err
	}
	ccpu := child.NewCPU(w.id)
	for i := uint64(0); i < forkChecks; i++ {
		page := (o.a + i) % geo.arena
		if _, known := w.arenaStamps[page]; known {
			g.dr.t.classify(&w.counts, g.key, "fork child read", w.verify(ccpu, "fork child arena", w.arena, page, w.arenaStamps), false)
		}
	}
	g.dr.t.classify(&w.counts, g.key, "fork child fault", ccpu.Fault(geo.churnLo+(o.b%geo.churn)*vm.PageSize, true), true)
	if err := child.Close(); err != nil {
		g.dr.t.violate("%s: fork child leaked: %v", g.key, err)
	}
	return nil
}

// write stamps page of the region at base with b through the root and
// records the stamp once the write succeeded.
func (w *worker) write(base, page uint64, b byte, stamps map[uint64]byte) error {
	for i := range w.buf {
		w.buf[i] = b
	}
	err := w.cpus[0].WriteBytes(base+page*vm.PageSize, w.buf[:])
	if err == nil {
		stamps[page] = b
	}
	return err
}

// verify reads page of the region at base through cpu and checks it
// against the stamp the worker last wrote there, if it knows one.
func (w *worker) verify(cpu *vm.CPU, what string, base, page uint64, stamps map[uint64]byte) error {
	want, known := stamps[page]
	err := cpu.ReadBytes(base+page*vm.PageSize, w.buf[:])
	if err == nil && known {
		for i, got := range w.buf {
			if got != want {
				w.g.dr.t.violate("%s: %s page %d byte %d: got %#x, want %#x", w.g.key, what, page, i, got, want)
				break
			}
		}
	}
	return err
}

// splitmix returns a deterministic stream — splitmix64, the same mixer
// the failpoint verdicts use, seeded independently.
func splitmix(seed uint64) func() uint64 {
	state := seed
	return func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
}

// hash is FNV-1a over a key.
func hash(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}
