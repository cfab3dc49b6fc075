package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// The traced pass: the benchmark's own in-memory span recorder around
// every public vm/machine call. Busy time and call counts are summed
// for every span; the first spanKeep spans of each worker are kept
// whole (kind, start, end, worker, parent sweep) and written to
// bench/out/ when the run ends. Spans inside internal/vm are a later
// issue — these measure each call from outside.

// spanKeep bounds the spans kept per worker so a traced run's file
// stays a few megabytes; the sums cover every span regardless.
const spanKeep = 1 << 15

type span struct {
	kind       opKind
	id, parent uint32
	start, end int64
}

type spanLog struct {
	on      bool
	kept    []span
	dropped uint64
	nextID  uint32
	parent  uint32 // the open sweep span, 0 outside one
	ns, n   [numOps]int64
}

func (l *spanLog) reset(on bool) {
	l.on = on
	l.ns, l.n = [numOps]int64{}, [numOps]int64{}
	if on && l.kept == nil {
		l.kept = make([]span, 0, spanKeep)
	}
}

func (l *spanLog) record(kind opKind, id, parent uint32, t0, t1 int64) {
	l.ns[kind] += t1 - t0
	l.n[kind]++
	if len(l.kept) < spanKeep {
		l.kept = append(l.kept, span{kind: kind, id: id, parent: parent, start: t0, end: t1})
	} else {
		l.dropped++
	}
}

func (l *spanLog) add(kind opKind, t0, t1 int64) {
	l.nextID++
	l.record(kind, l.nextID, l.parent, t0, t1)
}

func (l *spanLog) sum(ns, n *[numOps]int64) {
	for k := range l.ns {
		ns[k] += l.ns[k]
		n[k] += l.n[k]
	}
}

// sweepSpan is an open sweep/round span; the zero value (tracing off)
// is inert.
type sweepSpan struct {
	id uint32
	t0 int64
}

func (w *worker) beginSweep() sweepSpan {
	if !w.traced {
		return sweepSpan{}
	}
	l := &w.spans
	l.nextID++
	l.parent = l.nextID
	return sweepSpan{id: l.nextID, t0: now()}
}

func (w *worker) endSweep(s sweepSpan) {
	if s.id == 0 {
		return
	}
	w.spans.parent = 0
	w.spans.record(opSweep, s.id, 0, s.t0, now())
}

// outDir is where run documents and span files go, relative to the
// directory the benchmark is started from.
var outDir = filepath.Join("bench", "out")

// writeSpans writes the kept spans as JSON lines: a header, then one
// object per span. A sweep's self time is its duration minus its
// children's.
func writeSpans(workload string, in *instance) (err error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(outDir, "trace-"+workload+".jsonl"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	all := in.everyone()
	var dropped uint64
	for _, w := range all {
		dropped += w.spans.dropped
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintf(bw, "{\"workload\":%q,\"clock\":\"ns since process start\",\"kept_per_worker\":%d,\"dropped\":%d}\n",
		workload, spanKeep, dropped)
	var buf []byte
	for _, w := range all {
		for _, s := range w.spans.kept {
			buf = append(buf[:0], `{"name":"`...)
			buf = append(buf, opNames[s.kind]...)
			buf = append(buf, `","worker":`...)
			buf = strconv.AppendInt(buf, int64(w.id), 10)
			buf = append(buf, `,"id":`...)
			buf = strconv.AppendUint(buf, uint64(s.id), 10)
			buf = append(buf, `,"parent":`...)
			buf = strconv.AppendUint(buf, uint64(s.parent), 10)
			buf = append(buf, `,"start":`...)
			buf = strconv.AppendInt(buf, s.start, 10)
			buf = append(buf, `,"end":`...)
			buf = strconv.AppendInt(buf, s.end, 10)
			buf = append(buf, "}\n"...)
			bw.Write(buf)
		}
	}
	return bw.Flush()
}
