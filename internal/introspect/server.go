package introspect

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"bonsai/internal/contention"
	"bonsai/internal/vm"
)

// Server is the embeddable introspection endpoint. Start binds and
// serves immediately; Close stops listening and waits for in-flight
// handlers. Starting a server arms the lock-contention profiler and
// Close disarms it, so a machine with no scraper attached pays nothing
// on the fault path.
type Server struct {
	h     *vm.Host
	label string
	ln    net.Listener
	srv   *http.Server
	once  sync.Once
}

// Start serves the introspection plane for h on addr (host:port; ":0"
// picks a free port — read it back from Addr). label names the machine
// on the index page and in the instance metric.
func Start(addr string, h *vm.Host, label string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("introspect: listen %s: %w", addr, err)
	}
	s := &Server{h: h, label: label, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WriteMetrics(w, Read(h), contention.Top(contentionTopN), label)
	})
	mux.HandleFunc("/proc/meminfo", text(func(w io.Writer) error { return WriteMeminfo(w, Read(h)) }))
	mux.HandleFunc("/proc/locks", text(func(w io.Writer) error { return WriteLocks(w, h) }))
	mux.HandleFunc("/proc/rcu", text(func(w io.Writer) error { return WriteRCU(w, Read(h)) }))
	mux.HandleFunc("/proc/", s.handleSmaps)
	mux.HandleFunc("/debug/contention", s.handleContention)
	mux.HandleFunc("/snapshot.json", s.handleSnapshot)
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	contention.Arm()
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound address, e.g. "127.0.0.1:6060".
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and disarms the contention profiler; a second
// Close does nothing.
func (s *Server) Close() (err error) {
	s.once.Do(func() {
		contention.Disarm()
		err = s.srv.Close()
	})
	return err
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "bonsai introspection: %s\n\n", s.label)
	fmt.Fprint(w, `endpoints:
  /metrics            Prometheus text exposition
  /proc/meminfo       frame pool + per-tenant accounting
  /proc/locks         live range-lock holders and waiters
  /proc/rcu           RCU domain counters and shard backlogs
  /proc/<tenant>/smaps  per-VMA residency for one tenant
  /debug/contention   top lock-contention sites (?format=json)
  /snapshot.json      machine snapshot + contention, for vmtop
`)
}

// text serves one plain-text rendering of the machine.
func text(write func(io.Writer) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = write(w)
	}
}

// handleSmaps serves /proc/<tenant>/smaps.
func (s *Server) handleSmaps(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/proc/")
	name, tail, ok := strings.Cut(rest, "/")
	if !ok || tail != "smaps" || name == "" {
		http.NotFound(w, r)
		return
	}
	for _, root := range s.h.Tenants().Live {
		if root.TenantName() == name {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_ = WriteSmaps(w, root)
			return
		}
	}
	http.Error(w, fmt.Sprintf("no such tenant: %s", name), http.StatusNotFound)
}

func (s *Server) handleContention(w http.ResponseWriter, r *http.Request) {
	sites := contention.Top(contentionTopN)
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(sites)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = WriteContention(w, sites)
}

// SnapshotJSON is the /snapshot.json document — the machine rollup
// plus the contention top list, everything vmtop needs in one scrape.
type SnapshotJSON struct {
	Label      string                 `json:"label"`
	Snapshot   Snapshot               `json:"snapshot"`
	Contention []contention.SiteStats `json:"contention,omitempty"`
	Dropped    uint64                 `json:"contention_dropped,omitempty"`
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	doc := SnapshotJSON{
		Label:      s.label,
		Snapshot:   Read(s.h),
		Contention: contention.Top(contentionTopN),
		Dropped:    contention.Dropped(),
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(doc)
}
