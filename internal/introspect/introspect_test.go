package introspect

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"bonsai/internal/contention"
	"bonsai/internal/fail"
	"bonsai/internal/machine"
	"bonsai/internal/stats"
	"bonsai/internal/vm"
	"bonsai/internal/vma"
)

func testMachine(t *testing.T, design vm.Design, frames uint64) *machine.Machine {
	t.Helper()
	m := machine.New(machine.Config{
		VM:         vm.Config{Design: design, CPUs: 2, Frames: frames},
		MaxTenants: 8,
	})
	t.Cleanup(func() { _ = m.Close() })
	return m
}

// populate admits a tenant, maps pages anon RW pages, and write-faults
// them all.
func populate(t *testing.T, m *machine.Machine, name string, limit int64, pages uint64) (*machine.Tenant, uint64) {
	t.Helper()
	tn, err := m.Admit(name, limit)
	if err != nil {
		t.Fatal(err)
	}
	as := tn.Root()
	base, err := as.Mmap(0, pages*vm.PageSize, vma.ProtRead|vma.ProtWrite, 0, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	cpu := as.NewCPU(0)
	for p := uint64(0); p < pages; p++ {
		if err := cpu.Fault(base+p*vm.PageSize, true); err != nil {
			t.Fatalf("fault: %v", err)
		}
	}
	return tn, base
}

func startServer(t *testing.T, m *machine.Machine, label string) *Server {
	t.Helper()
	srv, err := Start("127.0.0.1:0", m, label)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv
}

func scrape(t *testing.T, srv *Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + srv.Addr() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// TestMetricsExposition is satellite 3's validity half: a live scrape
// parses under the strict checker (which enforces single HELP/TYPE,
// _total discipline, and duplicate detection) and carries the
// per-tenant and latency series the issue names.
func TestMetricsExposition(t *testing.T) {
	m := testMachine(t, vm.PureRCU, 4096)
	populate(t, m, "alpha", 256, 64)
	populate(t, m, "beta", 0, 32)
	srv := startServer(t, m, "test")

	code, body := scrape(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	fams, err := ParseExposition(body)
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	byName := map[string]Family{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	tf, ok := byName["vm_tenant_faults_total"]
	if !ok {
		t.Fatal("vm_tenant_faults_total missing")
	}
	if tf.Type != "counter" {
		t.Fatalf("vm_tenant_faults_total type = %s", tf.Type)
	}
	seen := map[string]float64{}
	for _, s := range tf.Samples {
		seen[s.Labels["tenant"]] = s.Value
	}
	if seen["alpha"] < 64 || seen["beta"] < 32 {
		t.Fatalf("per-tenant fault counts wrong: %v", seen)
	}
	fl, ok := byName["vm_fault_latency_ns"]
	if !ok || fl.Type != "summary" {
		t.Fatalf("vm_fault_latency_ns missing or wrong type (%v)", fl.Type)
	}
	quantiles := map[string]bool{}
	var count float64
	for _, s := range fl.Samples {
		if s.Name == "vm_fault_latency_ns_count" {
			count = s.Value
		} else {
			quantiles[s.Labels["quantile"]] = true
		}
	}
	for _, q := range []string{"0.5", "0.99", "0.999"} {
		if !quantiles[q] {
			t.Fatalf("missing quantile %s (have %v)", q, quantiles)
		}
	}
	if count != 96 {
		t.Fatalf("fault summary count = %v, want the exact 96 faults", count)
	}
	// The timed sample is its own, labelled family: some faults, far
	// from all of them while the tracer is disarmed.
	sf, ok := byName["vm_fault_latency_samples_total"]
	if !ok || len(sf.Samples) != 1 {
		t.Fatalf("vm_fault_latency_samples_total missing (%v)", sf)
	}
	if n := sf.Samples[0].Value; n < 1 || n >= 96/2 {
		t.Fatalf("fault latency samples = %v, want a sample of the 96 faults", n)
	}
	for _, name := range []string{"vm_pool_frames", "vm_tenant_frames", "vm_rcu_grace_periods_total", "vm_oom_kills_total"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("family %s missing", name)
		}
	}
}

// TestMetricsMonotonicUnderLoad is satellite 3's other half: two
// scrapes bracketing concurrent load — including a tenant eviction,
// the historical counter-regression trap — stay monotonic.
func TestMetricsMonotonicUnderLoad(t *testing.T) {
	m := testMachine(t, vm.Hybrid, 4096)
	populate(t, m, "steady", 256, 64)
	doomed, _ := populate(t, m, "doomed", 128, 48)
	srv := startServer(t, m, "test")

	_, body1 := scrape(t, srv, "/metrics")
	prev, err := ParseExposition(body1)
	if err != nil {
		t.Fatalf("scrape 1: %v", err)
	}

	// Load between scrapes: more faults on a new tenant, then evict the
	// doomed tenant so its samples must fold into the departed
	// accumulators rather than vanish from the machine totals.
	populate(t, m, "churn", 0, 32)
	if err := doomed.Evict(); err != nil {
		t.Fatal(err)
	}

	_, body2 := scrape(t, srv, "/metrics")
	cur, err := ParseExposition(body2)
	if err != nil {
		t.Fatalf("scrape 2: %v", err)
	}
	if err := CheckMonotonic(prev, cur); err != nil {
		t.Fatalf("monotonicity: %v", err)
	}
}

// TestForkChildFaultsReachEverySurface: a fork child that faults and
// closes on its own — never through its tenant — still counts, live and
// after it closes, in the tenant's and the machine's exact fault count,
// in their sampled histograms and in vm_tenant_faults_total.
func TestForkChildFaultsReachEverySurface(t *testing.T) {
	m := testMachine(t, vm.PureRCU, 4096)
	tn, base := populate(t, m, "alpha", 256, 16)
	before := m.Snapshot()
	child, err := tn.Root().Fork()
	if err != nil {
		t.Fatal(err)
	}
	cpu := child.NewCPU(0)
	for p := uint64(0); p < 8; p++ {
		if err := cpu.Fault(base+p*vm.PageSize, true); err != nil {
			t.Fatalf("child fault: %v", err)
		}
	}
	live := m.Snapshot()
	if err := child.Close(); err != nil {
		t.Fatal(err)
	}
	closed := m.Snapshot()
	for _, c := range []struct {
		when string
		sn   machine.Snapshot
	}{{"child live", live}, {"child closed", closed}} {
		if len(c.sn.Tenants) != 1 {
			t.Fatalf("%s: tenants = %+v", c.when, c.sn.Tenants)
		}
		ts := c.sn.Tenants[0]
		if ts.Faults != 24 || c.sn.Faults != 24 {
			t.Fatalf("%s: tenant faults %d, machine faults %d; want 16 root + 8 child = 24", c.when, ts.Faults, c.sn.Faults)
		}
		// A fresh CPU times its first fault, so the child added samples.
		if n := c.sn.Latency.Fault.Count; ts.Fault.Count != n || n != live.Latency.Fault.Count || n <= before.Latency.Fault.Count {
			t.Fatalf("%s: tenant samples %d, machine samples %d; want both %d, above the root's %d", c.when,
				ts.Fault.Count, n, live.Latency.Fault.Count, before.Latency.Fault.Count)
		}
	}
	var b strings.Builder
	if err := WriteMetrics(&b, m, "test"); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseExposition(b.String())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fams {
		if f.Name == "vm_tenant_faults_total" {
			if len(f.Samples) != 1 || f.Samples[0].Value != 24 {
				t.Fatalf("vm_tenant_faults_total = %+v, want alpha at 24", f.Samples)
			}
			return
		}
	}
	t.Fatal("vm_tenant_faults_total missing")
}

// TestMeminfo checks the /proc/meminfo shape: machine totals first,
// then one block per tenant with limits and RSS.
func TestMeminfo(t *testing.T) {
	m := testMachine(t, vm.PureRCU, 2048)
	populate(t, m, "alpha", 256, 64)
	srv := startServer(t, m, "test")
	code, body := scrape(t, srv, "/proc/meminfo")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, want := range []string{"MemTotal:", "MemFree:", "WatermarkLow:", "Tenant: alpha", "Limit:", "RSS:"} {
		if !strings.Contains(body, want) {
			t.Fatalf("meminfo missing %q:\n%s", want, body)
		}
	}
	if !strings.Contains(body, "2048") {
		t.Fatalf("meminfo does not report the 2048-frame pool:\n%s", body)
	}
}

// TestLocksLiveHolder is the issue's acceptance criterion: during an
// induced long-held range operation, /proc/locks shows the live
// holder. The tlb.flush-delay failpoint stretches a MadviseDontNeed's
// shootdown while it holds the range lock.
func TestLocksLiveHolder(t *testing.T) {
	m := testMachine(t, vm.PureRCU, 4096)
	tn, base := populate(t, m, "alpha", 0, 256)
	srv := startServer(t, m, "test")

	// Each madvise pays one gather flush inside its range guard; the
	// armed delay stretches that hold window so a scrape can land in it.
	if err := fail.Enable(1, "tlb.flush-delay", fail.Config{OneIn: 1, Delay: 20 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer fail.Disable("tlb.flush-delay")

	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if err := tn.Root().MadviseDontNeed(base, 256*vm.PageSize); err != nil {
				done <- err
				return
			}
		}
	}()

	deadline := time.Now().Add(10 * time.Second)
	sawHeld := false
	for !sawHeld {
		if time.Now().After(deadline) {
			close(stop)
			<-done
			t.Fatal("never saw a HELD guard in /proc/locks")
		}
		_, body := scrape(t, srv, "/proc/locks")
		if strings.Contains(body, "HELD") {
			sawHeld = true
			if !strings.Contains(body, "alpha") {
				t.Fatalf("holder not attributed to tenant:\n%s", body)
			}
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("madvise: %v", err)
	}
}

// TestSmaps checks /proc/<tenant>/smaps: per-VMA extents with RSS and
// the private/shared split, and a 404 for unknown tenants.
func TestSmaps(t *testing.T) {
	m := testMachine(t, vm.Hybrid, 2048)
	tn, err := m.Admit("alpha", 0)
	if err != nil {
		t.Fatal(err)
	}
	as := tn.Root()
	cpu := as.NewCPU(0)
	anon, err := as.Mmap(0, 32*vm.PageSize, vma.ProtRead|vma.ProtWrite, 0, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for p := uint64(0); p < 16; p++ {
		if err := cpu.Fault(anon+p*vm.PageSize, true); err != nil {
			t.Fatal(err)
		}
	}
	file := vma.NewFile("data.bin", 16)
	shared, err := as.Mmap(0, 16*vm.PageSize, vma.ProtRead|vma.ProtWrite, vma.Shared, file, 0)
	if err != nil {
		t.Fatal(err)
	}
	for p := uint64(0); p < 8; p++ {
		if err := cpu.Fault(shared+p*vm.PageSize, false); err != nil {
			t.Fatal(err)
		}
	}
	srv := startServer(t, m, "test")
	code, body := scrape(t, srv, "/proc/alpha/smaps")
	if code != http.StatusOK {
		t.Fatalf("status %d:\n%s", code, body)
	}
	for _, want := range []string{"[anon]", "data.bin", "Rss:", "Private:", "Shared:", "Dirty:"} {
		if !strings.Contains(body, want) {
			t.Fatalf("smaps missing %q:\n%s", want, body)
		}
	}
	if code, _ := scrape(t, srv, "/proc/nosuch/smaps"); code != http.StatusNotFound {
		t.Fatalf("unknown tenant gave %d, want 404", code)
	}
}

// TestContentionEndpoint: the server arms the profiler on Start, the
// endpoint reports sites in both renderings, and Close disarms.
func TestContentionEndpoint(t *testing.T) {
	if contention.Armed() {
		t.Fatal("profiler armed before any server started")
	}
	m := testMachine(t, vm.PureRCU, 1024)
	populate(t, m, "alpha", 0, 8)
	srv := startServer(t, m, "test")
	if !contention.Armed() {
		t.Fatal("Start did not arm the contention profiler")
	}
	contention.Note("test.site", 0x1000, 0x2000, 3*time.Millisecond)
	contention.Note("test.site", 0x1000, 0x2000, time.Millisecond)

	code, body := scrape(t, srv, "/debug/contention?format=json")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var sites []contention.SiteStats
	if err := json.Unmarshal([]byte(body), &sites); err != nil {
		t.Fatalf("bad json: %v\n%s", err, body)
	}
	found := false
	for _, s := range sites {
		if s.Site == "test.site" && s.Waits == 2 && s.TotalWaitNs >= int64(4*time.Millisecond) {
			found = true
		}
	}
	if !found {
		t.Fatalf("test.site not in contention report: %+v", sites)
	}
	_, text := scrape(t, srv, "/debug/contention")
	if !strings.Contains(text, "test.site") {
		t.Fatalf("text rendering missing site:\n%s", text)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if contention.Armed() {
		t.Fatal("Close did not disarm the contention profiler")
	}
}

// TestRangeContentionAttribution drives real overlapping map
// operations and checks the ranges wiring lands per-range "range"
// sites in the profiler.
func TestRangeContentionAttribution(t *testing.T) {
	m := testMachine(t, vm.PureRCU, 4096)
	tn, base := populate(t, m, "alpha", 0, 64)
	srv := startServer(t, m, "test")
	defer srv.Close()
	as := tn.Root()

	// Stretch each madvise's critical section so the overlapping
	// goroutines actually queue on the range lock.
	if err := fail.Enable(2, "tlb.flush-delay", fail.Config{OneIn: 1, Delay: 200 * time.Microsecond}); err != nil {
		t.Fatal(err)
	}
	defer fail.Disable("tlb.flush-delay")

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = as.MadviseDontNeed(base, 64*vm.PageSize)
			}
		}()
	}
	wg.Wait()
	sites := contention.Snapshot()
	for _, s := range sites {
		if s.Site == "range" {
			return
		}
	}
	t.Fatalf("no range-lock contention attributed after overlapping madvise storm: %+v", sites)
}

// TestRCUView sanity-checks /proc/rcu renders the shard backlog table.
func TestRCUView(t *testing.T) {
	m := testMachine(t, vm.PureRCU, 1024)
	populate(t, m, "alpha", 0, 16)
	srv := startServer(t, m, "test")
	_, body := scrape(t, srv, "/proc/rcu")
	for _, want := range []string{"GracePeriods:", "Readers:", "shard"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/proc/rcu missing %q:\n%s", want, body)
		}
	}
}

// TestSnapshotJSON checks the vmtop document: label, snapshot with
// tenants, and contention list decode round-trip.
func TestSnapshotJSON(t *testing.T) {
	m := testMachine(t, vm.Hybrid, 2048)
	populate(t, m, "alpha", 128, 32)
	srv := startServer(t, m, "soak")
	_, body := scrape(t, srv, "/snapshot.json")
	var doc SnapshotJSON
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("bad json: %v", err)
	}
	if doc.Label != "soak" {
		t.Fatalf("label = %q", doc.Label)
	}
	if len(doc.Snapshot.Tenants) != 1 || doc.Snapshot.Tenants[0].Name != "alpha" {
		t.Fatalf("tenants = %+v", doc.Snapshot.Tenants)
	}
	if doc.Snapshot.Tenants[0].Faults < 32 {
		t.Fatalf("tenant fault count = %d, want >= 32", doc.Snapshot.Tenants[0].Faults)
	}
}

// TestDeltaEngine: interval deltas across machine snapshots, including
// a tenant appearing and departing between steps.
func TestDeltaEngine(t *testing.T) {
	mk := func(faults, gps uint64, tenants ...machine.TenantSnapshot) machine.Snapshot {
		var sn machine.Snapshot
		sn.Faults = faults
		sn.Latency.Fault = stats.LatencyStats{Count: faults / 16} // the timed sample: not what deltas read
		sn.Latency.GP = stats.LatencyStats{Count: gps}
		sn.Tenants = tenants
		return sn
	}
	tsn := func(name string, faults uint64) machine.TenantSnapshot {
		return machine.TenantSnapshot{Name: name, Counts: vm.Counts{Faults: faults}, Fault: stats.LatencyStats{Count: faults / 16}}
	}
	var e DeltaEngine
	d := e.Step(mk(100, 5, tsn("a", 100)))
	if !d.First || d.Faults != 0 {
		t.Fatalf("first step: %+v", d)
	}
	d = e.Step(mk(250, 8, tsn("a", 180), tsn("b", 70)))
	if d.First || d.Faults != 150 || d.GracePeriods != 3 {
		t.Fatalf("second step: %+v", d)
	}
	if len(d.Tenants) != 2 || d.Tenants[0].Faults != 80 || d.Tenants[1].Faults != 70 {
		t.Fatalf("tenant deltas: %+v", d.Tenants)
	}
	// b departs: machine counters keep counting (the departed rollup),
	// b's series just disappears.
	d = e.Step(mk(260, 8, tsn("a", 190)))
	if d.Faults != 10 || len(d.Tenants) != 1 || d.Tenants[0].Faults != 10 {
		t.Fatalf("third step: %+v", d)
	}
}

// TestParseExpositionRejects: the checker actually rejects the failure
// modes it claims to (duplicate families, counter naming, duplicate
// samples, undeclared families, regressions).
func TestParseExpositionRejects(t *testing.T) {
	cases := []struct {
		name, doc string
	}{
		{"duplicate TYPE", "# TYPE x_total counter\n# TYPE x_total counter\nx_total 1\n"},
		{"counter without _total", "# TYPE x counter\nx 1\n"},
		{"gauge with _total", "# TYPE x_total gauge\nx_total 1\n"},
		{"undeclared family", "y 1\n"},
		{"duplicate sample", "# TYPE x gauge\nx{a=\"1\"} 1\nx{a=\"1\"} 2\n"},
		{"bad value", "# TYPE x gauge\nx nope\n"},
		{"empty family", "# TYPE x gauge\n"},
	}
	for _, c := range cases {
		if _, err := ParseExposition(c.doc); err == nil {
			t.Errorf("%s: parsed without error", c.name)
		}
	}
	prev, err := ParseExposition("# TYPE x_total counter\nx_total 5\n")
	if err != nil {
		t.Fatal(err)
	}
	cur, err := ParseExposition("# TYPE x_total counter\nx_total 3\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckMonotonic(prev, cur); err == nil {
		t.Fatal("regression not detected")
	}
	if err := CheckMonotonic(prev, prev); err != nil {
		t.Fatalf("flat counters flagged: %v", err)
	}
}

// hugeFaultsMetric scrapes vm_thp_faults_total{outcome="huge"} and the
// whole exposition.
func hugeFaultsMetric(t *testing.T, m *machine.Machine) (float64, []Family) {
	t.Helper()
	var b strings.Builder
	if err := WriteMetrics(&b, m, "test"); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseExposition(b.String())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fams {
		for _, s := range f.Samples {
			if s.Name == "vm_thp_faults_total" && s.Labels["outcome"] == "huge" {
				return s.Value, fams
			}
		}
	}
	t.Fatal("vm_thp_faults_total{outcome=\"huge\"} missing")
	return 0, nil
}

// TestTHPCountersSurviveRetirement: the root's and a sibling's huge
// faults both reach vm_thp_faults_total, and the tenant retiring keeps
// them there — the THP families read the machine's counter set, which
// folds every member and every departed tenant, so they are counters
// that never go back. (A bystander keeps the per-tenant families
// alive across the scrapes.)
func TestTHPCountersSurviveRetirement(t *testing.T) {
	m := testMachine(t, vm.PureRCU, 4096)
	populate(t, m, "bystander", 0, 1)
	tn, err := m.Admit("alpha", 0)
	if err != nil {
		t.Fatal(err)
	}
	sib, err := tn.NewSibling()
	if err != nil {
		t.Fatal(err)
	}
	for _, as := range []*vm.AddressSpace{tn.Root(), sib} {
		base, err := as.Mmap(0, 2*vm.HugeSpan, vma.ProtRead|vma.ProtWrite, 0, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		chunk := (base + vm.HugeSpan - 1) &^ (vm.HugeSpan - 1)
		if err := as.NewCPU(0).Fault(chunk, true); err != nil {
			t.Fatal(err)
		}
		if n := as.Stats().THPHugeFaults; n != 1 {
			t.Fatalf("a first touch of an aligned chunk took %d huge faults, want 1", n)
		}
	}
	live, prev := hugeFaultsMetric(t, m)
	if err := tn.Evict(); err != nil {
		t.Fatal(err)
	}
	retired, cur := hugeFaultsMetric(t, m)
	if live != 2 || retired != 2 {
		t.Fatalf("vm_thp_faults_total{outcome=\"huge\"} = %v live, %v retired; want the root's and the sibling's 2 both times", live, retired)
	}
	if err := CheckMonotonic(prev, cur); err != nil {
		t.Fatalf("tenant retirement: %v", err)
	}
}

// TestTenantRSSCountsEveryMemberOnce: an unlimited tenant's RSS is the
// pages its members map — a sibling's count — and a page the eviction
// scan revoked leaves it once.
func TestTenantRSSCountsEveryMemberOnce(t *testing.T) {
	m := testMachine(t, vm.PureRCU, 4096)
	tn, err := m.Admit("alpha", 0)
	if err != nil {
		t.Fatal(err)
	}
	root := tn.Root()
	const filePages = 64
	base, err := root.Mmap(0, filePages*vm.PageSize, vma.ProtRead, vma.Shared, vma.NewFile("rss.dat", 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	cpu := root.NewCPU(0)
	for p := uint64(0); p < filePages; p++ {
		if err := cpu.Fault(base+p*vm.PageSize, false); err != nil {
			t.Fatal(err)
		}
	}
	sib, err := tn.NewSibling()
	if err != nil {
		t.Fatal(err)
	}
	anon, err := sib.Mmap(0, 16*vm.PageSize, vma.ProtRead|vma.ProtWrite, 0, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	scpu := sib.NewCPU(0)
	for p := uint64(0); p < 16; p++ {
		if err := scpu.Fault(anon+p*vm.PageSize, true); err != nil {
			t.Fatal(err)
		}
	}
	rss := func() int64 { return TenantRSS(m.Snapshot().Tenants[0]) }
	if got := rss(); got != filePages+16 {
		t.Fatalf("RSS = %d, want the root's %d file pages and the sibling's 16", got, filePages)
	}
	if !m.Host().Reclaimer().DirectReclaim() {
		t.Fatal("direct reclaim made no progress")
	}
	evicted := int64(root.Stats().EvictUnmaps)
	if evicted == 0 {
		t.Fatal("direct reclaim revoked none of the root's file pages")
	}
	if got, want := rss(), filePages+16-evicted; got != want || got != int64(root.LivePages()+sib.LivePages()) {
		t.Fatalf("RSS = %d after %d evictions, want %d (the members' live pages: %d + %d)",
			got, evicted, want, root.LivePages(), sib.LivePages())
	}
}
