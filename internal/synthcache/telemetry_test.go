package synthcache_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/elp"
	"repro/internal/synthcache"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// driveCounters pushes one deterministic request sequence through a
// capacity-1 cache: a cold Clos miss, a shared rehit, an uncached rebuild
// for an isomorphic twin, and a pod-stamped fat-tree build that evicts
// the Clos entry. Final tallies: 1 hit, 3 misses, 1 eviction,
// 1 pod-stamped.
func driveCounters(t *testing.T, reg *telemetry.Registry) {
	t.Helper()
	cache := synthcache.New(1)
	cache.SetTelemetry(reg)

	mkClos := func() *topology.Clos {
		c, err := topology.NewClos(topology.ClosConfig{
			Pods: 2, ToRsPerPod: 1, LeafsPerPod: 1, Spines: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a := mkClos()
	setA := elp.KBounce(a.Graph, a.ToRs, 1, nil)
	if _, err := cache.SynthesizeClos(a.Graph, setA.Paths(), 1); err != nil {
		t.Fatal(err) // miss
	}
	if r, err := cache.SynthesizeClos(a.Graph, setA.Paths(), 1); err != nil || !r.Hit {
		t.Fatalf("rehit = %+v, %v", r, err) // shared hit
	}
	b := mkClos()
	setB := elp.KBounce(b.Graph, b.ToRs, 1, nil)
	if r, err := cache.SynthesizeClos(b.Graph, setB.Paths(), 1); err != nil || r.Hit {
		t.Fatalf("twin = %+v, %v", r, err) // another instance: rebuilt, a miss
	}
	ft, err := topology.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := cache.ClosKBounce(ft.Graph, ft.Edges, 1); err != nil || !r.PodMemoized {
		t.Fatalf("fattree = %+v, %v", r, err) // pod-stamped miss + eviction
	}

	want := synthcache.Stats{Hits: 1, Misses: 3, Evictions: 1, PodStamped: 1}
	if got := cache.Stats(); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
}

// TestPrometheusGoldenCacheCounters pins the cache's metric families in
// the Prometheus text exposition byte-for-byte, the same way the
// telemetry exporter's own goldens do.
func TestPrometheusGoldenCacheCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	driveCounters(t, reg)
	var sb strings.Builder
	if err := telemetry.WritePrometheus(&sb, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE synthcache_evictions counter
synthcache_evictions 1
# TYPE synthcache_hits counter
synthcache_hits 1
# TYPE synthcache_misses counter
synthcache_misses 3
# TYPE synthcache_pod_stamped counter
synthcache_pod_stamped 1
`
	if got := sb.String(); got != want {
		t.Fatalf("cache counter exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestMetricsEndpointServesCacheCounters scrapes the counters off the
// ops /metrics endpoint — the path operators actually read.
func TestMetricsEndpointServesCacheCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	driveCounters(t, reg)
	srv := httptest.NewServer(telemetry.Handler(reg))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	for _, line := range []string{
		"synthcache_hits 1",
		"synthcache_misses 3",
		"synthcache_evictions 1",
		"synthcache_pod_stamped 1",
	} {
		if !strings.Contains(string(body), line) {
			t.Errorf("/metrics missing %q", line)
		}
	}
}
