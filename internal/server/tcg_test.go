package server

import (
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/network"
	"repro/internal/workload"
)

func defaultTCGConfig() TCGConfig {
	return TCGConfig{
		DistanceThreshold:   100,
		SimilarityThreshold: 0.8,
		DistanceWeight:      0.5,
	}
}

func mustManager(t *testing.T, n, nData int, cfg TCGConfig) *TCGManager {
	t.Helper()
	m, err := NewTCGManager(n, nData, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTCGConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*TCGConfig)
		wantErr bool
	}{
		{"valid", func(*TCGConfig) {}, false},
		{"zero distance", func(c *TCGConfig) { c.DistanceThreshold = 0 }, true},
		{"similarity above 1", func(c *TCGConfig) { c.SimilarityThreshold = 1.1 }, true},
		{"negative similarity", func(c *TCGConfig) { c.SimilarityThreshold = -0.1 }, true},
		{"weight above 1", func(c *TCGConfig) { c.DistanceWeight = 2 }, true},
		{"unknown criteria", func(c *TCGConfig) { c.Criteria = 9 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := defaultTCGConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestNewTCGManagerValidation(t *testing.T) {
	if _, err := NewTCGManager(0, 10, defaultTCGConfig()); err == nil {
		t.Error("zero clients accepted")
	}
	if _, err := NewTCGManager(10, 0, defaultTCGConfig()); err == nil {
		t.Error("zero data accepted")
	}
}

func TestPairIndexUniqueAndSymmetric(t *testing.T) {
	m := mustManager(t, 7, 10, defaultTCGConfig())
	seen := map[int]bool{}
	for i := 0; i < 7; i++ {
		for j := i + 1; j < 7; j++ {
			p := m.pairIndex(i, j)
			if p != m.pairIndex(j, i) {
				t.Fatalf("pairIndex(%d,%d) != pairIndex(%d,%d)", i, j, j, i)
			}
			if seen[p] {
				t.Fatalf("pairIndex collision at (%d,%d) = %d", i, j, p)
			}
			if p < 0 || p >= 21 {
				t.Fatalf("pairIndex(%d,%d) = %d out of range", i, j, p)
			}
			seen[p] = true
		}
	}
}

func TestSimilarityCosine(t *testing.T) {
	m := mustManager(t, 3, 100, defaultTCGConfig())
	// Clients 0 and 1 access the same items; client 2 accesses disjoint
	// items.
	for rep := 0; rep < 3; rep++ {
		for d := workload.ItemID(0); d < 5; d++ {
			m.RecordAccess(0, d)
			m.RecordAccess(1, d)
		}
	}
	for d := workload.ItemID(50); d < 55; d++ {
		m.RecordAccess(2, d)
	}
	if got := m.Similarity(0, 1); math.Abs(got-1) > 1e-9 {
		t.Errorf("identical access sim = %v, want 1", got)
	}
	if got := m.Similarity(0, 2); got != 0 {
		t.Errorf("disjoint access sim = %v, want 0", got)
	}
	if got := m.Similarity(0, 0); got != 0 {
		t.Errorf("self-similarity = %v, want 0 by convention", got)
	}
}

func TestSimilarityIncrementalMatchesDirect(t *testing.T) {
	m := mustManager(t, 2, 20, defaultTCGConfig())
	accesses := []struct {
		client network.NodeID
		item   workload.ItemID
	}{
		{0, 1}, {0, 1}, {0, 3}, {1, 1}, {1, 2}, {1, 3}, {0, 2}, {1, 1}, {0, 1},
	}
	counts := [2][20]float64{}
	for _, a := range accesses {
		m.RecordAccess(a.client, a.item)
		counts[a.client][a.item]++
	}
	var dot, n0, n1 float64
	for d := 0; d < 20; d++ {
		dot += counts[0][d] * counts[1][d]
		n0 += counts[0][d] * counts[0][d]
		n1 += counts[1][d] * counts[1][d]
	}
	want := dot / math.Sqrt(n0*n1)
	if got := m.Similarity(0, 1); math.Abs(got-want) > 1e-9 {
		t.Errorf("incremental sim = %v, direct = %v", got, want)
	}
}

func TestWeightedDistanceEWMA(t *testing.T) {
	m := mustManager(t, 2, 10, defaultTCGConfig()) // omega = 0.5
	if _, ok := m.WeightedDistance(0, 1); ok {
		t.Error("distance set before any location")
	}
	m.RecordLocation(0, geo.Point{X: 0, Y: 0})
	// Only one location known: still unset.
	if _, ok := m.WeightedDistance(0, 1); ok {
		t.Error("distance set with one-sided location")
	}
	m.RecordLocation(1, geo.Point{X: 100, Y: 0})
	d, ok := m.WeightedDistance(0, 1)
	if !ok || d != 100 {
		t.Fatalf("first distance = %v (%v), want 100", d, ok)
	}
	m.RecordLocation(0, geo.Point{X: 80, Y: 0}) // new dist 20
	d, _ = m.WeightedDistance(0, 1)
	// 0.5*20 + 0.5*100 = 60.
	if math.Abs(d-60) > 1e-9 {
		t.Errorf("EWMA distance = %v, want 60", d)
	}
}

// driveIntoTCG makes clients 0 and 1 a TCG pair.
func driveIntoTCG(m *TCGManager) {
	for rep := 0; rep < 5; rep++ {
		for d := workload.ItemID(0); d < 5; d++ {
			m.RecordAccess(0, d)
			m.RecordAccess(1, d)
		}
	}
	m.RecordLocation(0, geo.Point{X: 0, Y: 0})
	m.RecordLocation(1, geo.Point{X: 50, Y: 0})
}

func TestTCGFormationRequiresBothConditions(t *testing.T) {
	// Similar access but far apart: no TCG.
	far := mustManager(t, 2, 100, defaultTCGConfig())
	for rep := 0; rep < 5; rep++ {
		for d := workload.ItemID(0); d < 5; d++ {
			far.RecordAccess(0, d)
			far.RecordAccess(1, d)
		}
	}
	far.RecordLocation(0, geo.Point{X: 0, Y: 0})
	far.RecordLocation(1, geo.Point{X: 900, Y: 0})
	if len(far.TCG(0)) != 0 {
		t.Error("distant pair formed TCG")
	}

	// Close but dissimilar: no TCG.
	dis := mustManager(t, 2, 100, defaultTCGConfig())
	for d := workload.ItemID(0); d < 5; d++ {
		dis.RecordAccess(0, d)
		dis.RecordAccess(1, d+50)
	}
	dis.RecordLocation(0, geo.Point{X: 0, Y: 0})
	dis.RecordLocation(1, geo.Point{X: 10, Y: 0})
	if len(dis.TCG(0)) != 0 {
		t.Error("dissimilar pair formed TCG")
	}

	// Close and similar: TCG forms, symmetrically.
	both := mustManager(t, 2, 100, defaultTCGConfig())
	driveIntoTCG(both)
	if g := both.TCG(0); len(g) != 1 || g[0] != 1 {
		t.Errorf("TCG(0) = %v, want [1]", g)
	}
	if g := both.TCG(1); len(g) != 1 || g[0] != 0 {
		t.Errorf("TCG(1) = %v, want [0]", g)
	}
}

func TestTCGDeparture(t *testing.T) {
	m := mustManager(t, 2, 100, defaultTCGConfig())
	driveIntoTCG(m)
	if len(m.TCG(0)) != 1 {
		t.Fatal("precondition: pair in TCG")
	}
	m.DrainChanges(0)
	m.DrainChanges(1)
	// Client 1 roves far away; repeated location reports drive the EWMA
	// distance beyond the threshold.
	for i := 0; i < 10; i++ {
		m.RecordLocation(1, geo.Point{X: 2000, Y: 0})
	}
	if len(m.TCG(0)) != 0 {
		t.Error("pair still in TCG after departure")
	}
	changes := m.DrainChanges(0)
	if len(changes) != 1 || changes[0].Joined || changes[0].Peer != 1 {
		t.Errorf("changes = %+v, want single leave of peer 1", changes)
	}
}

func TestDrainChangesDeliversJoinsOnce(t *testing.T) {
	m := mustManager(t, 2, 100, defaultTCGConfig())
	driveIntoTCG(m)
	c0 := m.DrainChanges(0)
	if len(c0) != 1 || !c0[0].Joined || c0[0].Peer != 1 {
		t.Errorf("changes for 0 = %+v", c0)
	}
	if got := m.DrainChanges(0); got != nil {
		t.Errorf("second drain = %+v, want nil", got)
	}
	if m.PendingCount(1) != 1 {
		t.Errorf("pending for 1 = %d, want 1", m.PendingCount(1))
	}
}

func TestTCGInvalidClients(t *testing.T) {
	m := mustManager(t, 2, 10, defaultTCGConfig())
	m.RecordAccess(-1, 0)
	m.RecordAccess(5, 0)
	m.RecordAccess(0, -1)
	m.RecordAccess(0, 100)
	m.RecordLocation(-1, geo.Point{})
	if m.TCG(-1) != nil || m.TCG(9) != nil {
		t.Error("TCG of invalid client non-nil")
	}
	if m.DrainChanges(-1) != nil {
		t.Error("DrainChanges of invalid client non-nil")
	}
	if m.Similarity(-1, 0) != 0 {
		t.Error("Similarity with invalid client non-zero")
	}
}

func TestTCGThreeClients(t *testing.T) {
	m := mustManager(t, 3, 100, defaultTCGConfig())
	// All three share the access pattern; 0 and 1 are close, 2 is far.
	for rep := 0; rep < 5; rep++ {
		for d := workload.ItemID(0); d < 5; d++ {
			for c := network.NodeID(0); c < 3; c++ {
				m.RecordAccess(c, d)
			}
		}
	}
	m.RecordLocation(0, geo.Point{X: 0, Y: 0})
	m.RecordLocation(1, geo.Point{X: 50, Y: 0})
	m.RecordLocation(2, geo.Point{X: 800, Y: 0})
	if g := m.TCG(0); len(g) != 1 || g[0] != 1 {
		t.Errorf("TCG(0) = %v, want [1]", g)
	}
	if g := m.TCG(2); len(g) != 0 {
		t.Errorf("TCG(2) = %v, want empty", g)
	}
}

func TestGroupCriteriaModes(t *testing.T) {
	// Similar access but far apart.
	mkFarSimilar := func(criteria GroupCriteria) *TCGManager {
		cfg := defaultTCGConfig()
		cfg.Criteria = criteria
		m := mustManager(t, 2, 100, cfg)
		for rep := 0; rep < 5; rep++ {
			for d := workload.ItemID(0); d < 5; d++ {
				m.RecordAccess(0, d)
				m.RecordAccess(1, d)
			}
		}
		m.RecordLocation(0, geo.Point{X: 0, Y: 0})
		m.RecordLocation(1, geo.Point{X: 900, Y: 0})
		return m
	}
	if len(mkFarSimilar(CriteriaBoth).TCG(0)) != 0 {
		t.Error("both: far pair grouped")
	}
	if len(mkFarSimilar(CriteriaSimilarityOnly).TCG(0)) != 1 {
		t.Error("similarity-only: far similar pair not grouped")
	}
	if len(mkFarSimilar(CriteriaDistanceOnly).TCG(0)) != 0 {
		t.Error("distance-only: far pair grouped")
	}

	// Close but dissimilar.
	mkCloseDissimilar := func(criteria GroupCriteria) *TCGManager {
		cfg := defaultTCGConfig()
		cfg.Criteria = criteria
		m := mustManager(t, 2, 100, cfg)
		for d := workload.ItemID(0); d < 5; d++ {
			m.RecordAccess(0, d)
			m.RecordAccess(1, d+50)
		}
		m.RecordLocation(0, geo.Point{X: 0, Y: 0})
		m.RecordLocation(1, geo.Point{X: 10, Y: 0})
		return m
	}
	if len(mkCloseDissimilar(CriteriaBoth).TCG(0)) != 0 {
		t.Error("both: dissimilar pair grouped")
	}
	if len(mkCloseDissimilar(CriteriaDistanceOnly).TCG(0)) != 1 {
		t.Error("distance-only: close pair not grouped")
	}
	if len(mkCloseDissimilar(CriteriaSimilarityOnly).TCG(0)) != 0 {
		t.Error("similarity-only: dissimilar pair grouped")
	}
}

func TestGroupCriteriaString(t *testing.T) {
	if CriteriaBoth.String() != "both" ||
		CriteriaDistanceOnly.String() != "distance-only" ||
		CriteriaSimilarityOnly.String() != "similarity-only" ||
		GroupCriteria(9).String() != "unknown" {
		t.Error("criteria names wrong")
	}
}
