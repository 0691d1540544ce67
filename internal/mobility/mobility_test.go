package mobility

import (
	"math"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/sim"
)

func testConfig() Config {
	return Config{
		Space:    geo.NewRect(1000, 1000),
		MinSpeed: 1,
		MaxSpeed: 5,
		Pause:    time.Second,
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantErr bool
	}{
		{"valid", func(*Config) {}, false},
		{"zero-width space", func(c *Config) { c.Space = geo.NewRect(0, 10) }, true},
		{"NaN-width space", func(c *Config) { c.Space.MaxX = math.NaN() }, true},
		{"zero max speed", func(c *Config) { c.MaxSpeed = 0 }, true},
		{"negative min speed", func(c *Config) { c.MinSpeed = -1 }, true},
		{"min above max", func(c *Config) { c.MinSpeed = 10 }, true},
		{"negative pause", func(c *Config) { c.Pause = -time.Second }, true},
		{"zero pause ok", func(c *Config) { c.Pause = 0 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := testConfig()
			tt.mutate(&cfg)
			err := cfg.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestWaypointStaysInSpace(t *testing.T) {
	cfg := testConfig()
	w, err := NewWaypoint(cfg, sim.NewRNG(1).Stream("wp"))
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti <= 3600; ti++ {
		p := w.Position(time.Duration(ti) * time.Second)
		if !cfg.Space.Contains(p) {
			t.Fatalf("position %v at t=%ds outside space", p, ti)
		}
	}
}

func TestWaypointSpeedBounded(t *testing.T) {
	cfg := testConfig()
	cfg.Pause = 0
	w, err := NewWaypoint(cfg, sim.NewRNG(2).Stream("wp"))
	if err != nil {
		t.Fatal(err)
	}
	prev := w.Position(0)
	const dt = 100 * time.Millisecond
	for ti := dt; ti < 10*time.Minute; ti += dt {
		cur := w.Position(ti)
		speed := geo.Dist(prev, cur) / dt.Seconds()
		// Allow tiny numerical slack at segment boundaries.
		if speed > cfg.MaxSpeed*1.05 {
			t.Fatalf("instantaneous speed %.2f m/s exceeds max %v at t=%v", speed, cfg.MaxSpeed, ti)
		}
		prev = cur
	}
}

func TestWaypointActuallyMoves(t *testing.T) {
	w, err := NewWaypoint(testConfig(), sim.NewRNG(3).Stream("wp"))
	if err != nil {
		t.Fatal(err)
	}
	start := w.Position(0)
	moved := false
	for ti := time.Second; ti < 5*time.Minute; ti += time.Second {
		if geo.Dist(start, w.Position(ti)) > 10 {
			moved = true
			break
		}
	}
	if !moved {
		t.Error("node never moved more than 10 m in 5 minutes")
	}
}

func TestWaypointPausesAtWaypoints(t *testing.T) {
	cfg := testConfig()
	cfg.Pause = 10 * time.Second
	w, err := NewWaypoint(cfg, sim.NewRNG(4).Stream("wp"))
	if err != nil {
		t.Fatal(err)
	}
	// Sample densely and look for an interval of length >= pause where the
	// position does not change.
	const dt = 250 * time.Millisecond
	var still time.Duration
	prev := w.Position(0)
	sawPause := false
	for ti := dt; ti < 30*time.Minute; ti += dt {
		cur := w.Position(ti)
		if geo.Dist(prev, cur) < 1e-9 {
			still += dt
			if still >= cfg.Pause-2*dt {
				sawPause = true
				break
			}
		} else {
			still = 0
		}
		prev = cur
	}
	if !sawPause {
		t.Error("never observed a pause interval")
	}
}

func TestWaypointDeterminism(t *testing.T) {
	mk := func() *Waypoint {
		w, err := NewWaypoint(testConfig(), sim.NewRNG(42).Stream("wp"))
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	a, b := mk(), mk()
	for ti := 0; ti < 600; ti++ {
		t1 := time.Duration(ti) * time.Second
		if a.Position(t1) != b.Position(t1) {
			t.Fatalf("trajectories diverged at t=%v", t1)
		}
	}
}

func TestGroupMembersStayNearReference(t *testing.T) {
	cfg := testConfig()
	const radius = 50.0
	g, err := NewGroup(cfg, radius, sim.NewRNG(5).Stream("grp"))
	if err != nil {
		t.Fatal(err)
	}
	members := make([]*Member, 5)
	for i := range members {
		members[i] = g.NewMember()
	}
	for ti := 0; ti < 1800; ti++ {
		t1 := time.Duration(ti) * time.Second
		ref := g.Reference().Position(t1)
		for i, m := range members {
			p := m.Position(t1)
			// Clamping at the boundary can only pull members toward the
			// space, never push beyond radius of the (in-space) reference,
			// but the reference itself is in-space so distance <= radius
			// plus tiny numerical slack.
			if geo.Dist(ref, p) > radius+1e-6 {
				t.Fatalf("member %d at %v is %.1f m from reference (radius %v)", i, t1, geo.Dist(ref, p), radius)
			}
			if !cfg.Space.Contains(p) {
				t.Fatalf("member %d left the space at %v", i, t1)
			}
		}
	}
}

func TestGroupMembersAreDistinct(t *testing.T) {
	g, err := NewGroup(testConfig(), 50, sim.NewRNG(6).Stream("grp"))
	if err != nil {
		t.Fatal(err)
	}
	a, b := g.NewMember(), g.NewMember()
	distinct := false
	for ti := 0; ti < 60; ti++ {
		t1 := time.Duration(ti) * time.Second
		if geo.Dist(a.Position(t1), b.Position(t1)) > 1 {
			distinct = true
			break
		}
	}
	if !distinct {
		t.Error("two members were never more than 1 m apart")
	}
}

func TestGroupZeroRadiusTracksReference(t *testing.T) {
	g, err := NewGroup(testConfig(), 0, sim.NewRNG(7).Stream("grp"))
	if err != nil {
		t.Fatal(err)
	}
	m := g.NewMember()
	for ti := 0; ti < 300; ti++ {
		t1 := time.Duration(ti) * time.Second
		if geo.Dist(m.Position(t1), g.Reference().Position(t1)) > 1e-9 {
			t.Fatalf("zero-radius member strayed from reference at %v", t1)
		}
	}
}

func TestGroupRejectsNegativeRadius(t *testing.T) {
	if _, err := NewGroup(testConfig(), -1, sim.NewRNG(8)); err == nil {
		t.Error("NewGroup accepted negative radius")
	}
}

func TestFixedNode(t *testing.T) {
	f := Fixed{At: geo.Point{X: 3, Y: 4}}
	if f.Position(0) != f.Position(time.Hour) {
		t.Error("Fixed node moved")
	}
	if f.Position(time.Minute) != (geo.Point{X: 3, Y: 4}) {
		t.Error("Fixed node at wrong location")
	}
}

func TestGroupMemberOffsetsDriftSmoothly(t *testing.T) {
	// A member's offset must not jump discontinuously within a segment:
	// successive positions sampled 100 ms apart should move at most
	// (node speed + offset drift) * dt, far below a teleport.
	g, err := NewGroup(testConfig(), 100, sim.NewRNG(9).Stream("grp"))
	if err != nil {
		t.Fatal(err)
	}
	m := g.NewMember()
	prev := m.Position(0)
	const dt = 100 * time.Millisecond
	for ti := dt; ti < 10*time.Minute; ti += dt {
		cur := m.Position(ti)
		if geo.Dist(prev, cur) > 20 {
			t.Fatalf("member teleported %.1f m in %v at t=%v", geo.Dist(prev, cur), dt, ti)
		}
		prev = cur
	}
}

func TestManhattanStaysOnGridAndInSpace(t *testing.T) {
	cfg := testConfig()
	m, err := NewManhattan(cfg, 100, sim.NewRNG(11).Stream("mh"))
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti <= 3600; ti++ {
		p := m.Position(time.Duration(ti) * time.Second)
		if !cfg.Space.Contains(p) {
			t.Fatalf("position %v outside space at t=%ds", p, ti)
		}
		if !m.OnGrid(p, 1e-6) {
			t.Fatalf("position %v off the grid at t=%ds", p, ti)
		}
	}
}

func TestManhattanMovesAndTurns(t *testing.T) {
	cfg := testConfig()
	m, err := NewManhattan(cfg, 100, sim.NewRNG(12).Stream("mh"))
	if err != nil {
		t.Fatal(err)
	}
	start := m.Position(0)
	movedX, movedY := false, false
	prev := start
	for ti := time.Second; ti < 20*time.Minute; ti += time.Second {
		cur := m.Position(ti)
		if cur.X != prev.X {
			movedX = true
		}
		if cur.Y != prev.Y {
			movedY = true
		}
		prev = cur
	}
	if !movedX || !movedY {
		t.Errorf("node never used both grid directions (x=%v, y=%v)", movedX, movedY)
	}
}

func TestManhattanValidation(t *testing.T) {
	cfg := testConfig()
	if _, err := NewManhattan(cfg, 0, sim.NewRNG(1)); err == nil {
		t.Error("zero spacing accepted")
	}
	if _, err := NewManhattan(cfg, 5000, sim.NewRNG(1)); err == nil {
		t.Error("spacing beyond space accepted")
	}
	bad := cfg
	bad.MaxSpeed = 0
	if _, err := NewManhattan(bad, 100, sim.NewRNG(1)); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestManhattanDeterminism(t *testing.T) {
	mk := func() *Manhattan {
		m, err := NewManhattan(testConfig(), 100, sim.NewRNG(42).Stream("mh"))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := mk(), mk()
	for ti := 0; ti < 600; ti++ {
		t1 := time.Duration(ti) * time.Second
		if a.Position(t1) != b.Position(t1) {
			t.Fatalf("trajectories diverged at %v", t1)
		}
	}
}

func TestManhattanGroupMembersFollowReference(t *testing.T) {
	cfg := testConfig()
	const radius = 40.0
	g, err := NewManhattanGroup(cfg, 100, radius, sim.NewRNG(13).Stream("mg"))
	if err != nil {
		t.Fatal(err)
	}
	m1, m2 := g.NewMember(), g.NewMember()
	for ti := 0; ti < 900; ti++ {
		t1 := time.Duration(ti) * time.Second
		ref := g.Reference().Position(t1)
		for _, m := range []*Member{m1, m2} {
			p := m.Position(t1)
			if geo.Dist(ref, p) > radius+1e-6 {
				t.Fatalf("member %.1f m from reference at %v (radius %v)", geo.Dist(ref, p), t1, radius)
			}
			if !cfg.Space.Contains(p) {
				t.Fatalf("member left space at %v", t1)
			}
		}
	}
}
