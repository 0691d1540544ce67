package geo

import (
	"fmt"
	"math"
	"slices"
)

// GridID identifies one entry in a Grid. Callers choose the numbering; the
// wireless medium uses registration indices so that the grid's canonical
// ascending-ID output coincides with registration order.
type GridID int64

// gridKey packs a cell's integer coordinates into one map key.
type gridKey uint64

func makeKey(cx, cy int32) gridKey {
	return gridKey(uint64(uint32(cx))<<32 | uint64(uint32(cy)))
}

func unpackKey(k gridKey) (cx, cy int32) {
	return int32(uint32(k >> 32)), int32(uint32(k))
}

// Grid is a deterministic uniform-cell spatial index over 2-D points: every
// entry lives in the cell floor(p/cell), and QueryRange visits only the
// cells overlapping the query disc's bounding square instead of every
// entry. With cell size ≈ query radius a query touches at most a 3×3 cell
// block, turning an O(N) scan into O(k) for k hosts near the query point.
//
// Determinism rules (see DESIGN.md "Spatial index"):
//
//   - QueryRange/AppendRange return IDs in canonical ascending-GridID
//     order, independent of insertion, movement, or removal history and of
//     Go's randomized map iteration.
//   - The candidate filter is the exact geo.WithinRange predicate on the
//     stored positions — bit-identical to the brute-force pairwise scan it
//     replaces, including the boundary case Dist(p, q) == r.
//   - The grid is derived state: owners rebuild it from authoritative
//     positions and never serialize it.
//
// Positions may be any float64 values, including negatives, infinities and
// NaN; NaN coordinates land in cell 0 and (exactly like the brute-force
// scan) never satisfy WithinRange.
//
// IDs must be non-negative. Per-entry state is indexed by ID, so callers
// number entries densely from zero, as the medium does with its slots.
type Grid struct {
	cell  float64
	cells map[gridKey][]GridID // cells hold IDs only
	// Per-entry state, indexed by GridID.
	in    []bool
	where []gridKey
	pos   []Point
	n     int

	// Bounding box of occupied cells, grown on insert/move and never
	// shrunk. It only clamps query rectangles — an over-wide query
	// (r much larger than the populated world) costs time on empty cell
	// lookups, never correctness — so staleness after Remove is fine.
	hasBounds    bool
	minCx, maxCx int32
	minCy, maxCy int32
	sparse       []GridID // scratch for the sparse-world fallback
}

// NewGrid creates an empty index with the given cell size, normally the
// transmission range of the medium being indexed.
func NewGrid(cellSize float64) (*Grid, error) {
	if !(cellSize > 0) || math.IsInf(cellSize, 1) {
		return nil, fmt.Errorf("geo: grid cell size %v must be positive and finite", cellSize)
	}
	return &Grid{cell: cellSize, cells: make(map[gridKey][]GridID)}, nil
}

// CellSize returns the configured cell edge length.
func (g *Grid) CellSize() float64 { return g.cell }

// Len returns the number of indexed entries.
func (g *Grid) Len() int { return g.n }

// Contains reports whether id is indexed.
func (g *Grid) Contains(id GridID) bool {
	return id >= 0 && id < GridID(len(g.in)) && g.in[id]
}

// Pos returns id's stored position, or the zero Point if id is not indexed.
func (g *Grid) Pos(id GridID) (p Point) {
	if g.Contains(id) {
		p = g.pos[id]
	}
	return p
}

// coord maps a coordinate to its cell index, clamping to the int32 cell
// space; NaN falls back to the given cell.
func (g *Grid) coord(v float64, nanTo int32) int32 {
	f := math.Floor(v / g.cell)
	switch {
	case math.IsNaN(f):
		return nanTo
	case f <= math.MinInt32:
		return math.MinInt32
	case f >= math.MaxInt32:
		return math.MaxInt32
	}
	return int32(f)
}

// keyFor returns the cell key holding position p.
func (g *Grid) keyFor(p Point) gridKey {
	return makeKey(g.coord(p.X, 0), g.coord(p.Y, 0))
}

// growBounds widens the occupied-cell bounding box to include key.
func (g *Grid) growBounds(key gridKey) {
	cx, cy := unpackKey(key)
	if !g.hasBounds {
		g.hasBounds = true
		g.minCx, g.maxCx, g.minCy, g.maxCy = cx, cx, cy, cy
		return
	}
	g.minCx, g.maxCx = min(g.minCx, cx), max(g.maxCx, cx)
	g.minCy, g.maxCy = min(g.minCy, cy), max(g.maxCy, cy)
}

// Insert adds a new entry. Inserting a negative ID, or one that is already
// present, is an error (use Move or Upsert to relocate).
func (g *Grid) Insert(id GridID, p Point) error {
	if id < 0 || g.Contains(id) {
		return fmt.Errorf("geo: grid insert of negative or duplicate id %d", id)
	}
	g.place(id, p)
	return nil
}

// Move relocates an existing entry to p. Moving an unknown ID is an error.
func (g *Grid) Move(id GridID, p Point) error {
	if !g.Contains(id) {
		return fmt.Errorf("geo: grid move of unknown id %d", id)
	}
	g.Upsert(id, p)
	return nil
}

// Upsert inserts id at p, or moves it there if already present: the
// medium's position-sync entry point, which cannot fail. id must be
// non-negative. A move within the entry's cell is one key computation and
// one store.
//
//hot:per-host position sync, at most once per host and timestamp
func (g *Grid) Upsert(id GridID, p Point) {
	if !g.Contains(id) {
		g.place(id, p)
		return
	}
	g.pos[id] = p
	if key := g.keyFor(p); key != g.where[id] {
		g.removeFromCell(id, g.where[id])
		g.link(id, key)
	}
}

// place adds a known-absent id at p, growing the per-entry slices to it.
func (g *Grid) place(id GridID, p Point) {
	for GridID(len(g.in)) <= id {
		g.in, g.where, g.pos = append(g.in, false), append(g.where, 0), append(g.pos, Point{})
	}
	g.in[id] = true
	g.pos[id] = p
	g.n++
	g.link(id, g.keyFor(p))
}

// link files id under the cell key.
func (g *Grid) link(id GridID, key gridKey) {
	g.where[id] = key
	g.cells[key] = append(g.cells[key], id)
	g.growBounds(key)
}

// Remove deletes an entry, reporting whether it was present.
func (g *Grid) Remove(id GridID) bool {
	if !g.Contains(id) {
		return false
	}
	g.removeFromCell(id, g.where[id])
	g.in[id] = false
	g.n--
	return true
}

// removeFromCell swap-deletes id from its cell slice. Intra-cell order is
// therefore history-dependent, which is fine: query output is sorted.
func (g *Grid) removeFromCell(id GridID, key gridKey) {
	ids := g.cells[key]
	i := slices.Index(ids, id)
	ids[i] = ids[len(ids)-1]
	if ids = ids[:len(ids)-1]; len(ids) == 0 {
		delete(g.cells, key)
	} else {
		g.cells[key] = ids
	}
}

// QueryRange returns the IDs of all entries within Euclidean distance r of
// p (boundary inclusive, exactly WithinRange), in canonical ascending-ID
// order. The slice is freshly allocated; use AppendRange to reuse one.
func (g *Grid) QueryRange(p Point, r float64) []GridID {
	return g.AppendRange(nil, p, r)
}

// AppendRange appends the IDs of all entries within distance r of p to
// dst, in canonical ascending-ID order, and returns the extended slice.
// A negative r matches the brute-force WithinRange predicate, which
// squares the radius: -r behaves as r.
//
//hot:per-transmission reachability query; 0 allocs/op pinned by TestNeighborsSteadyStateAllocs
func (g *Grid) AppendRange(dst []GridID, p Point, r float64) []GridID {
	if g.n == 0 {
		return dst
	}
	r = math.Abs(r)
	start := len(dst)
	// Clamp the query's cell rectangle to occupied cells; NaN bounds
	// (e.g. p.X = +Inf with r = +Inf) widen to the full occupied box.
	cx0 := max(g.coord(p.X-r, math.MinInt32), g.minCx)
	cx1 := min(g.coord(p.X+r, math.MaxInt32), g.maxCx)
	cy0 := max(g.coord(p.Y-r, math.MinInt32), g.minCy)
	cy1 := min(g.coord(p.Y+r, math.MaxInt32), g.maxCy)
	if cx0 > cx1 || cy0 > cy1 {
		return dst
	}
	nx, ny := int64(cx1)-int64(cx0)+1, int64(cy1)-int64(cy0)+1
	if nx*ny <= 4*int64(len(g.cells))+16 {
		// Dense path: walk the cell rectangle in deterministic row-major
		// order. With cell ≈ r this is the 3×3 block around p.
		for cy := cy0; ; cy++ {
			for cx := cx0; ; cx++ {
				for _, id := range g.cells[makeKey(cx, cy)] {
					if WithinRange(p, g.pos[id], r) {
						dst = append(dst, id)
					}
				}
				if cx == cx1 {
					break
				}
			}
			if cy == cy1 {
				break
			}
		}
	} else {
		// Sparse-world fallback (huge radius over few, scattered cells):
		// visiting the rectangle would dwarf visiting every occupied
		// cell, so scan the cells map instead. Candidates are collected
		// and sorted immediately, making the map's randomized iteration
		// order unobservable.
		found := g.sparse[:0]
		for key, ids := range g.cells {
			cx, cy := unpackKey(key)
			if cx < cx0 || cx > cx1 || cy < cy0 || cy > cy1 {
				continue
			}
			for _, id := range ids {
				if WithinRange(p, g.pos[id], r) {
					found = append(found, id)
				}
			}
		}
		slices.Sort(found)
		g.sparse = found[:0]
		dst = append(dst, found...)
	}
	tail := dst[start:]
	slices.Sort(tail)
	return dst
}
