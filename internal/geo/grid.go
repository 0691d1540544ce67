package geo

import (
	"fmt"
	"math"
	"math/bits"
)

// GridID identifies one entry in a Grid. Callers choose the numbering; the
// wireless medium uses registration indices so that the grid's canonical
// ascending-ID output coincides with registration order.
type GridID int64

// The cell table is tableSide × tableSide buckets that wrap at their edges
// like a torus: cell (cx, cy) lives in bucket (cx mod tableSide, cy mod
// tableSide), so cells tableSide apart on an axis share a bucket. At the
// default 100 m TranRange the table covers 6.4 km × 6.4 km without
// aliasing; a wider world only puts more entries in each bucket, which
// costs distance tests, never a wrong answer.
const (
	tableBits = 6
	tableSide = 1 << tableBits
	tableMask = tableSide - 1
)

// Grid is a deterministic uniform-cell spatial index over 2-D points: every
// entry lives in the cell floor(p/cell), and AppendRange visits only the
// cells overlapping the query disc's bounding square instead of every
// entry. With cell size ≈ query radius a query touches at most a 3×3 cell
// block, turning an O(N) scan into O(k) for k hosts near the query point.
//
// Cells are kept in a fixed 64 × 64 torus of buckets (the fixed-size
// spatial hash of Teschner et al., VMV 2003), so a query indexes an array
// instead of hashing a cell key. Each bucket is an intrusive list threaded
// through the per-entry state by int32 links, so the table holds no
// pointers and never allocates after an entry is first placed. A bucket
// can hold entries of several cells 64 apart; the distance filter drops
// them.
//
// Determinism rules (see DESIGN.md "Spatial index"):
//
//   - AppendRange returns IDs in canonical ascending-GridID order,
//     independent of placement and movement history.
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
// IDs must be non-negative and below math.MaxInt32. Per-entry state is
// indexed by ID, so callers number entries densely from zero, as the medium
// does with its slots.
type Grid struct {
	cell    float64
	entries []gridEntry // indexed by GridID
	// hits has one bit per ID: a range query sets the bits of the IDs it
	// finds, then emits them ascending and zeroes the words it touched.
	hits []uint64
	// head holds, per bucket, one more than the ID at the head of its
	// list, or 0 for an empty bucket. It comes last so that the garbage
	// collector, which scans an object only up to its last pointer, never
	// reads it.
	head [tableSide * tableSide]int32
}

// gridEntry is one ID's state. An entry is filed in exactly one bucket
// while it is indexed.
type gridEntry struct {
	pos    Point
	next   int32  // one more than the next ID in the bucket's list; 0 ends it
	bucket uint16 // the table index of the bucket holding the entry
	in     bool
}

// NewGrid creates an empty index with the given cell size, normally the
// transmission range of the medium being indexed.
func NewGrid(cellSize float64) (*Grid, error) {
	if !(cellSize > 0) || math.IsInf(cellSize, 1) {
		return nil, fmt.Errorf("geo: grid cell size %v must be positive and finite", cellSize)
	}
	return &Grid{cell: cellSize}, nil
}

// contains reports whether id is indexed.
func (g *Grid) contains(id GridID) bool {
	return id >= 0 && id < GridID(len(g.entries)) && g.entries[id].in
}

// Pos returns id's stored position, or the zero Point if id is not indexed.
func (g *Grid) Pos(id GridID) (p Point) {
	if g.contains(id) {
		p = g.entries[id].pos
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

// bucket returns the table index of cell (cx, cy). The uint32 conversion
// takes negative cells to their residue mod tableSide.
func bucket(cx, cy int32) uint16 {
	return uint16(uint32(cy)&tableMask<<tableBits | uint32(cx)&tableMask)
}

// bucketFor returns the table index of the bucket holding position p.
func (g *Grid) bucketFor(p Point) uint16 {
	return bucket(g.coord(p.X, 0), g.coord(p.Y, 0))
}

// Upsert inserts id at p, or moves it there if already present: the
// medium's position-sync entry point, which cannot fail. A move that stays
// in its entry's bucket is one bucket computation and one store.
//
//hot:per-host position sync, at most once per host and timestamp
func (g *Grid) Upsert(id GridID, p Point) {
	if !g.contains(id) {
		g.place(id, p)
		return
	}
	e := &g.entries[id]
	e.pos = p
	if b := g.bucketFor(p); b != e.bucket {
		g.unlink(id, e.bucket)
		g.link(id, b)
	}
}

// place adds a known-absent id at p, growing the per-entry state and the
// hit bitmap to it, so queries never grow them.
func (g *Grid) place(id GridID, p Point) {
	for GridID(len(g.entries)) <= id {
		g.entries = append(g.entries, gridEntry{})
	}
	for GridID(len(g.hits))*64 <= id {
		g.hits = append(g.hits, 0)
	}
	g.entries[id].in = true
	g.entries[id].pos = p
	g.link(id, g.bucketFor(p))
}

// link pushes id onto the front of bucket b's list. Order within a bucket
// is therefore history-dependent, which is fine: queries emit IDs from the
// hit bitmap in ascending order, whatever order they found them in.
func (g *Grid) link(id GridID, b uint16) {
	g.entries[id].bucket = b
	g.entries[id].next = g.head[b]
	g.head[b] = int32(id) + 1
}

// unlink removes id from bucket b's list.
func (g *Grid) unlink(id GridID, b uint16) {
	at := &g.head[b]
	for *at != int32(id)+1 {
		at = &g.entries[*at-1].next
	}
	*at = g.entries[id].next
}

// AppendRange appends the IDs of all entries within distance r of p to
// dst, in canonical ascending-ID order, and returns the extended slice.
// A negative r matches the brute-force WithinRange predicate, which
// squares the radius: -r behaves as r.
//
// The query visits the buckets of its cell rectangle. A rectangle 64 or
// more cells wide on an axis (NaN bounds, e.g. p.X = +Inf with r = +Inf,
// clamp to the whole int32 cell space) visits each bucket of that axis
// once, so every query visits at most the 4,096 buckets of the table.
//
//hot:per-transmission reachability query; 0 allocs/op pinned by TestNeighborsSteadyStateAllocs
func (g *Grid) AppendRange(dst []GridID, p Point, r float64) []GridID {
	r = math.Abs(r)
	cx0, cy0 := g.coord(p.X-r, math.MinInt32), g.coord(p.Y-r, math.MinInt32)
	nx := min(int64(g.coord(p.X+r, math.MaxInt32))-int64(cx0)+1, tableSide)
	ny := min(int64(g.coord(p.Y+r, math.MaxInt32))-int64(cy0)+1, tableSide)
	lo, hi := len(g.hits), -1 // the hit words this query touched
	// cx0+i and cy0+j wrap past MaxInt32 at the top of the cell space;
	// 2³² is a multiple of tableSide, so they still name the right bucket.
	for j := range int32(ny) {
		for i := range int32(nx) {
			for at := g.head[bucket(cx0+i, cy0+j)]; at != 0; {
				id, e := at-1, &g.entries[at-1]
				if WithinRange(p, e.pos, r) {
					g.hits[id/64] |= 1 << (id % 64)
					lo, hi = min(lo, int(id/64)), max(hi, int(id/64))
				}
				at = e.next
			}
		}
	}
	for wi := lo; wi <= hi; wi++ {
		w := g.hits[wi]
		g.hits[wi] = 0
		for ; w != 0; w &= w - 1 {
			dst = append(dst, GridID(wi*64+bits.TrailingZeros64(w)))
		}
	}
	return dst
}
