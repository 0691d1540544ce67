package server

import (
	"fmt"
	"math"

	"repro/internal/geo"
	"repro/internal/network"
	"repro/internal/stats"
	"repro/internal/workload"
)

// GroupCriteria selects which vicinity conditions form a group — the
// paper's TCG requires both; the single-criterion modes reproduce the
// related-work clustering families (mobility-based clustering uses distance
// only; interest-based grouping uses access similarity only) as baselines
// for the paper's claim that both are needed.
type GroupCriteria int

// Grouping criteria. The zero value is the paper's TCG definition.
const (
	CriteriaBoth GroupCriteria = iota
	CriteriaDistanceOnly
	CriteriaSimilarityOnly
)

// String names the criteria.
func (c GroupCriteria) String() string {
	switch c {
	case CriteriaBoth:
		return "both"
	case CriteriaDistanceOnly:
		return "distance-only"
	case CriteriaSimilarityOnly:
		return "similarity-only"
	default:
		return "unknown"
	}
}

// TCGConfig holds the tightly-coupled group discovery thresholds.
type TCGConfig struct {
	// DistanceThreshold is Δ: pairs whose EWMA weighted average distance is
	// at most Δ metres share a common mobility pattern.
	DistanceThreshold float64
	// SimilarityThreshold is δ: pairs whose access-vector cosine similarity
	// is at least δ share a common access pattern.
	SimilarityThreshold float64
	// DistanceWeight is ω, the EWMA weight on the most recent distance.
	DistanceWeight float64
	// Criteria selects which conditions must hold for membership; the
	// default requires both (the paper's TCG).
	Criteria GroupCriteria
}

// Validate reports whether the thresholds are usable.
func (c TCGConfig) Validate() error {
	if !(c.DistanceThreshold > 0) {
		return fmt.Errorf("server: distance threshold %v must be positive", c.DistanceThreshold)
	}
	if !(c.SimilarityThreshold >= 0 && c.SimilarityThreshold <= 1) {
		return fmt.Errorf("server: similarity threshold %v outside [0, 1]", c.SimilarityThreshold)
	}
	if !(c.DistanceWeight >= 0 && c.DistanceWeight <= 1) {
		return fmt.Errorf("server: distance weight %v outside [0, 1]", c.DistanceWeight)
	}
	if c.Criteria < CriteriaBoth || c.Criteria > CriteriaSimilarityOnly {
		return fmt.Errorf("server: unknown group criteria %d", int(c.Criteria))
	}
	return nil
}

// MembershipChange is one pending TCG view change for a client, delivered
// asynchronously on its next contact with the MSS.
type MembershipChange struct {
	Peer   network.NodeID
	Joined bool
}

// TCGManager maintains the weighted average distance matrix (WADM), the
// access similarity matrix (ASM), and the TCG membership sets, implementing
// Algorithms 1 (LocationUpdate), 2 (ReceiveRequest) and 3
// (CheckTCGMembership). Client NodeIDs must be dense in [0, numClients).
//
// Cosine similarities are maintained incrementally: the manager tracks each
// pair's dot product and each client's squared norm, so folding in one
// access costs O(numClients) instead of O(NData).
type TCGManager struct {
	cfg        TCGConfig
	numClients int
	nData      int
	// counts[d*numClients+i] is A_i(d): item-major, so one access reads
	// its item's counts for every client from one contiguous row.
	counts []uint32
	// norms[i] = Σ_d A_i(d)².
	norms []float64
	// dots and wadm are upper-triangular pair matrices indexed by pairIndex.
	dots []float64
	wadm []stats.EWMA
	// lastLoc is each client's last piggybacked location.
	lastLoc  []geo.Point
	locKnown []bool
	// member[pairIndex] reports whether the pair is currently a TCG pair.
	member []bool
	// pending holds undelivered membership changes per client.
	pending [][]MembershipChange
}

// NewTCGManager creates a manager for numClients clients over nData items.
func NewTCGManager(numClients, nData int, cfg TCGConfig) (*TCGManager, error) {
	if numClients <= 0 {
		return nil, fmt.Errorf("server: client count %d must be positive", numClients)
	}
	if nData <= 0 {
		return nil, fmt.Errorf("server: data count %d must be positive", nData)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pairs := numClients * (numClients - 1) / 2
	m := &TCGManager{
		cfg:        cfg,
		numClients: numClients,
		nData:      nData,
		counts:     make([]uint32, nData*numClients),
		norms:      make([]float64, numClients),
		dots:       make([]float64, pairs),
		wadm:       make([]stats.EWMA, pairs),
		lastLoc:    make([]geo.Point, numClients),
		locKnown:   make([]bool, numClients),
		member:     make([]bool, pairs),
		pending:    make([][]MembershipChange, numClients),
	}
	for p := range m.wadm {
		m.wadm[p] = stats.NewEWMA(cfg.DistanceWeight)
	}
	return m, nil
}

// pairIndex maps an unordered client pair to its triangular index.
func (m *TCGManager) pairIndex(i, j int) int {
	if i > j {
		i, j = j, i
	}
	// Index of (i, j), i < j, in row-major upper triangle.
	return i*m.numClients - i*(i+1)/2 + (j - i - 1)
}

func (m *TCGManager) validClient(i network.NodeID) bool {
	return i >= 0 && int(i) < m.numClients
}

// RecordLocation implements Algorithm 1: fold the piggybacked location of
// client i into the WADM rows against every other client with a known
// location, then re-check TCG membership for each affected pair.
func (m *TCGManager) RecordLocation(i network.NodeID, loc geo.Point) {
	if !m.validClient(i) {
		return
	}
	ii := int(i)
	m.lastLoc[ii] = loc
	m.locKnown[ii] = true
	for j := 0; j < m.numClients; j++ {
		if j == ii || !m.locKnown[j] {
			continue
		}
		p := m.pairIndex(ii, j)
		m.wadm[p].Observe(geo.Dist(loc, m.lastLoc[j]))
		m.checkMembership(ii, j)
	}
}

// RecordAccess implements Algorithm 2: fold one data access by client i
// into the access similarity state and re-check membership against every
// other client.
func (m *TCGManager) RecordAccess(i network.NodeID, item workload.ItemID) {
	if !m.validClient(i) || item < 0 || int(item) >= m.nData {
		return
	}
	ii := int(i)
	row := m.counts[int(item)*m.numClients:][:m.numClients]
	old := row[ii]
	// Dot products against every peer gain A_j(item) from the +1 on
	// A_i(item).
	for j, aj := range row {
		if j != ii && aj > 0 {
			m.dots[m.pairIndex(ii, j)] += float64(aj)
		}
	}
	row[ii] = old + 1
	m.norms[ii] += float64(2*old + 1)
	for j := 0; j < m.numClients; j++ {
		if j != ii {
			m.checkMembership(ii, j)
		}
	}
}

// Similarity returns sim(m_i, m_j) per Equation 2, or zero when either
// client has no recorded accesses.
func (m *TCGManager) Similarity(i, j network.NodeID) float64 {
	if !m.validClient(i) || !m.validClient(j) || i == j {
		return 0
	}
	return m.similarity(int(i), int(j), m.pairIndex(int(i), int(j)))
}

// similarity is Similarity for the valid pair (i, j) at pair index p.
func (m *TCGManager) similarity(i, j, p int) float64 {
	ni, nj := m.norms[i], m.norms[j]
	if ni == 0 || nj == 0 {
		return 0
	}
	return m.dots[p] / math.Sqrt(ni*nj)
}

// WeightedDistance returns the pair's EWMA weighted average distance and
// whether any distance has been observed yet.
func (m *TCGManager) WeightedDistance(i, j network.NodeID) (float64, bool) {
	if !m.validClient(i) || !m.validClient(j) || i == j {
		return 0, false
	}
	e := m.wadm[m.pairIndex(int(i), int(j))]
	return e.Value(), e.Set()
}

// checkMembership implements Algorithm 3 for the pair (i, j), under the
// configured grouping criteria. The similarity, a square root and a
// division, is computed only when the criteria need it: under both, only
// for a pair that passes the distance test.
func (m *TCGManager) checkMembership(i, j int) {
	p := m.pairIndex(i, j)
	var inGroup bool
	switch dist := m.wadm[p]; m.cfg.Criteria {
	case CriteriaDistanceOnly:
		inGroup = dist.Set() && dist.Value() <= m.cfg.DistanceThreshold
	case CriteriaSimilarityOnly:
		inGroup = m.similarity(i, j, p) >= m.cfg.SimilarityThreshold
	default:
		inGroup = dist.Set() && dist.Value() <= m.cfg.DistanceThreshold &&
			m.similarity(i, j, p) >= m.cfg.SimilarityThreshold
	}
	if inGroup == m.member[p] {
		return
	}
	m.member[p] = inGroup
	m.pending[i] = append(m.pending[i], MembershipChange{Peer: network.NodeID(j), Joined: inGroup})
	m.pending[j] = append(m.pending[j], MembershipChange{Peer: network.NodeID(i), Joined: inGroup})
}

// TCG returns the current tightly-coupled group of client i, sorted by ID.
func (m *TCGManager) TCG(i network.NodeID) []network.NodeID {
	if !m.validClient(i) {
		return nil
	}
	var out []network.NodeID
	for j := 0; j < m.numClients; j++ {
		if j == int(i) {
			continue
		}
		if m.member[m.pairIndex(int(i), j)] {
			out = append(out, network.NodeID(j))
		}
	}
	return out
}

// DrainChanges returns and clears the undelivered membership changes for
// client i — the asynchronous group view change the MSS piggybacks on its
// next reply to i.
func (m *TCGManager) DrainChanges(i network.NodeID) []MembershipChange {
	if !m.validClient(i) {
		return nil
	}
	out := m.pending[i]
	m.pending[i] = nil
	return out
}

// PendingCount reports how many changes are queued for client i, mainly for
// tests.
func (m *TCGManager) PendingCount(i network.NodeID) int {
	if !m.validClient(i) {
		return 0
	}
	return len(m.pending[i])
}
