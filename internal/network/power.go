package network

// LinearCost is one row of the paper's Table I: energy = v·bytes + f, with v
// in µW·s/byte and f in µW·s.
type LinearCost struct {
	V float64 // variable cost per byte, µW·s/byte
	F float64 // fixed per-message setup cost, µW·s
}

// Energy returns the energy in µW·s (µJ) to handle a message of the given
// size in the role this cost describes.
func (c LinearCost) Energy(bytes int) float64 {
	if bytes < 0 {
		bytes = 0
	}
	return c.V*float64(bytes) + c.F
}

// PowerModel holds the Table I measurement rows for P2P point-to-point and
// broadcast communication, plus the costs of talking to the MSS over the
// dedicated infrastructure NIC.
type PowerModel struct {
	// Point-to-point roles.
	Send        LinearCost // source MH
	Recv        LinearCost // destination MH
	DiscardBoth LinearCost // in range of both source and destination
	DiscardSrc  LinearCost // in range of source only
	DiscardDst  LinearCost // in range of destination only
	// Broadcast roles.
	BSend LinearCost // broadcast source
	BRecv LinearCost // any MH in range of the source
	// Infrastructure NIC roles (client side of the MSS channels).
	ServerSend LinearCost
	ServerRecv LinearCost
}

// Power is the paper's Table I: the Feeney–Nilsson linear coefficients
// (in-range discard rows approximate the partially illegible source table;
// see DESIGN.md). No figure varies it, so every medium, server link and
// broadcast disk charges from this one read-only table.
var Power = PowerModel{
	Send:        LinearCost{V: 1.9, F: 454},
	Recv:        LinearCost{V: 0.5, F: 356},
	DiscardBoth: LinearCost{V: 0.07, F: 70},
	DiscardSrc:  LinearCost{V: 0.02, F: 24},
	DiscardDst:  LinearCost{V: 0.05, F: 56},
	BSend:       LinearCost{V: 1.9, F: 266},
	BRecv:       LinearCost{V: 0.5, F: 56},
	ServerSend:  LinearCost{V: 1.9, F: 454},
	ServerRecv:  LinearCost{V: 0.5, F: 356},
}

// EnergyCategory labels what a node spent energy on, for the per-GCH power
// breakdowns.
type EnergyCategory int

// Energy accounting categories.
const (
	EnergyP2PSend EnergyCategory = iota + 1
	EnergyP2PRecv
	EnergyP2PDiscard
	EnergyBroadcastSend
	EnergyBroadcastRecv
	EnergyServerSend
	EnergyServerRecv
	numEnergyCategories
)

// Meter accumulates per-node and per-category energy in µW·s. The grand
// total is a running sum in charge order, which keeps it exactly
// reproducible across runs.
type Meter struct {
	// perNode is indexed by NodeID and grows to the largest ID charged.
	perNode    []float64
	byCategory [numEnergyCategories]float64
	total      float64
}

// NewMeter returns an empty meter.
func NewMeter() *Meter { return &Meter{} }

// Charge adds energy to node's account under the given category. node must
// not be negative; Medium.Register refuses negative IDs.
func (m *Meter) Charge(node NodeID, cat EnergyCategory, energy float64) {
	if energy <= 0 {
		return
	}
	if n := int(node) + 1; n > len(m.perNode) {
		m.perNode = append(m.perNode, make([]float64, n-len(m.perNode))...)
	}
	m.perNode[node] += energy
	m.total += energy
	if cat > 0 && cat < numEnergyCategories {
		m.byCategory[cat] += energy
	}
}

// Total returns the energy consumed across all nodes, µW·s.
func (m *Meter) Total() float64 { return m.total }

// Node returns the energy consumed by one node, µW·s.
func (m *Meter) Node(id NodeID) float64 {
	if id < 0 || int(id) >= len(m.perNode) {
		return 0
	}
	return m.perNode[id]
}

// Accounts returns the energy of every node charged since the last Reset,
// µW·s, in ascending ID order. A charged account is never zero: Charge
// adds only positive energy.
func (m *Meter) Accounts() []float64 {
	out := make([]float64, 0, len(m.perNode))
	for _, e := range m.perNode {
		if e != 0 {
			out = append(out, e)
		}
	}
	return out
}

// Category returns the energy consumed under one category, µW·s.
func (m *Meter) Category(cat EnergyCategory) float64 {
	if cat <= 0 || cat >= numEnergyCategories {
		return 0
	}
	return m.byCategory[cat]
}

// categoryNames labels the accounting categories for reports.
var categoryNames = map[EnergyCategory]string{
	EnergyP2PSend:       "p2p-send",
	EnergyP2PRecv:       "p2p-recv",
	EnergyP2PDiscard:    "p2p-discard",
	EnergyBroadcastSend: "bcast-send",
	EnergyBroadcastRecv: "bcast-recv",
	EnergyServerSend:    "server-send",
	EnergyServerRecv:    "server-recv",
}

// String names the category.
func (c EnergyCategory) String() string {
	if s, ok := categoryNames[c]; ok {
		return s
	}
	return "unknown"
}

// Breakdown returns the per-category energy in µW·s, keyed by category
// name. Zero categories are omitted.
func (m *Meter) Breakdown() map[string]float64 {
	out := make(map[string]float64, int(numEnergyCategories))
	for cat := EnergyCategory(1); cat < numEnergyCategories; cat++ {
		if e := m.byCategory[cat]; e > 0 {
			out[cat.String()] = e
		}
	}
	return out
}

// Reset zeroes all accounts; the simulation calls this at the end of the
// warm-up period.
func (m *Meter) Reset() {
	clear(m.perNode)
	m.byCategory = [numEnergyCategories]float64{}
	m.total = 0
}
