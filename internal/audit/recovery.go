package audit

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/network"
)

// The recovery-SLO tracker: after each fault episode (a scheduled MSS
// outage window or a host crash), it measures how long the fleet-wide
// access latency and hit ratio take to return to a tolerance band around
// the pre-fault baseline.
const (
	// recoveryWindow is the number of most recent request completions the
	// rolling latency/hit-ratio estimate averages over.
	recoveryWindow = 50
	// recoveryLatencyFactor is the recovery band for latency: recovered
	// means the rolling mean latency is at most this multiple of the
	// pre-fault baseline.
	recoveryLatencyFactor = 3
	// recoveryHitRatioSlack is the recovery band for the hit ratio:
	// recovered means the rolling hit ratio is at least baseline − slack.
	recoveryHitRatioSlack = 0.2
)

// RecoveryStats summarises the episodes of one fault cause.
type RecoveryStats struct {
	// Cause is the fault cause ("outage" or "crash").
	Cause string
	// Episodes counts degradation episodes: a fault arriving while a
	// previous one of the same cause is still unrecovered extends the
	// running episode instead of opening a new one.
	Episodes int
	// Recovered counts episodes whose rolling latency and hit ratio
	// returned to the tolerance band before the run ended.
	Recovered int
	// TotalRecovery and MaxRecovery aggregate the recovered episodes'
	// time-to-recover.
	TotalRecovery time.Duration
	MaxRecovery   time.Duration
	// Unrecovered counts episodes that demonstrably failed the SLO — the
	// degradation outlasted Config.MaxRecovery while the run was
	// still producing observations.
	Unrecovered int
	// Censored counts episodes still open when the run ended: the run
	// finished before recovery could be observed, so they are neither
	// recovered nor failed. Lumping them into Unrecovered would overstate
	// SLO misses on short runs.
	Censored int
}

// MeanRecovery returns the mean time-to-recover of recovered episodes.
func (s RecoveryStats) MeanRecovery() time.Duration {
	if s.Recovered == 0 {
		return 0
	}
	return s.TotalRecovery / time.Duration(s.Recovered)
}

// recoveryTracker implements the SLO measurement. All observations arrive
// in kernel order, so the tracker is deterministic by construction.
type recoveryTracker struct {
	maxRecovery time.Duration
	violate     func(invariant string, at time.Duration, host network.NodeID, detail string)

	// Rolling window ring buffers.
	lat []time.Duration
	hit []bool
	n   int // filled entries
	idx int // next write position

	// Baseline, snapshotted at the first fault onset.
	baselineChecked bool
	baselineSet     bool
	baselineLat     time.Duration
	baselineHit     float64

	// Outage schedule, processed lazily against completion timestamps.
	firstOutageAt time.Duration
	nextOutageEnd time.Duration
	outagePeriod  time.Duration

	// pending maps a cause to the start of its running episode.
	pending map[string]time.Duration
	byCause map[string]*RecoveryStats
}

// newRecoveryTracker derives the outage schedule from the fault plan (nil
// for ideal channels) and hooks the violation recorder.
func newRecoveryTracker(maxRecovery time.Duration, plan *network.FaultPlan, violate func(string, time.Duration, network.NodeID, string)) *recoveryTracker {
	t := &recoveryTracker{
		maxRecovery: maxRecovery,
		violate:     violate,
		lat:         make([]time.Duration, recoveryWindow),
		hit:         make([]bool, recoveryWindow),
		pending:     make(map[string]time.Duration),
		byCause:     make(map[string]*RecoveryStats),
	}
	if plan != nil {
		pc := plan.Config()
		if pc.OutagePeriod > 0 && pc.OutageDuration > 0 {
			t.firstOutageAt = pc.OutagePeriod
			t.nextOutageEnd = pc.OutagePeriod + pc.OutageDuration
			t.outagePeriod = pc.OutagePeriod
		}
	}
	return t
}

// observe folds one request completion into the rolling window, advances
// the lazily processed outage schedule, and resolves pending episodes.
func (t *recoveryTracker) observe(at, latency time.Duration, hit bool) {
	// Baseline snapshot at the first outage onset (crashes snapshot via
	// onFault, whichever comes first).
	if !t.baselineChecked && t.firstOutageAt > 0 && at >= t.firstOutageAt {
		t.snapshotBaseline()
	}
	// Outage episode boundaries crossed since the last completion.
	for t.nextOutageEnd > 0 && at >= t.nextOutageEnd {
		t.openEpisode("outage", t.nextOutageEnd)
		t.nextOutageEnd += t.outagePeriod
	}
	t.lat[t.idx] = latency
	t.hit[t.idx] = hit
	t.idx = (t.idx + 1) % len(t.lat)
	if t.n < len(t.lat) {
		t.n++
	}
	t.resolve(at)
}

// onFault records a host-level fault event (cause "crash").
func (t *recoveryTracker) onFault(at time.Duration, cause string) {
	if !t.baselineChecked {
		t.snapshotBaseline()
	}
	t.openEpisode(cause, at)
}

// snapshotBaseline freezes the pre-fault rolling estimate. A window that
// has not filled yet leaves the baseline unset and disables SLO tracking
// (reported as zero episodes rather than guessing a baseline).
func (t *recoveryTracker) snapshotBaseline() {
	t.baselineChecked = true
	if t.n < len(t.lat) {
		return
	}
	t.baselineLat, t.baselineHit = t.windowStats()
	t.baselineSet = true
}

// openEpisode starts (or extends) the running episode of one cause.
func (t *recoveryTracker) openEpisode(cause string, at time.Duration) {
	if !t.baselineSet {
		return
	}
	if _, running := t.pending[cause]; running {
		return // extends the current episode
	}
	t.pending[cause] = at
	t.stat(cause).Episodes++
}

// resolve checks every pending episode against the recovery band.
func (t *recoveryTracker) resolve(at time.Duration) {
	if len(t.pending) == 0 {
		return
	}
	causes := make([]string, 0, len(t.pending))
	for c := range t.pending {
		causes = append(causes, c)
	}
	sort.Strings(causes)
	meanLat, hitRatio := t.windowStats()
	for _, cause := range causes {
		since := t.pending[cause]
		if t.n == len(t.lat) &&
			meanLat <= time.Duration(float64(t.baselineLat)*recoveryLatencyFactor) &&
			hitRatio >= t.baselineHit-recoveryHitRatioSlack {
			s := t.stat(cause)
			s.Recovered++
			took := at - since
			s.TotalRecovery += took
			if took > s.MaxRecovery {
				s.MaxRecovery = took
			}
			delete(t.pending, cause)
			continue
		}
		if t.maxRecovery > 0 && at-since > t.maxRecovery {
			t.violate("recovery-slo", at, -1, fmt.Sprintf(
				"%s episode from t=%v not recovered after %v (limit %v)",
				cause, since, at-since, t.maxRecovery))
			t.stat(cause).Unrecovered++
			delete(t.pending, cause)
		}
	}
}

// finish closes episodes still pending when the run ends. Outage windows
// that closed after the last request completion still opened episodes:
// the schedule is advanced to the end time first, so a run whose tail
// overlaps an outage does not silently drop the episode. Everything still
// pending is then recorded as censored — the run ended before recovery
// could be observed, which is not the same as failing to recover.
func (t *recoveryTracker) finish(at time.Duration) {
	for t.nextOutageEnd > 0 && at >= t.nextOutageEnd {
		t.openEpisode("outage", t.nextOutageEnd)
		t.nextOutageEnd += t.outagePeriod
	}
	causes := make([]string, 0, len(t.pending))
	for c := range t.pending {
		causes = append(causes, c)
	}
	sort.Strings(causes)
	for _, cause := range causes {
		t.stat(cause).Censored++
		delete(t.pending, cause)
	}
}

// stat returns the mutable stats record of one cause.
func (t *recoveryTracker) stat(cause string) *RecoveryStats {
	s, ok := t.byCause[cause]
	if !ok {
		s = &RecoveryStats{Cause: cause}
		t.byCause[cause] = s
	}
	return s
}

// stats returns the per-cause summaries in cause order.
func (t *recoveryTracker) stats() []RecoveryStats {
	causes := make([]string, 0, len(t.byCause))
	for c := range t.byCause {
		causes = append(causes, c)
	}
	sort.Strings(causes)
	out := make([]RecoveryStats, 0, len(causes))
	for _, c := range causes {
		out = append(out, *t.byCause[c])
	}
	return out
}

// windowStats returns the rolling mean latency and hit ratio over the
// filled portion of the window.
func (t *recoveryTracker) windowStats() (time.Duration, float64) {
	if t.n == 0 {
		return 0, 0
	}
	var sum time.Duration
	hits := 0
	for i := 0; i < t.n; i++ {
		sum += t.lat[i]
		if t.hit[i] {
			hits++
		}
	}
	return sum / time.Duration(t.n), float64(hits) / float64(t.n)
}
