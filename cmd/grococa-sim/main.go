// Command grococa-sim runs a single cooperative-caching simulation and
// prints the measured metrics. Defaults reproduce the paper's default
// setting (Table II) at a reduced request count.
//
// These Table II parameters are flags: NumClient (-clients), NData
// (-ndata), DataSize (-datasize), CacheSize (-cachesize), the space
// (-width, -height), the speeds (-vmin, -vmax), the bandwidths (-downlink,
// -uplink, -p2pbw), TranRange (-range), HopDist (-hops), AccessRange
// (-accessrange), θ (-theta), GroupSize (-groupsize), DataUpdateRate
// (-updaterate), P_disc and DiscTime (-discprob, -discmin, -discmax), Δ,
// δ and ω (-delta, -simdelta, -omega), σ and k (-sigbits, -sighashes),
// ReplaceCandidate and ReplaceDelay (-replacecand, -replacedelay), τ_P and
// ρ_P (-taup, -rho), and the requests per host (-warmup, -requests). The
// mean interarrival has no flag and keeps its core.DefaultConfig value.
// α is a constant of internal/core, the pause time, ϕ, ϕ′ and π_c of
// internal/client, the beacon period of internal/ndp and the Table I
// energy rows of internal/network: no run sets them.
//
// Example:
//
//	grococa-sim -scheme grococa -clients 100 -cachesize 100 -theta 0.5
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/network"
	"repro/internal/resilience"
	"repro/internal/server"
)

// wallClock is the injectable wall-time source; command tests may freeze
// it with clock.Fixed.
var wallClock clock.Clock = clock.System{}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "grococa-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("grococa-sim", flag.ContinueOnError)
	cfg := core.DefaultConfig()

	scheme := fs.String("scheme", "grococa",
		"caching scheme: "+strings.Join(core.SchemeFlags(), ", "))
	delivery := fs.String("delivery", "pull", "data delivery model: pull, push, hybrid")
	fs.Float64Var(&cfg.BroadcastKbps, "bcastbw", cfg.BroadcastKbps, "broadcast channel kbps (push/hybrid)")
	fs.IntVar(&cfg.BroadcastHotItems, "bcasthot", cfg.BroadcastHotItems, "hybrid hot set size in items")
	fs.DurationVar(&cfg.BroadcastReshuffle, "bcastreshuffle", cfg.BroadcastReshuffle, "hybrid hot set reshuffle period")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
	fs.IntVar(&cfg.NumClients, "clients", cfg.NumClients, "number of mobile hosts")
	fs.IntVar(&cfg.NData, "ndata", cfg.NData, "number of data items at the server")
	fs.IntVar(&cfg.DataSize, "datasize", cfg.DataSize, "item size in bytes")
	fs.IntVar(&cfg.CacheSize, "cachesize", cfg.CacheSize, "client cache capacity in items")
	fs.Float64Var(&cfg.SpaceWidth, "width", cfg.SpaceWidth, "space width in metres")
	fs.Float64Var(&cfg.SpaceHeight, "height", cfg.SpaceHeight, "space height in metres")
	fs.IntVar(&cfg.GroupSize, "groupsize", cfg.GroupSize, "motion group size")
	fs.Float64Var(&cfg.GroupRadius, "groupradius", cfg.GroupRadius, "motion group radius in metres")
	fs.Float64Var(&cfg.MinSpeed, "vmin", cfg.MinSpeed, "minimum speed m/s")
	fs.Float64Var(&cfg.MaxSpeed, "vmax", cfg.MaxSpeed, "maximum speed m/s")
	fs.Float64Var(&cfg.ServerDownlinkKbps, "downlink", cfg.ServerDownlinkKbps, "server downlink kbps")
	fs.Float64Var(&cfg.ServerUplinkKbps, "uplink", cfg.ServerUplinkKbps, "server uplink kbps")
	fs.Float64Var(&cfg.P2PBandwidthKbps, "p2pbw", cfg.P2PBandwidthKbps, "P2P bandwidth kbps")
	fs.Float64Var(&cfg.TranRange, "range", cfg.TranRange, "transmission range metres")
	fs.IntVar(&cfg.HopDist, "hops", cfg.HopDist, "P2P search hop bound")
	fs.IntVar(&cfg.AccessRange, "accessrange", cfg.AccessRange, "per-group access range in items")
	fs.Float64Var(&cfg.Zipf, "theta", cfg.Zipf, "Zipf skewness θ")
	fs.IntVar(&cfg.WarmupRequests, "warmup", cfg.WarmupRequests, "warm-up requests per host")
	fs.IntVar(&cfg.MeasuredRequests, "requests", cfg.MeasuredRequests, "measured requests per host")
	fs.Float64Var(&cfg.DataUpdateRate, "updaterate", cfg.DataUpdateRate, "data updates per second")
	fs.Float64Var(&cfg.DiscProb, "discprob", cfg.DiscProb, "disconnection probability")
	fs.DurationVar(&cfg.DiscMin, "discmin", cfg.DiscMin, "minimum disconnection time")
	fs.DurationVar(&cfg.DiscMax, "discmax", cfg.DiscMax, "maximum disconnection time")
	fs.Float64Var(&cfg.DistanceThreshold, "delta", cfg.DistanceThreshold, "TCG distance threshold Δ (m)")
	fs.Float64Var(&cfg.SimilarityThreshold, "simdelta", cfg.SimilarityThreshold, "TCG similarity threshold δ")
	fs.Float64Var(&cfg.DistanceWeight, "omega", cfg.DistanceWeight, "distance EWMA weight ω")
	fs.IntVar(&cfg.SigBits, "sigbits", cfg.SigBits, "bloom filter size σ in bits")
	fs.IntVar(&cfg.SigHashes, "sighashes", cfg.SigHashes, "bloom hash count k")
	fs.IntVar(&cfg.ReplaceCandidate, "replacecand", cfg.ReplaceCandidate, "replacement candidate window")
	fs.IntVar(&cfg.ReplaceDelay, "replacedelay", cfg.ReplaceDelay, "SingletTTL initial value")
	fs.Float64Var(&cfg.PeerAccessSample, "rho", cfg.PeerAccessSample, "peer access report portion ρ_P")
	fs.DurationVar(&cfg.ExplicitUpdateAfter, "taup", cfg.ExplicitUpdateAfter, "explicit update silence τ_P")
	fs.IntVar(&cfg.SigRecollectAfter, "sigrecollect", cfg.SigRecollectAfter, "batch signature recollection after N departures (<=1 immediate)")
	criteria := fs.String("criteria", "both", "TCG criteria: both, distance, similarity")
	mobilityModel := fs.String("mobility", "waypoint", "mobility model: waypoint, manhattan")
	fs.Float64Var(&cfg.GridSpacing, "gridspacing", cfg.GridSpacing, "Manhattan street spacing in metres")
	fs.BoolVar(&cfg.EnableSpillover, "spillover", false, "spill evicted items to low-activity neighbors")
	fs.Float64Var(&cfg.SpilloverActivityRatio, "spillratio", cfg.SpilloverActivityRatio, "spill only to neighbors below this activity ratio")
	fs.Float64Var(&cfg.LowActivityFraction, "lowactivity", cfg.LowActivityFraction, "fraction of hosts with 10x slower request rate")
	fs.DurationVar(&cfg.HotspotShiftEvery, "shiftevery", cfg.HotspotShiftEvery, "interest drift period (0 = stationary)")
	fs.Float64Var(&cfg.HotspotShiftFraction, "shiftfraction", cfg.HotspotShiftFraction, "fraction of the hot mapping re-permuted per shift")
	fs.BoolVar(&cfg.DisableFilter, "nofilter", false, "disable the signature filtering mechanism")
	fs.BoolVar(&cfg.DisableAdmission, "noadmission", false, "disable cooperative admission control")
	fs.BoolVar(&cfg.DisableCoopReplace, "nocoopreplace", false, "disable cooperative replacement")
	fs.BoolVar(&cfg.DisableCompression, "nocompression", false, "disable signature compression")
	fs.Float64Var(&cfg.P2PLossProb, "p2ploss", cfg.P2PLossProb, "P2P per-message loss probability")
	fs.Float64Var(&cfg.P2PBitErrorRate, "p2pber", cfg.P2PBitErrorRate, "P2P bit error rate (size-dependent drops)")
	fs.Float64Var(&cfg.UplinkLossProb, "uplinkloss", cfg.UplinkLossProb, "server uplink loss probability")
	fs.Float64Var(&cfg.DownlinkLossProb, "downlinkloss", cfg.DownlinkLossProb, "server downlink loss probability")
	fs.DurationVar(&cfg.ServerOutagePeriod, "outageperiod", cfg.ServerOutagePeriod, "server outage period (0 = no outages)")
	fs.DurationVar(&cfg.ServerOutageDuration, "outageduration", cfg.ServerOutageDuration, "server outage duration per period")
	fs.DurationVar(&cfg.CrashMTBF, "crashmtbf", cfg.CrashMTBF, "mean host up-time between crashes (0 = no crash churn)")
	fs.DurationVar(&cfg.CrashDownMin, "crashdownmin", cfg.CrashDownMin, "minimum crash downtime")
	fs.DurationVar(&cfg.CrashDownMax, "crashdownmax", cfg.CrashDownMax, "maximum crash downtime")
	fs.Float64Var(&cfg.ServerRescueFactor, "rescuefactor", cfg.ServerRescueFactor, "rescue timeout scale over the queue-aware RTT estimate")
	resil := fs.Bool("resilience", false, "start from the full resilience policy (retry budgets, jittered backoff, MSS-link breaker, hedging, serve-stale) instead of the hardened paper protocol; policy flags set on the command line apply on top")
	pol := &cfg.Resilience
	fs.IntVar(&pol.RetrieveRetries, "retrieveretry", pol.RetrieveRetries, "alternate-holder retries after a data timeout")
	fs.IntVar(&pol.ServerRetries, "serverretry", pol.ServerRetries, "rescue re-sends of a lost MSS exchange (0 fails the request at the first rescue timeout)")
	fs.IntVar(&pol.RetryBudget, "retrybudget", pol.RetryBudget, "per-request retry budget shared by retrieve retries and MSS rescues; the default never binds")
	fs.Float64Var(&pol.Jitter, "retryjitter", pol.Jitter, "backoff jitter fraction in [0,1]")
	fs.DurationVar(&pol.Deadline, "reqdeadline", pol.Deadline, "per-request deadline, 0 disables")
	fs.IntVar(&pol.BreakerFailures, "breakerfailures", pol.BreakerFailures, "consecutive MSS failures that open the breaker, 0 disables")
	fs.DurationVar(&pol.BreakerOpenFor, "breakeropen", pol.BreakerOpenFor, "open-breaker window before a half-open probe")
	fs.Float64Var(&pol.HedgeAfter, "hedgeafter", pol.HedgeAfter, "hedge a second holder after this fraction of the data timeout, 0 disables")
	fs.BoolVar(&pol.ServeStale, "servestale", pol.ServeStale, "serve expired cached copies during open-breaker windows (needs the breaker)")
	fs.DurationVar(&pol.ServeStaleMaxAge, "servestalemax", pol.ServeStaleMaxAge, "maximum age past expiry served stale, 0 unbounded")
	verbose := fs.Bool("v", false, "print auxiliary counters and host diagnostics")
	traceFile := fs.String("tracefile", "", "write a CSV trace of every measured request to this file")
	reps := fs.Int("reps", 1, "independent replications with derived seeds; > 1 prints mean ± sample sd")
	parallel := fs.Int("parallel", 0, "worker goroutines for -reps (0 = GOMAXPROCS); output is identical for any value")
	resume := fs.String("resume", "", "journal completed replications in this directory and resume an interrupted run from it (implies the -reps path)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
	memProfile := fs.String("memprofile", "", "write a profile of every allocation the simulation makes to this file")

	if err := fs.Parse(args); err != nil {
		return err
	}
	parsedScheme, err := core.ParseScheme(*scheme)
	if err != nil {
		return err
	}
	cfg.Scheme = parsedScheme
	if *resil {
		// The preset replaces the whole policy the flags wrote into;
		// parsing again applies every flag set on the command line on
		// top of it.
		cfg.Resilience = resilience.DefaultPolicy()
		if err := fs.Parse(args); err != nil {
			return err
		}
	}
	switch *delivery {
	case "pull":
		cfg.Delivery = core.DeliveryPull
	case "push":
		cfg.Delivery = core.DeliveryPush
	case "hybrid":
		cfg.Delivery = core.DeliveryHybrid
	default:
		return fmt.Errorf("unknown delivery model %q (want pull, push or hybrid)", *delivery)
	}
	switch *mobilityModel {
	case "waypoint":
		cfg.Mobility = core.MobilityWaypoint
	case "manhattan":
		cfg.Mobility = core.MobilityManhattan
	default:
		return fmt.Errorf("unknown mobility model %q (want waypoint or manhattan)", *mobilityModel)
	}
	switch *criteria {
	case "both":
		cfg.GroupCriteria = server.CriteriaBoth
	case "distance":
		cfg.GroupCriteria = server.CriteriaDistanceOnly
	case "similarity":
		cfg.GroupCriteria = server.CriteriaSimilarityOnly
	default:
		return fmt.Errorf("unknown criteria %q (want both, distance or similarity)", *criteria)
	}

	if *reps < 1 {
		return fmt.Errorf("-reps %d must be at least 1", *reps)
	}
	finish, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if ferr := finish(); err == nil {
			err = ferr
		}
	}()
	if *reps > 1 || *resume != "" {
		if *traceFile != "" {
			return fmt.Errorf("-tracefile requires -reps 1 without -resume (a trace is one run's requests)")
		}
		return runReplicated(cfg, *reps, *parallel, *resume)
	}

	start := wallClock.Now()
	s, err := core.New(cfg)
	if err != nil {
		return err
	}
	var traceW *bufio.Writer
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return fmt.Errorf("trace file: %w", err)
		}
		// Close errors are surfaced by the explicit Flush+Close below;
		// this deferred close only covers early error returns.
		defer func() { _ = f.Close() }()
		traceW = bufio.NewWriter(f)
		if _, err := fmt.Fprintln(traceW, "sim_time_s,host,outcome,latency_ms"); err != nil {
			return err
		}
		s.Collector().OnRecord = func(at time.Duration, host network.NodeID, outcome client.Outcome, latency time.Duration) {
			// bufio's error is sticky: a failed row write resurfaces at
			// the post-run Flush, so it is safe to discard here.
			_, _ = fmt.Fprintf(traceW, "%.3f,%d,%s,%.3f\n",
				at.Seconds(), host, outcome, float64(latency)/float64(time.Millisecond))
		}
	}
	r, err := s.Run()
	if err != nil {
		return err
	}
	if traceW != nil {
		if err := traceW.Flush(); err != nil {
			return fmt.Errorf("trace file: %w", err)
		}
	}
	fmt.Println(r)
	fmt.Printf("latency: p50=%v p95=%v p99=%v\n",
		r.P50Latency.Round(100*time.Microsecond),
		r.P95Latency.Round(100*time.Microsecond),
		r.P99Latency.Round(100*time.Microsecond))
	fmt.Printf("sim-time=%v events=%d wall=%v downlink-util=%.1f%% total-energy=%.2fJ completed=%v\n",
		r.SimTime.Round(time.Second), r.Events, clock.Since(wallClock, start).Round(time.Millisecond),
		100*r.DownlinkUtilization, r.TotalEnergy/1e6, r.Completed)
	if r.Faults.Any() || *verbose {
		fmt.Printf("faults: %v\n", r.Faults)
	}
	if *verbose {
		fmt.Printf("aux: %+v\n", r.Aux)
		cats := make([]string, 0, len(r.EnergyBreakdown))
		for cat := range r.EnergyBreakdown {
			cats = append(cats, cat)
		}
		sort.Strings(cats)
		fmt.Print("energy:")
		for _, cat := range cats {
			fmt.Printf(" %s=%.2fJ", cat, r.EnergyBreakdown[cat]/1e6)
		}
		fmt.Println()
		if s.MSS().TCG() != nil {
			var sum, max int
			for _, h := range s.Hosts() {
				n := h.TCGSize()
				sum += n
				if n > max {
					max = n
				}
			}
			fmt.Printf("tcg: mean-size=%.2f max-size=%d (of group size %d)\n",
				float64(sum)/float64(len(s.Hosts())), max, cfg.GroupSize)
			// Signature coverage ground truth: of the items actually
			// cached by TCG members right now, what fraction does each
			// host's peer vector cover?
			hosts := s.Hosts()
			var covered, total int
			for _, h := range hosts {
				for _, mid := range h.TCGMembers() {
					for _, item := range hosts[mid].Cache().Items() {
						total++
						if h.CoversItem(item) {
							covered++
						}
					}
				}
			}
			if total > 0 {
				fmt.Printf("sig-coverage: %.1f%% of %d member-cached items\n",
					100*float64(covered)/float64(total), total)
			}
		}
	}
	return nil
}

// startProfiles starts a CPU profile into cpuPath and records every
// allocation for a profile into memPath; an empty path skips its profile.
// finish stops the CPU profile, writes the allocation profile and restores
// the allocation sampling rate.
func startProfiles(cpuPath, memPath string) (finish func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			_ = cpu.Close() // the start error is the one to report
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	rate := runtime.MemProfileRate
	if memPath != "" {
		runtime.MemProfileRate = 1
	}
	return func() error {
		defer func() { runtime.MemProfileRate = rate }()
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return fmt.Errorf("cpu profile: %w", err)
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return fmt.Errorf("memory profile: %w", err)
		}
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			_ = f.Close() // the write error is the one to report
			return fmt.Errorf("memory profile: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("memory profile: %w", err)
		}
		return nil
	}, nil
}

// runReplicated runs the configuration -reps times on the parallel sweep
// engine (replication 0 keeps the flag seed, later replications derive
// independent seeds) and prints each replication plus the mean ± sample
// standard deviation.
func runReplicated(cfg core.Config, reps, workers int, resume string) error {
	start := wallClock.Now()
	var jr *checkpoint.Journal
	if resume != "" {
		// Bind the journal to the full configuration and replication count:
		// resuming with any changed flag is refused rather than mixing runs.
		meta := fmt.Sprintf("grococa-sim reps=%d cfg=%+v", reps, cfg)
		var err error
		jr, err = checkpoint.OpenJournal(resume, []byte(meta))
		if err != nil {
			return err
		}
		defer func() { _ = jr.Close() }()
	}
	p, err := experiments.ReplicateJournaled(cfg, reps, workers, jr)
	if err != nil {
		return err
	}
	for i, r := range p.Runs {
		fmt.Printf("rep %d: %v\n", i, r)
	}
	fmt.Printf("mean:  %v\n", p.Mean())
	if len(p.Runs) > 1 {
		fmt.Print("sd:   ")
		for _, m := range experiments.Metrics {
			if m.Line != "" {
				fmt.Printf(" "+m.Line, m.Display(p.SD(m)))
			}
		}
		fmt.Printf(" (n=%d reps)\n", len(p.Runs))
	}
	fmt.Printf("wall=%v\n", clock.Since(wallClock, start).Round(time.Millisecond))
	return nil
}
