// Fieldteams: rescue field teams sweep a wide disaster area while
// headquarters keeps updating situation reports. This stresses the two
// failure axes of the paper's last two experiments at once: server data
// updates (TTL-based consistency, validations, refreshes) and client
// disconnections (the GroCoca reconnection handling protocol).
//
//	go run ./examples/fieldteams
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/strategy"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fieldteams:", err)
		os.Exit(1)
	}
}

func run() error {
	base := core.DefaultConfig()
	// A 2 km × 2 km operation area, six teams of five moving fast.
	base.SpaceWidth, base.SpaceHeight = 2000, 2000
	base.NumClients = 30
	base.GroupSize = 5
	base.GroupRadius = 40
	base.MinSpeed, base.MaxSpeed = 2, 8
	// Situation reports: small catalog updated continuously.
	base.NData = 2000
	base.AccessRange = 150
	base.CacheSize = 40
	base.DataUpdateRate = 10 // reports per second across the catalog
	// Radios drop out regularly.
	base.DiscProb = 0.1
	base.DiscMin = 5 * time.Second
	base.DiscMax = 30 * time.Second
	base.WarmupRequests = 80
	base.MeasuredRequests = 120

	fmt.Println("Disaster-area field teams: 10 updates/s at HQ, 10% disconnection probability")
	fmt.Println()
	for _, scheme := range strategy.Paper() {
		cfg := base
		cfg.Scheme = scheme
		r, err := core.Run(cfg)
		if err != nil {
			return err
		}
		fmt.Println(r)
		fmt.Printf("         validations=%d refreshes=%d (stale copies re-fetched)\n",
			r.Aux.Validations, r.Aux.Refreshes)
	}
	fmt.Println()
	fmt.Println("Updates shorten TTLs, so all schemes validate aggressively; cooperative")
	fmt.Println("schemes still relieve HQ's downlink, and GroCoca pays extra signature")
	fmt.Println("traffic whenever a disconnected team member rejoins.")
	return nil
}
