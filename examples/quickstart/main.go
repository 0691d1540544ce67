// Quickstart: compare the three caching schemes — conventional caching
// (SC), COCA, and GroCoca — on one reduced-scale scenario and print the
// metrics the paper's figures plot.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/strategy"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// Start from the paper's Table II defaults and shrink the system so
	// the example finishes in a few seconds.
	cfg := core.DefaultConfig()
	cfg.NumClients = 40
	cfg.NData = 4000
	cfg.AccessRange = 300
	cfg.CacheSize = 60
	cfg.WarmupRequests = 100
	cfg.MeasuredRequests = 150

	fmt.Println("Peer-to-peer cooperative caching: 40 mobile hosts, 8 motion groups")
	fmt.Println()
	for _, scheme := range strategy.Paper() {
		cfg.Scheme = scheme
		r, err := core.Run(cfg)
		if err != nil {
			return err
		}
		fmt.Println(r)
	}
	fmt.Println()
	fmt.Println("Expected shape (the paper's headline result): GroCoca achieves the")
	fmt.Println("highest global cache hit ratio and the lowest server request ratio;")
	fmt.Println("COCA improves on SC; SC has no global hits at all.")
	return nil
}
