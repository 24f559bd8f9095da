// Storage: run the balancer as a long-lived service over an
// object-backed workload. Objects are hashed into the identifier space
// (a virtual server's load is the sum of its objects' loads — the
// paper's own justification for the Gaussian model), 10% of the object
// population churns between rounds, and every 5,000 ticks the tree is
// repaired and a full message-level balancing round runs
// (exp.PeriodicRounds).
//
//	go run ./examples/storage
package main

import (
	"fmt"
	"log"
	"math/rand"

	"p2plb/internal/chord"
	"p2plb/internal/core"
	"p2plb/internal/exp"
	"p2plb/internal/ktree"
	"p2plb/internal/objects"
	"p2plb/internal/protocol"
	"p2plb/internal/sim"
	"p2plb/internal/workload"
)

func main() {
	eng := sim.NewEngine(2024)
	ring := chord.NewRing(eng, chord.Config{})
	profile := workload.GnutellaProfile()
	for i := 0; i < 256; i++ {
		ring.AddNode(-1, profile.Sample(eng.Rand()), 5)
	}

	// 100k objects with Zipf popularity: a few hot items, a long tail.
	store := objects.NewStore(ring)
	rng := rand.New(rand.NewSource(7))
	loadFn := objects.ZipfLoads(rng, 1.3, 1, 1<<16, 0.25)
	if err := store.Populate(rng, 100_000, loadFn); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d nodes, %d virtual servers, %d objects (total load %.0f)\n",
		len(ring.AliveNodes()), ring.NumVServers(), store.Len(), store.TotalLoad())

	tree, err := ktree.New(ring, 2)
	if err != nil {
		log.Fatal(err)
	}
	if err := tree.Build(); err != nil {
		log.Fatal(err)
	}

	cfg := protocol.Config{Core: core.Config{Epsilon: 0.05}}
	hist, err := exp.PeriodicRounds(ring, tree, cfg, 5_000, 12, func() {
		// Workload drift between rounds: 10% of objects churn.
		if err := store.Drift(rng, 10_000, loadFn); err != nil {
			log.Fatal(err)
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n round  t(start)  Gini before  Gini after  moved load  transfers")
	failed := 0
	var moved, giniPre, giniPost float64
	for i, rec := range hist {
		if rec.Err != nil {
			failed++
			fmt.Printf("%6d  %8d  round failed: %v\n", i+1, rec.StartedAt, rec.Err)
			continue
		}
		moved += rec.Result.MovedLoad
		giniPre += rec.GiniBefore
		giniPost += rec.GiniAfter
		fmt.Printf("%6d  %8d  %11.3f  %10.3f  %10.0f  %9d\n",
			i+1, rec.StartedAt, rec.GiniBefore, rec.GiniAfter,
			rec.Result.MovedLoad, len(rec.Result.Assignments))
	}
	if ok := float64(len(hist) - failed); ok > 0 {
		giniPre /= ok
		giniPost /= ok
	}
	fmt.Printf("\n%d rounds (%d failed), %.0f load moved in total; mean Gini %.3f -> %.3f\n",
		len(hist), failed, moved, giniPre, giniPost)
	if err := store.CheckLoads(1e-6); err != nil {
		log.Fatal(err)
	}
	fmt.Println("object accounting consistent after the whole run")
	fmt.Println("\nnote: the residual Gini (~0.3) is the capacity-granularity floor —")
	fmt.Println("capacity-1 nodes cannot hold a proportional share of any virtual server.")
}
