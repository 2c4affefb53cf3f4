// Simulation: the paper's third motivation (Section 1.2). When a single
// machine simulates a large distributed network (as in big-graph
// analytics), the work is the SUM of rounds over all simulated vertices —
// exactly n times the vertex-averaged complexity — not the worst case.
// This example simulates the same symmetry-breaking task with the paper's
// algorithm and with the classical baseline and reports the simulated
// work and the observed wall-clock advantage.
package main

import (
	"fmt"
	"log"
	"time"

	"vavg"
)

func main() {
	g := vavg.ForestUnion(100000, 3, 3)
	fmt.Printf("simulating a %d-node network (%s, m=%d) on one machine\n\n",
		g.N(), g.Name, g.M())

	type outcome struct {
		name     string
		work     int64
		rounds   int
		wall     time.Duration
		messages int64
	}
	var results []outcome
	for _, name := range []string{"forest-decomp", "forest-decomp-wc"} {
		alg, err := vavg.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		rep, err := alg.Run(g, vavg.Params{Arboricity: 3})
		if err != nil {
			log.Fatal(err)
		}
		results = append(results, outcome{
			name:     name,
			work:     rep.RoundSum,
			rounds:   rep.WorstCase,
			wall:     time.Since(start),
			messages: rep.Messages,
		})
	}

	for _, r := range results {
		fmt.Printf("%-18s simulated vertex-rounds: %9d   global rounds: %3d   messages: %9d   wall: %v\n",
			r.name, r.work, r.rounds, r.messages, r.wall.Round(time.Millisecond))
	}
	fmt.Printf("\nsimulated-work ratio (baseline/ours): %.1fx\n",
		float64(results[1].work)/float64(results[0].work))
	fmt.Println("the vertex-averaged algorithm performs O(n) total simulated rounds,")
	fmt.Println("independent of n's logarithm — the quantity that governs big-graph simulators.")
}
