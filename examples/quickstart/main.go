// Quickstart: explore a reduced 3-ECU subnet and print the resulting
// cost / test-quality / shut-off tradeoffs.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"
	"slices"

	"repro/internal/casestudy"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/moea"
	"repro/internal/objective"
	"repro/internal/report"
)

func main() {
	// 1. Build a specification: 3 ECUs and a gateway on one CAN bus, a
	//    sensor→processing→actuator chain, and 4 Table I BIST profiles
	//    per ECU.
	spec, err := casestudy.Small(3, 4, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("specification: %d tasks, %d messages, %d resources, %d mapping edges\n",
		spec.App.NumTasks(), spec.App.NumMessages(), spec.Arch.NumResources(), len(spec.Mappings()))

	// 2. Attach the fast greedy decoder and run the exploration.
	dec, err := core.NewGreedyDecoder(spec)
	if err != nil {
		log.Fatal(err)
	}
	ex := core.NewExplorer(spec, dec)
	res, err := ex.Run(moea.Options{PopSize: 48, Generations: 40, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Inspect the Pareto front.
	fmt.Println()
	report.WriteSummary(os.Stdout, res)
	fmt.Println()
	report.WriteFig5(os.Stdout, res, 20_000)

	// 4. Look inside one implementation: where is everything bound?
	best, ok := res.BestQualityWithin(res.BaselineCost(), 0.05)
	if !ok {
		fmt.Println("\nno implementation within 5% of baseline cost")
		return
	}
	fmt.Printf("\nimplementation with %.1f%% test quality at cost %.0f:\n",
		best.Objectives.TestQuality*100, best.Objectives.CostTotal)
	x := best.Impl
	selected := x.SelectedBIST()
	ecus := make([]model.ResourceID, 0, len(selected))
	for ecu := range selected {
		ecus = append(ecus, ecu)
	}
	slices.Sort(ecus)
	for _, ecu := range ecus {
		bT := selected[ecu]
		bD := spec.DataTaskFor(bT)
		storage := x.Binding.Get(bD.ID)
		where := "locally"
		if storage == spec.Gateway {
			where = "at the gateway"
		}
		q := objective.TransferTimeMS(x, bD, ecu)
		fmt.Printf("  %s: profile %d (%.2f%% coverage, %.2f ms session), %d bytes stored %s",
			ecu, bT.Profile, bT.Coverage*100, bT.WCETms, bD.MemBytes, where)
		if storage != ecu {
			fmt.Printf(", Eq.(1) transfer %.1f s", q/1000)
		}
		fmt.Println()
	}
	for _, r := range x.AllocatedResources() {
		if spec.Arch.Resource(r).Kind == model.KindECU {
			if _, tested := selected[r]; !tested {
				fmt.Printf("  %s: no BIST selected\n", r)
			}
		}
	}
}
