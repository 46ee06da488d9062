// Plan selection: train a RAAL cost model and use it to pick execution
// plans under different resource allocations — the paper's end goal
// (Fig. 1 / Sec. III). The best plan is not fixed: it depends on the
// resources the cluster manager grants the query.
//
//	go run ./examples/plan_selection
package main

import (
	"context"
	"fmt"
	"log"

	"raal"
)

func main() {
	sys, err := raal.Open(raal.IMDB, 0.1, 1)
	if err != nil {
		log.Fatal(err)
	}

	// Phase 1 (paper Sec. IV-B): collect training data — every candidate
	// plan of each generated query, priced under random resource states.
	fmt.Println("collecting training data ...")
	ds, err := sys.Collect(raal.CollectOptions{NumQueries: 150, ResStatesPerPlan: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collected %d (plan, resources, cost) records\n", len(ds.Records))

	// Phase 2: train the resource-aware deep cost model.
	fmt.Println("training RAAL ...")
	cm, report, err := raal.TrainCostModel(ds, raal.RAAL(), raal.TrainOptions{Epochs: 20})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("held-out metrics: %s\n\n", report.Held)

	// Phase 3: resource-aware plan selection.
	query := `SELECT COUNT(*) FROM title t, movie_companies mc, movie_keyword mk
	          WHERE t.id = mc.movie_id AND t.id = mk.movie_id
	          AND mc.company_id = 7 AND mk.keyword_id < 2000`
	plans, err := sys.Plan(query)
	if err != nil {
		log.Fatal(err)
	}
	if len(plans) > 3 {
		plans = plans[:3]
	}
	for _, p := range plans {
		if _, err := sys.Execute(p); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println("plan choice vs executor memory (predicted | simulated-true cost, seconds):")
	for _, memGB := range []float64{1, 2, 4, 8, 12} {
		res := raal.DefaultResources()
		res.ExecMemMB = memGB * 1024

		best, pred, err := cm.SelectPlanCtx(context.Background(), plans, res)
		if err != nil {
			log.Fatal(err)
		}
		truth, err := sys.Cost(best, res)
		if err != nil {
			log.Fatal(err)
		}
		defTruth, err := sys.Cost(plans[0], res)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %4.0f GB → %-34s pred %6.1f | true %6.1f (default plan: %6.1f)\n",
			memGB, best.Sig, pred, truth, defTruth)
	}
}
