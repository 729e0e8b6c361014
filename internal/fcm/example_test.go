package fcm_test

import (
	"fmt"
	"log"

	"qlec/internal/fcm"
	"qlec/internal/geom"
	"qlec/internal/rng"
)

// Example runs fuzzy c-means on two groups and shows that memberships
// are soft (rows sum to one) while the hard assignment separates the
// groups.
func Example() {
	points := []geom.Vec3{
		{X: 0}, {X: 2}, {X: 4},
		{X: 100}, {X: 102}, {X: 104},
	}
	res, err := fcm.ClusterScratch(points, 2, rng.New(1), new(fcm.Scratch))
	if err != nil {
		log.Fatal(err)
	}
	sum := res.U[0][0] + res.U[0][1]
	fmt.Printf("membership row sums to %.3f\n", sum)
	assign := res.HardAssignInto(nil)
	fmt.Println("groups separated:", assign[0] != assign[3])
	// Output:
	// membership row sums to 1.000
	// groups separated: true
}

// ExampleTiersInto shows the WCNC'18 hierarchy assignment by distance
// to the base station.
func ExampleTiersInto() {
	dists := []float64{10, 40, 95}
	tiers, err := fcm.TiersInto(dists, 3, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("tiers:", tiers)
	// Output:
	// tiers: [0 1 2]
}
