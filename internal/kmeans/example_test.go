package kmeans_test

import (
	"fmt"
	"log"

	"qlec/internal/geom"
	"qlec/internal/kmeans"
	"qlec/internal/rng"
)

// Example clusters two obvious groups and reads back the assignment.
func Example() {
	points := []geom.Vec3{
		{X: 0}, {X: 1}, {X: 2}, // group A
		{X: 100}, {X: 101}, {X: 102}, // group B
	}
	res, err := kmeans.ClusterScratch(points, 2, rng.New(1), new(kmeans.Scratch))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("same cluster A:", res.Assign[0] == res.Assign[1] && res.Assign[1] == res.Assign[2])
	fmt.Println("same cluster B:", res.Assign[3] == res.Assign[4] && res.Assign[4] == res.Assign[5])
	fmt.Println("separated:", res.Assign[0] != res.Assign[3])
	// Output:
	// same cluster A: true
	// same cluster B: true
	// separated: true
}

// ExampleOptimalCost solves a tiny instance of the NP-hard clustering
// problem exactly (Theorem 2 makes exhaustive search the only route to
// certainty).
func ExampleOptimalCost() {
	points := []geom.Vec3{{X: 0}, {X: 1}, {X: 10}, {X: 11}}
	opt, err := kmeans.OptimalCost(points, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimal 2-means cost: %.2f\n", opt)
	// Output:
	// optimal 2-means cost: 1.00
}
